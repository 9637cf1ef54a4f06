// Scan-engine parity: the word engine (8 slots per load, SWAR masks)
// must agree with the per-byte reference on every occupancy pattern —
// in particular around word boundaries and tail remainders, where SWAR
// bugs live (the borrow-propagating zero-byte mask this suite was
// written against misclassified bytes above the first clear slot).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "arrays/bitmap_array.hpp"
#include "core/level_array.hpp"
#include "core/slot_scan.hpp"
#include "rng/rng.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__,      \
                   #cond);                                              \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

using la::core::slot_scan::claim_clear;
using la::core::slot_scan::count_held;
using la::core::slot_scan::count_held_bytewise;
using la::core::slot_scan::for_each_held;
using la::core::slot_scan::for_each_held_bytewise;

std::vector<std::uint64_t> collect_word(const la::sync::TasCell* cells,
                                        std::uint64_t n) {
  std::vector<std::uint64_t> out;
  for_each_held(cells, n, [&](std::uint64_t i) { out.push_back(i); });
  return out;
}

std::vector<std::uint64_t> collect_byte(const la::sync::TasCell* cells,
                                        std::uint64_t n) {
  std::vector<std::uint64_t> out;
  for_each_held_bytewise(cells, n, [&](std::uint64_t i) { out.push_back(i); });
  return out;
}

// claim_clear with want = 1, the backup sweep's call: the slot it
// claims in [begin, end), or end if it claims none. The claim is undone
// so the pattern survives for the next range.
std::uint64_t first_claim(std::vector<la::sync::TasCell>& cells,
                          std::uint64_t begin, std::uint64_t end) {
  std::uint64_t got = end;
  const std::size_t claimed =
      claim_clear(cells.data(), begin, end, cells.size(), 1,
                  [&](std::uint64_t slot) { got = slot; });
  CHECK(claimed == (got < end ? 1u : 0u));
  if (got < end) cells[got].release();
  return got;
}

// Per-byte reference for first_claim.
std::uint64_t first_clear_byte(const std::vector<la::sync::TasCell>& cells,
                               std::uint64_t begin, std::uint64_t end) {
  while (begin < end && cells[begin].held()) ++begin;
  return begin;
}

// Word vs byte on one concrete occupancy pattern.
void check_parity(std::vector<la::sync::TasCell>& cells) {
  const auto n = static_cast<std::uint64_t>(cells.size());
  CHECK(count_held(cells.data(), n) == count_held_bytewise(cells.data(), n));
  CHECK(collect_word(cells.data(), n) == collect_byte(cells.data(), n));
  // Unaligned starts exercise every word-phase of the same pattern; the
  // midpoint ends clip a claim window inside a word.
  for (std::uint64_t start = 0; start < n && start <= 9; ++start) {
    if (start > 0) {
      CHECK(count_held(cells.data() + start, n - start) ==
            count_held_bytewise(cells.data() + start, n - start));
    }
    for (const std::uint64_t end : {n, (start + n) / 2}) {
      CHECK(first_claim(cells, start, end) ==
            first_clear_byte(cells, start, end));
    }
  }
}

}  // namespace

int main() {
  using namespace la;

  // Word-boundary and tail-remainder sizes, plus a couple of long ones.
  const std::uint64_t sizes[] = {1, 7, 8, 9, 63, 64, 65, 200, 1037};

  // --- deterministic edge patterns -----------------------------------
  for (const auto n : sizes) {
    {
      std::vector<sync::TasCell> all_clear(n);
      CHECK(count_held(all_clear.data(), n) == 0);
      CHECK(collect_word(all_clear.data(), n).empty());
      CHECK(first_claim(all_clear, 0, n) == 0);
      check_parity(all_clear);
    }
    {
      std::vector<sync::TasCell> all_held(n);
      for (auto& cell : all_held) CHECK(cell.try_acquire());
      CHECK(count_held(all_held.data(), n) == n);
      CHECK(first_claim(all_held, 0, n) == n);  // none clear
      const auto names = collect_word(all_held.data(), n);
      CHECK(names.size() == n);
      for (std::uint64_t i = 0; i < names.size(); ++i) {
        CHECK(names[i] == i);  // ascending order
      }
      check_parity(all_held);
    }
    // One held slot at every boundary-interesting index.
    for (const std::uint64_t at : {std::uint64_t{0}, std::uint64_t{7},
                                   std::uint64_t{8}, std::uint64_t{63},
                                   std::uint64_t{64}, n - 1}) {
      if (at >= n) continue;
      std::vector<sync::TasCell> one(n);
      CHECK(one[at].try_acquire());
      CHECK(count_held(one.data(), n) == 1);
      CHECK(collect_word(one.data(), n) ==
            std::vector<std::uint64_t>{at});
      // With slot 0 held the first clear is 1 (== n when n is 1).
      CHECK(first_claim(one, 0, n) == (at == 0 ? 1 : 0));
      check_parity(one);
    }
    // All held except one clear slot — the backup sweep's target shape.
    for (const std::uint64_t clear_at :
         {std::uint64_t{0}, n / 2, n - 1}) {
      std::vector<sync::TasCell> dense(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i != clear_at) CHECK(dense[i].try_acquire());
      }
      CHECK(first_claim(dense, 0, n) == clear_at);
      CHECK(count_held(dense.data(), n) == n - 1);
      check_parity(dense);
    }
  }

  // --- random occupancy patterns -------------------------------------
  rng::MarsagliaXorshift rng(20260727);
  for (const auto n : sizes) {
    for (int round = 0; round < 32; ++round) {
      std::vector<sync::TasCell> cells(n);
      // Densities from near-empty to near-full.
      const std::uint64_t density_pct = rng::bounded(rng, 101);
      for (auto& cell : cells) {
        if (rng::bounded(rng, 100) < density_pct) {
          CHECK(cell.try_acquire());
        }
      }
      check_parity(cells);
    }
  }

  // --- LevelArray collect vs its byte-wise reference -----------------
  {
    core::LevelArrayConfig config;
    config.capacity = 3000;  // odd-sized batches, non-multiple-of-8 tail
    core::LevelArray array(config);
    std::vector<std::uint64_t> held;
    for (int i = 0; i < 1500; ++i) held.push_back(array.get(rng).name);
    // Free a random third so the pattern has interior holes.
    for (std::size_t i = 0; i < held.size();) {
      if (rng::bounded(rng, 3) == 0) {
        array.free(held[i]);
        held[i] = held.back();
        held.pop_back();
      } else {
        ++i;
      }
    }
    std::vector<std::uint64_t> word_names, byte_names;
    CHECK(array.collect(word_names) == array.collect_bytewise(byte_names));
    CHECK(word_names == byte_names);
    CHECK(word_names.size() == held.size());

    // batch_occupancy (word-counted per batch range) sums to the total.
    std::uint64_t sum = 0;
    for (const auto count : array.batch_occupancy()) sum += count;
    CHECK(sum == held.size());
  }

  // --- bitmap bit-domain engine agrees with its own byte-domain twin --
  {
    arrays::BitmapActivityArray bits(1037, 500);
    std::vector<std::uint64_t> names;
    for (int i = 0; i < 400; ++i) names.push_back(bits.get(rng).name);
    std::vector<std::uint64_t> collected;
    CHECK(bits.collect(collected) == names.size());
    std::vector<std::uint64_t> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    CHECK(collected == sorted);
  }

  if (failures == 0) std::printf("test_slot_scan: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
