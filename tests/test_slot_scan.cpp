// Scan-engine parity: the word engine (8 slots per load, SWAR masks)
// must agree with the per-byte reference on every occupancy pattern —
// in particular around word boundaries and tail remainders, where SWAR
// bugs live (the borrow-propagating zero-byte mask this suite was
// written against misclassified bytes above the first clear slot). The
// name emitter is checked the same way, in both domains, at every length
// up to 1100 — across its 512-name buffer boundary and every tail length
// — and appending after existing contents.
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
using la::core::slot_scan::collect_held;
using la::core::slot_scan::collect_set_bits;
using la::core::slot_scan::count_held_bytewise;
using la::core::slot_scan::for_each_held_bytewise;

std::vector<std::uint64_t> collect_word(const la::sync::TasCell* cells,
                                        std::uint64_t n) {
  std::vector<std::uint64_t> out;
  CHECK(collect_held(cells, n, out) == out.size());
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

// Byte-domain emitter against the per-byte reference on cells[start..n),
// once into an empty vector and once after a sentinel prefix, which must
// survive untouched while the return value counts only what was appended.
void check_emitter(const std::vector<la::sync::TasCell>& cells,
                   std::uint64_t start) {
  const auto n = static_cast<std::uint64_t>(cells.size());
  if (start > n) return;
  const la::sync::TasCell* from = cells.data() + start;
  const auto expected = collect_byte(from, n - start);
  CHECK(collect_word(from, n - start) == expected);
  const std::vector<std::uint64_t> prefix = {~0ull, 42, ~0ull};
  std::vector<std::uint64_t> out = prefix;
  CHECK(collect_held(from, n - start, out) == expected.size());
  CHECK(std::equal(prefix.begin(), prefix.end(), out.begin()));
  CHECK(std::equal(expected.begin(), expected.end(),
                   out.begin() + static_cast<std::ptrdiff_t>(prefix.size()),
                   out.end()));
}

// Per-bit reference for collect_set_bits.
std::vector<std::uint64_t> set_bits_reference(
    const std::vector<std::uint64_t>& words, std::uint64_t base) {
  std::vector<std::uint64_t> out;
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (unsigned b = 0; b < 64; ++b) {
      if ((words[w] >> b) & 1u) out.push_back(base + 64 * w + b);
    }
  }
  return out;
}

// Bit-domain emitter against the per-bit reference, at base 0 and at a
// daemon-window base, into an empty vector and after a prefix.
void check_bit_emitter(const std::vector<std::uint64_t>& words) {
  const auto word_at = [&](std::uint64_t w) { return words[w]; };
  for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{8192}}) {
    const auto expected = set_bits_reference(words, base);
    std::vector<std::uint64_t> out;
    CHECK(collect_set_bits(words.size(), base, word_at, out) ==
          expected.size());
    CHECK(out == expected);
    std::vector<std::uint64_t> appended = {7, 7};
    CHECK(collect_set_bits(words.size(), base, word_at, appended) ==
          expected.size());
    CHECK(appended.size() == expected.size() + 2 && appended[0] == 7 &&
          appended[1] == 7);
    CHECK(std::equal(expected.begin(), expected.end(),
                     appended.begin() + 2, appended.end()));
  }
}

// Every length 0..1100 (crossing the 512-name buffer at ±1 and every
// non-multiple-of-8 tail), all-clear, all-held and random fills, in both
// domains; the byte domain from every start 0..9 as well.
void check_emitter_lengths(la::rng::MarsagliaXorshift& rng) {
  for (std::uint64_t n = 0; n <= 1100; ++n) {
    std::vector<la::sync::TasCell> clear(n), held(n), random(n);
    std::vector<std::uint64_t> clear_bits((n + 63) / 64), held_bits(clear_bits),
        random_bits(clear_bits);
    const std::uint64_t density_pct = la::rng::bounded(rng, 101);
    for (std::uint64_t i = 0; i < n; ++i) {
      CHECK(held[i].try_acquire());
      held_bits[i >> 6] |= std::uint64_t{1} << (i & 63);
      if (la::rng::bounded(rng, 100) < density_pct) {
        CHECK(random[i].try_acquire());
        random_bits[i >> 6] |= std::uint64_t{1} << (i & 63);
      }
    }
    CHECK(collect_word(clear.data(), n).empty());
    CHECK(collect_word(held.data(), n).size() == n);
    for (const auto* cells : {&clear, &held, &random}) {
      for (std::uint64_t start = 0; start <= 9; ++start) {
        check_emitter(*cells, start);
      }
    }
    for (const auto* bits : {&clear_bits, &held_bits, &random_bits}) {
      check_bit_emitter(*bits);
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

  // --- the name emitter at every length -----------------------------
  check_emitter_lengths(rng);

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
