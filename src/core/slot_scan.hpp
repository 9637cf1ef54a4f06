// slot_scan — the word-wise scan engine behind every full-array read in
// this library. The paper's layout argument (§1, §5) is that dense
// one-byte TAS cells make Collect a sequential cache-friendly scan; the
// engine cashes that in by reading 8 slots per load instead of one
// std::atomic<uint8_t> at a time, then finding the held/clear bytes with
// branch-free SWAR masks. A word whose slots are all clear (the common
// case away from the occupied prefix) costs one load, one subtract, one
// and, one compare.
//
// Snapshot semantics are the same documented racy snapshot as the
// per-byte relaxed loads these scans replace: each byte is read exactly
// once, a concurrent acquire/release may or may not be visible, and no
// value other than a real cell state can be observed (bytes cannot tear).
// Under ThreadSanitizer the word load is compiled as eight relaxed
// per-byte atomic loads so instrumentation sees the same access pattern
// it can reason about; the plain-memory fast path is for real builds.
//
// Turning the masks into names is the other half of a Collect, and at
// ~45% fill it used to cost far more than the scan: a ctz loop whose
// trip count the branch predictor cannot guess, plus one push_back per
// name. The name emitter replaces both. A word's held mask folds to an
// 8-bit lane mask with one multiply, a constexpr 256-row table gives
// that mask's lane offsets and count, and all 8 candidates are stored
// unconditionally into a stack buffer that advances by the count — no
// branch per name. Full buffers go to the output vector with one range
// insert. collect_held runs it over dense bytes (every byte-slot
// Collect); collect_set_bits runs the same table over each byte of
// packed 64-bit words (the BitmapActivityArray and the daemon client's
// bitmap-window decode).
//
// Also here: count_held, the claimer behind the batch Gets and the
// LevelArray backup sweep (claim_clear), and per-byte reference scans
// (the ablation baseline for collect_cost --scan=byte and the oracle for
// the parity tests). No scan calls __builtin_popcount: the build targets
// baseline x86-64, where that is a libgcc call, not an instruction.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sync/tas_cell.hpp"

#if defined(LEVELARRAY_VERIFY)
// Under the model checker a TasCell is a verify::atom (not 1 byte), so
// the memcpy word load is meaningless — and the bytewise path is the
// point anyway: every held() read becomes a scheduled yield point.
#define LA_SLOT_SCAN_BYTEWISE_WORDS 1
#elif defined(__SANITIZE_THREAD__)
#define LA_SLOT_SCAN_BYTEWISE_WORDS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LA_SLOT_SCAN_BYTEWISE_WORDS 1
#endif
#endif
// The mask arithmetic maps slot i+k to byte lane k counted from the
// least-significant end (ctz >> 3), which is the memcpy'd layout only on
// little-endian hosts; elsewhere assemble the word explicitly so the
// lane order stays right instead of silently collecting wrong indices.
#if !defined(LA_SLOT_SCAN_BYTEWISE_WORDS) &&          \
    defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__) && \
    __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#define LA_SLOT_SCAN_BYTEWISE_WORDS 1
#endif

namespace la::core::slot_scan {

namespace detail {

inline constexpr std::uint64_t kOnes = 0x0101010101010101ull;
inline constexpr std::uint64_t kHigh = 0x8080808080808080ull;

// 8-slot snapshot starting at cells[i] (no alignment requirement).
inline std::uint64_t load_word(const sync::TasCell* cells, std::uint64_t i) {
#if defined(LA_SLOT_SCAN_BYTEWISE_WORDS)
  // TSan cannot model a plain 8-byte load racing with per-byte atomics
  // (and big-endian hosts need explicit lane order); read the same
  // snapshot through the cells so it stays instrumented and ordered.
  std::uint64_t word = 0;
  for (unsigned b = 0; b < 8; ++b) {
    word |= static_cast<std::uint64_t>(cells[i + b].held() ? 1 : 0) << (8 * b);
  }
  return word;
#else
  static_assert(sizeof(sync::TasCell) == 1,
                "word scans require dense 1-byte slots");
  std::uint64_t word;
  std::memcpy(&word, reinterpret_cast<const unsigned char*>(cells) + i,
              sizeof(word));
  return word;
#endif
}

// 0x80 at every nonzero byte of w, 0 elsewhere. This is the borrow-free
// SWAR form: every byte of (w | kHigh) is >= 0x80, so subtracting kOnes
// never borrows across byte lanes and each lane is classified
// independently — unlike the classic (w - kOnes) & ~w & kHigh zero test,
// which is only exact up to the first zero byte. Per lane: the subtract
// leaves the high bit set iff the low 7 bits are nonzero, and w's own
// high bit covers the 0x80 case.
inline constexpr std::uint64_t held_mask(std::uint64_t w) {
  return (w | ((w | kHigh) - kOnes)) & kHigh;
}

inline constexpr std::uint64_t clear_mask(std::uint64_t w) {
  return held_mask(w) ^ kHigh;
}

// A held_mask (0x80 per held lane) folded to 8 bits, lane k -> bit k.
// After >> 7 each lane byte is 0 or 1; the multiply adds lane k's bit,
// shifted by the constant's byte 7 - k, into bit 56 + k, and no two
// partial products share a bit, so nothing carries into the top byte.
inline constexpr unsigned lane_bits(std::uint64_t mask) {
  return static_cast<unsigned>(((mask >> 7) * 0x0102040810204080ull) >> 56);
}

// How many lanes a held_mask marks: the multiply by kOnes sums the 0/1
// lane bytes into the top byte (at most 8, so it cannot overflow).
inline constexpr unsigned lane_count(std::uint64_t mask) {
  return static_cast<unsigned>(((mask >> 7) * kOnes) >> 56);
}

// The emitter table. Row m holds the set-bit positions of m, ascending,
// padded with zeros to 8, and count[m] how many there are. The offsets
// are stored as 64-bit words, a cache line per row (16 KB in all), so
// adding a base to a row is four 2-lane vector adds and stores, not
// eight byte loads, adds and stores.
struct alignas(64) LaneRow {
  std::uint64_t lane[8];
};

struct LaneTable {
  LaneRow rows[256];
  std::uint8_t count[256];
};

inline constexpr LaneTable make_lane_table() {
  LaneTable table{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned count = 0;
    for (unsigned k = 0; k < 8; ++k) {
      if ((m >> k) & 1u) table.rows[m].lane[count++] = k;
    }
    table.count[m] = static_cast<std::uint8_t>(count);
  }
  return table;
}

inline constexpr LaneTable kLaneTable = make_lane_table();

static_assert(lane_bits(kHigh) == 0xFF && lane_bits(0x80) == 0x01 &&
              lane_bits(0x8000000000000000ull) == 0x80);
static_assert(lane_count(kHigh) == 8 && lane_count(0x8000000000000080ull) == 2);
static_assert(kLaneTable.count[0xA5] == 4 &&
              kLaneTable.rows[0xA5].lane[3] == 7);

// The emitter's stack buffer, in names. emit8 may write 8 past `fill`,
// so the loops spill once fill passes kEmitBuffer - 8.
inline constexpr std::size_t kEmitBuffer = 512;

// Stores at + k for all 8 candidates of row `lanes` at buf[fill..fill+8)
// and returns fill advanced by the row's count. Every store happens
// whatever the pattern, so the loop has no branch per name; the slots
// past the count are overwritten by the next group.
inline std::size_t emit8(std::uint64_t* buf, std::size_t fill,
                         std::uint64_t at, unsigned lanes) {
  const LaneRow& row = kLaneTable.rows[lanes];
  for (unsigned k = 0; k < 8; ++k) buf[fill + k] = at + row.lane[k];
  return fill + kLaneTable.count[lanes];
}

}  // namespace detail

// --- per-byte reference engine ------------------------------------------

inline std::uint64_t count_held_bytewise(const sync::TasCell* cells,
                                         std::uint64_t n) {
  std::uint64_t count = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (cells[i].held()) ++count;
  }
  return count;
}

template <typename Fn>
void for_each_held_bytewise(const sync::TasCell* cells, std::uint64_t n,
                            Fn&& fn) {
  for (std::uint64_t i = 0; i < n; ++i) {
    if (cells[i].held()) fn(i);
  }
}

// --- word engine --------------------------------------------------------

inline std::uint64_t count_held(const sync::TasCell* cells, std::uint64_t n) {
  std::uint64_t count = 0;
  std::uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    count += detail::lane_count(detail::held_mask(detail::load_word(cells, i)));
  }
  for (; i < n; ++i) {
    if (cells[i].held()) ++count;
  }
  return count;
}

// Appends the index of every held slot in cells[0..n) to out, ascending,
// and returns how many it appended.
inline std::size_t collect_held(const sync::TasCell* cells, std::uint64_t n,
                                std::vector<std::uint64_t>& out) {
  const std::size_t before = out.size();
  std::uint64_t buf[detail::kEmitBuffer];
  std::size_t fill = 0;
  std::uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    fill = detail::emit8(
        buf, fill, i,
        detail::lane_bits(detail::held_mask(detail::load_word(cells, i))));
    if (fill > detail::kEmitBuffer - 8) {
      out.insert(out.end(), buf, buf + fill);
      fill = 0;
    }
  }
  unsigned tail = 0;
  for (unsigned k = 0; i + k < n; ++k) {
    tail |= (cells[i + k].held() ? 1u : 0u) << k;
  }
  fill = detail::emit8(buf, fill, i, tail);
  out.insert(out.end(), buf, buf + fill);
  return out.size() - before;
}

// --- multi-claim engine -------------------------------------------------

// Snapshot held-mask of the 8 slots at cells[base..base+8): 0x80 at each
// held lane (lane = slot - base). Caller guarantees base + 8 <= n. The
// batch-free paths use it to verify a whole run of same-word names with
// one load instead of one held() read per name.
inline std::uint64_t held_lanes(const sync::TasCell* cells,
                                std::uint64_t base) {
  return detail::held_mask(detail::load_word(cells, base));
}

// Claim up to `want` clear slots in [begin, end), invoking fn(slot) per
// claimed slot and returning how many were claimed. One SWAR load yields
// a word's whole clear-mask and the claimer TASes several bits out of it
// before moving on — the amortization behind the batch Get paths, where
// the per-byte engines would re-walk the range per name. `n` bounds the
// cells array itself (word loads stop short of it; the tail goes
// per-byte), and lanes past `end` are masked off so a window clipped at
// a batch boundary never claims a neighbor's slot. A lane that flips
// held between the snapshot and the TAS is simply skipped: the mask is a
// hint, the TAS is the claim. With want = 1 it is a word scan to the
// first clear slot it wins — the LevelArray backup sweep.
template <typename Fn>
std::size_t claim_clear(sync::TasCell* cells, std::uint64_t begin,
                        std::uint64_t end, std::uint64_t n, std::size_t want,
                        Fn&& fn) {
  std::size_t claimed = 0;
  std::uint64_t i = begin;
  for (; i + 8 <= n && i < end && claimed < want; i += 8) {
    std::uint64_t mask = detail::clear_mask(detail::load_word(cells, i));
    if (end - i < 8) {
      mask &= (std::uint64_t{1} << (8 * (end - i))) - 1;
    }
    while (mask != 0 && claimed < want) {
      const std::uint64_t slot =
          i + (static_cast<std::uint64_t>(__builtin_ctzll(mask)) >> 3);
      mask &= mask - 1;
      if (cells[slot].try_acquire()) {
        fn(slot);
        ++claimed;
      }
    }
  }
  for (; i < end && claimed < want; ++i) {
    if (cells[i].try_acquire()) {
      fn(i);
      ++claimed;
    }
  }
  return claimed;
}

// --- bit-domain sibling -------------------------------------------------

// collect_held for the bit-per-slot layout: appends base + 64 * w + b for
// every set bit b of word_at(w), w in [0, word_count), ascending, and
// returns how many it appended. Each byte of a word is one table row.
// The caller guarantees bits past its logical slot count are clear (the
// BitmapActivityArray invariant; the daemon's windows end at a word), so
// no bound beyond the word count is needed. word_at reads the caller's
// words however they are stored (relaxed atomic loads, plain memory).
template <typename WordAt>
std::size_t collect_set_bits(std::uint64_t word_count, std::uint64_t base,
                             WordAt&& word_at,
                             std::vector<std::uint64_t>& out) {
  const std::size_t before = out.size();
  std::uint64_t buf[detail::kEmitBuffer];
  std::size_t fill = 0;
  for (std::uint64_t w = 0; w < word_count; ++w) {
    const std::uint64_t bits = word_at(w);
    const std::uint64_t at = base + 64 * w;
    for (unsigned b = 0; b < 64; b += 8) {
      fill = detail::emit8(buf, fill, at + b,
                           static_cast<unsigned>((bits >> b) & 0xFF));
    }
    // A word adds at most 64 names, so spill with a word's room left.
    if (fill > detail::kEmitBuffer - 64 - 8) {
      out.insert(out.end(), buf, buf + fill);
      fill = 0;
    }
  }
  out.insert(out.end(), buf, buf + fill);
  return out.size() - before;
}

}  // namespace la::core::slot_scan
