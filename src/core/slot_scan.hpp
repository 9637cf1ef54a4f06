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
// Two scans over a dense TasCell range (count_held, for_each_held) and
// the claimer behind the batch Gets and the LevelArray backup sweep
// (claim_clear), plus per-byte reference scans (the ablation baseline for
// collect_cost --scan=byte and the oracle for the parity tests), plus the
// bit-domain sibling the BitmapActivityArray's packed-word layout scans
// with.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

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
    count += static_cast<std::uint64_t>(
        __builtin_popcountll(detail::held_mask(detail::load_word(cells, i))));
  }
  for (; i < n; ++i) {
    if (cells[i].held()) ++count;
  }
  return count;
}

// Calls fn(index) for every held slot, in ascending index order.
template <typename Fn>
void for_each_held(const sync::TasCell* cells, std::uint64_t n, Fn&& fn) {
  std::uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t mask = detail::held_mask(detail::load_word(cells, i));
    while (mask != 0) {
      // Each lane's marker is its byte's 0x80 bit: bit 7 for slot i,
      // bit 15 for slot i+1, ... so ctz >> 3 recovers the byte offset.
      fn(i + (static_cast<std::uint64_t>(__builtin_ctzll(mask)) >> 3));
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    if (cells[i].held()) fn(i);
  }
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

// Same contract as for_each_held for the bit-per-slot layout: fn(index)
// for every set bit across `words`, ascending. The caller guarantees bits
// past its logical slot count are never set (the BitmapActivityArray
// invariant), so no bound beyond the word count is needed.
template <typename Fn>
void for_each_set_bit(const la::detail::atomic<std::uint64_t>* words,
                      std::uint64_t word_count, Fn&& fn) {
  for (std::uint64_t w = 0; w < word_count; ++w) {
    std::uint64_t bits = words[w].load(std::memory_order_relaxed);
    while (bits != 0) {
      fn(w * 64 + static_cast<std::uint64_t>(__builtin_ctzll(bits)));
      bits &= bits - 1;
    }
  }
}

}  // namespace la::core::slot_scan
