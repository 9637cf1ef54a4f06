// The LevelArray of Alistarh, Kopinsky, Matveev and Shavit (ICDCS'14):
// long-lived renaming over an array of L = 2n test-and-set slots split
// into doubly-exponentially shrinking batches. Get performs c_i random
// probes in batch i before moving on; names are slot indices; Free is a
// single release. If every batch's probes fail (rare by construction) a
// backup sweep guarantees termination, since at most n of the L = 2n
// slots can be held: it word-scans batch 0 from a uniformly random slot,
// wraps within batch 0, and only then reads the deeper batches. Starting
// anywhere but slot 0 matters at high load — a first-fit sweep packs the
// front of batch 0 solid and every later backup rescans that prefix.
//
// The structure is "self-healing": started from any bad occupancy
// distribution, steady-state churn drains overcrowded deep batches back
// toward the balanced state (paper Fig. 3, reproduced by fig3_healing).
//
// The slot array itself — checked Free, Collect and its per-byte
// reference, checkpoint adoption — is core::SlotArray; this class adds
// the batch geometry and the Get walks. Every shared word is a
// sync::TasCell read through core::slot_scan, both on the
// la::detail::atomic seam (sync/atomic_select.hpp), so under
// -DLEVELARRAY_VERIFY the probe/claim/release/collect protocol runs under
// the exhaustive interleaving checker in src/verify/ unchanged.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/geometry.hpp"
#include "core/slot_array.hpp"
#include "core/slot_scan.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"

namespace la::core {

struct LevelArrayConfig {
  // Contention bound n: the maximum number of concurrently held names.
  std::uint64_t capacity = 1024;
  // L = size_multiplier * capacity (paper: 2.0; §6 sweeps 2N..4N).
  double size_multiplier = 2.0;
  // c_i, probes per batch; the last entry repeats for deeper batches.
  // The paper's implementation uses {1}; its analysis assumes c_i >= 16.
  std::vector<std::uint8_t> probes_per_batch = {1};
};

class LevelArray : public SlotArray {
 public:
  explicit LevelArray(const LevelArrayConfig& config)
      : SlotArray("LevelArray",
                  scaled_slots(config.size_multiplier, config.capacity),
                  config.capacity),
        config_(config),
        geometry_(total_slots()) {}

  template <typename Rng>
  GetResult get(Rng& rng) {
    GetResult result;
    for (;;) {
      for (std::uint32_t k = 0; k < geometry_.num_batches(); ++k) {
        const Batch& batch = geometry_.batch(k);
        result.deepest_batch = k;
        const std::uint8_t c = probes_for(k);
        for (std::uint8_t t = 0; t < c; ++t) {
          const std::uint64_t slot =
              batch.offset() + rng::bounded(rng, batch.size());
          ++result.probes;
          if (slots_[slot].try_acquire()) {
            result.name = slot;
            return result;
          }
        }
      }
      // Backup: with at most n = capacity names held out of L >= 2n
      // slots the sweep always finds one; the loop re-enters the
      // randomized phase only under transient races.
      result.used_backup = true;
      if (backup_sweep(rng, 1, [&](std::uint64_t slot) {
            result.name = slot;
          }) != 0) {
        return result;
      }
    }
  }

  // Batch claim: the same shallow-to-deep batch walk as get(), but each
  // random probe claims from the whole word around the probed slot — one
  // SWAR load yields the word's clear-mask and the claimer TASes several
  // bits out of it before drawing again, instead of restarting the probe
  // walk per name. Total like get(): always grants k (precondition:
  // holds + k <= capacity). Per-result probes partition the total draw
  // count (names claimed from one window beyond the first cost 1), so
  // the paper's trials accounting still sums across a batch.
  template <typename Rng>
  std::size_t get_batch(Rng& rng, GetResult* out, std::size_t k) {
    std::size_t granted = 0;
    std::uint32_t draws = 0;  // probe draws since the last grant
    const auto emit = [&](std::uint64_t slot, std::uint32_t batch_index,
                          bool backup) {
      GetResult r;
      r.name = slot;
      r.probes = draws == 0 ? 1 : draws;
      r.deepest_batch = batch_index;
      r.used_backup = backup;
      out[granted++] = r;
      draws = 0;
    };
    while (granted < k) {
      const std::size_t before = granted;
      for (std::uint32_t b = 0;
           b < geometry_.num_batches() && granted < k; ++b) {
        const Batch& batch = geometry_.batch(b);
        const std::uint8_t c = probes_for(b);
        for (std::uint8_t t = 0; t < c && granted < k; ++t) {
          const std::uint64_t slot =
              batch.offset() + rng::bounded(rng, batch.size());
          ++draws;
          const std::uint64_t window_end =
              slot + 8 < batch.end() ? slot + 8 : batch.end();
          slot_scan::claim_clear(
              slots_.data(), slot, window_end, slots_.size(), k - granted,
              [&](std::uint64_t claimed) { emit(claimed, b, false); });
        }
      }
      if (granted >= k) break;
      // A walk that claimed anything restarts with a fresh probe budget
      // — each claimed window gets the same walk get() gives one name,
      // instead of one walk's budget being split across the whole batch
      // (which would shunt large batches into the Theta(L) backup).
      if (granted > before) continue;
      // Backup, batch form: a full walk came up empty, so one sweep
      // claims the remainder (at most n of L >= 2n slots are held, so it
      // can only come up short under transient races — then the loop
      // re-randomizes).
      ++draws;
      backup_sweep(rng, k - granted, [&](std::uint64_t claimed) {
        emit(claimed, geometry_.num_batches() - 1, true);
      });
    }
    return k;
  }

  // Batch release. Names that landed in the same 8-slot word (the common
  // shape out of get_batch's window claims) are verified against one
  // held-lane snapshot instead of one held() read each; lanes are
  // crossed off the snapshot as they release, so a duplicate name inside
  // the batch fails as loudly as a double free. Throws on the first bad
  // name — earlier names in the batch are already freed by then (the
  // api batch contract).
  void free_batch(const std::uint64_t* names, std::size_t k) {
    std::size_t i = 0;
    while (i < k) {
      const std::uint64_t base = names[i] & ~std::uint64_t{7};
      std::size_t j = i + 1;
      while (j < k && names[j] < slots_.size() &&
             (names[j] & ~std::uint64_t{7}) == base) {
        ++j;
      }
      if (j - i > 1 && base + 8 <= slots_.size()) {
        std::uint64_t lanes = slot_scan::held_lanes(slots_.data(), base);
        for (std::size_t r = i; r < j; ++r) {
          const std::uint64_t lane_bit = std::uint64_t{0x80}
                                         << (8 * (names[r] - base));
          if ((lanes & lane_bit) == 0) {
            fail_state("free_batch", "slot not held (double free?)");
          }
          lanes ^= lane_bit;
          slots_[names[r]].release();
        }
      } else {
        for (std::size_t r = i; r < j; ++r) free(names[r], "free_batch");
      }
      i = j;
    }
  }

  const Geometry& geometry() const { return geometry_; }
  const LevelArrayConfig& config() const { return config_; }

  std::uint8_t probes_for(std::uint32_t batch) const {
    const auto& pv = config_.probes_per_batch;
    if (pv.empty()) return 1;
    const std::size_t i =
        batch < pv.size() ? batch : pv.size() - 1;
    return pv[i] == 0 ? 1 : pv[i];
  }

  // Occupied-slot count per batch (racy snapshot under concurrency),
  // word-counted per batch range.
  std::vector<std::uint64_t> batch_occupancy() const {
    std::vector<std::uint64_t> occupancy(geometry_.num_batches(), 0);
    for (std::uint32_t k = 0; k < geometry_.num_batches(); ++k) {
      const Batch& batch = geometry_.batch(k);
      occupancy[k] =
          slot_scan::count_held(slots_.data() + batch.offset(), batch.size());
    }
    return occupancy;
  }

  // Force `count` slots of the given batch into the held state and return
  // their names — how fig3_healing constructs the paper's bad initial
  // distribution. Returns fewer names if the batch runs out of free slots.
  std::vector<std::uint64_t> seed_batch_occupancy(std::uint32_t batch_index,
                                                  std::uint64_t count) {
    const Batch& batch = geometry_.batch(batch_index);
    std::vector<std::uint64_t> names;
    names.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t s = batch.offset();
         s < batch.end() && names.size() < count; ++s) {
      if (slots_[s].try_acquire()) names.push_back(s);
    }
    return names;
  }

 private:
  // The backup sweep behind get() and get_batch(): claims up to `want`
  // clear slots, calling fn(slot) per claim, and returns how many. It
  // word-scans batch 0 from a uniformly random start to its end, wraps
  // to scan [batch 0 start, start), and reads the deeper batches only if
  // batch 0 came up short — which needs batch 0 full, possible only when
  // size_multiplier is so close to 1 that 3L/4 < n. Backups stay in
  // batch 0 so they do not crowd the deep batches the walk relies on.
  template <typename Rng, typename Fn>
  std::size_t backup_sweep(Rng& rng, std::size_t want, Fn&& fn) {
    const Batch& first = geometry_.batch(0);
    const std::uint64_t start =
        first.offset() + rng::bounded(rng, first.size());
    const std::uint64_t ranges[3][2] = {{start, first.end()},
                                        {first.offset(), start},
                                        {first.end(), slots_.size()}};
    std::size_t claimed = 0;
    for (const auto& range : ranges) {
      if (claimed == want) break;
      claimed += slot_scan::claim_clear(slots_.data(), range[0], range[1],
                                        slots_.size(), want - claimed, fn);
    }
    return claimed;
  }

  LevelArrayConfig config_;
  Geometry geometry_;
};

}  // namespace la::core
