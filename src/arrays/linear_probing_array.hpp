// LinearProbing — the paper's second comparison algorithm: one random
// start, then a sequential scan. Cache-friendly per probe, but occupied
// runs cluster (classic linear-probing pile-up), and under arrival bursts
// all losers chase the same cluster edge — the transient burst_contention
// isolates. Free, Collect and checkpoint adoption are core::SlotArray's;
// only the Get is this file's.
#pragma once

#include <cstdint>

#include "core/slot_array.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"

namespace la::arrays {

class LinearProbingArray : public core::SlotArray {
 public:
  LinearProbingArray(std::uint64_t total_slots, std::uint64_t capacity)
      : SlotArray("LinearProbingArray", total_slots < 2 ? 2 : total_slots,
                  capacity) {}

  template <typename Rng>
  GetResult get(Rng& rng) {
    GetResult result;
    for (;;) {
      const std::uint64_t start = rng::bounded(rng, slots_.size());
      for (std::uint64_t i = 0; i < slots_.size(); ++i) {
        std::uint64_t slot = start + i;
        if (slot >= slots_.size()) slot -= slots_.size();
        ++result.probes;
        if (slots_[slot].try_acquire()) {
          result.name = slot;
          return result;
        }
      }
      // Whole array momentarily held: re-randomize the start and retry.
    }
  }
};

}  // namespace la::arrays
