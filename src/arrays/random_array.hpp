// Random — the paper's first comparison algorithm: uniformly random
// probes over the whole array until a TAS wins. Expected O(1) probes at
// constant load factor, but the worst case has a long tail under
// contention (no batch structure to cap the retries). Free, Collect and
// checkpoint adoption are core::SlotArray's; only the Get is this file's.
#pragma once

#include <cstdint>

#include "core/slot_array.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"

namespace la::arrays {

class RandomArray : public core::SlotArray {
 public:
  RandomArray(std::uint64_t total_slots, std::uint64_t capacity)
      : SlotArray("RandomArray", total_slots < 2 ? 2 : total_slots,
                  capacity) {}

  template <typename Rng>
  GetResult get(Rng& rng) {
    GetResult result;
    for (;;) {
      const std::uint64_t slot = rng::bounded(rng, slots_.size());
      ++result.probes;
      if (slots_[slot].try_acquire()) {
        result.name = slot;
        return result;
      }
    }
  }
};

}  // namespace la::arrays
