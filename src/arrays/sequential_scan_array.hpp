// SequentialScan — deterministic first-fit from slot 0, the strawman the
// paper leaves off its charts: at load factor f the scan inspects ~fL
// slots per Get, roughly two orders of magnitude above the randomized
// algorithms. The Rng parameter is accepted (and ignored) so the drivers
// can template over array types. Free, Collect and checkpoint adoption
// are core::SlotArray's; only the Get is this file's.
#pragma once

#include <cstdint>

#include "core/slot_array.hpp"
#include "core/types.hpp"

namespace la::arrays {

class SequentialScanArray : public core::SlotArray {
 public:
  SequentialScanArray(std::uint64_t total_slots, std::uint64_t capacity)
      : SlotArray("SequentialScanArray", total_slots < 2 ? 2 : total_slots,
                  capacity) {}

  template <typename Rng>
  GetResult get(Rng& rng) {
    (void)rng;
    GetResult result;
    for (;;) {
      for (std::uint64_t slot = 0; slot < slots_.size(); ++slot) {
        ++result.probes;
        if (slots_[slot].held()) continue;
        if (slots_[slot].try_acquire()) {
          result.name = slot;
          return result;
        }
      }
    }
  }
};

}  // namespace la::arrays
