// IdIndexedArray — the strawman of the paper's footnote 1: index the
// activity array directly by thread id. Get is a single TAS (trivially
// optimal), but the array — and therefore every Collect — scales with the
// size of the id space N rather than the contention bound n. idspace_cost
// measures exactly that gap. Free, Collect (Theta(N): the whole id space,
// which is where the 8-slots-per-load engine matters most) and checkpoint
// adoption are core::SlotArray's; registering an id is an adoption.
#pragma once

#include <cstdint>

#include "core/slot_array.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"

namespace la::arrays {

class IdIndexedArray : public core::SlotArray {
 public:
  // `capacity` is the contention bound the harnesses drive against; it is
  // advisory (the id space is the real limit) and defaults to the id
  // space itself.
  explicit IdIndexedArray(std::uint64_t id_space, std::uint64_t capacity = 0)
      : SlotArray("IdIndexedArray", id_space < 1 ? 1 : id_space,
                  capacity != 0 ? capacity : (id_space < 1 ? 1 : id_space)) {}

  // Register under a known id: out_of_range past the id space,
  // logic_error if the id is already registered.
  GetResult get_by_id(std::uint64_t id) {
    adopt_held(id, "get_by_id");
    return GetResult{id, /*probes=*/1};
  }

  // Renamer-shaped Get for the generic harnesses: an anonymous arrival
  // draws random ids until one is unclaimed. With the id space sized well
  // above the contention bound (footnote 1's regime) this is ~1 probe —
  // the trade the structure embodies is cheap Get against Theta(N)
  // Collect and memory.
  template <typename Rng>
  GetResult get(Rng& rng) {
    GetResult result;
    for (;;) {
      const std::uint64_t id = rng::bounded(rng, slots_.size());
      ++result.probes;
      if (slots_[id].try_acquire()) {
        result.name = id;
        return result;
      }
    }
  }
};

}  // namespace la::arrays
