// Random — the paper's first comparison algorithm: uniformly random
// probes over the whole array until a TAS wins. Expected O(1) probes at
// constant load factor, but the worst case has a long tail under
// contention (no batch structure to cap the retries).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/slot_scan.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"
#include "sync/tas_cell.hpp"

namespace la::arrays {

class RandomArray {
 public:
  RandomArray(std::uint64_t total_slots, std::uint64_t capacity)
      : capacity_(capacity), slots_(total_slots < 2 ? 2 : total_slots) {}

  RandomArray(const RandomArray&) = delete;
  RandomArray& operator=(const RandomArray&) = delete;

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

  void free(std::uint64_t name) {
    if (name >= slots_.size()) {
      throw std::out_of_range("RandomArray::free: name out of range");
    }
    if (!slots_[name].held()) {
      throw std::logic_error(
          "RandomArray::free: slot not held (double free?)");
    }
    slots_[name].release();
  }

  std::size_t collect(std::vector<std::uint64_t>& out) const {
    std::size_t found = 0;
    core::slot_scan::for_each_held(slots_.data(), slots_.size(),
                                   [&](std::uint64_t slot) {
                                     out.push_back(slot);
                                     ++found;
                                   });
    return found;
  }

  std::uint64_t total_slots() const { return slots_.size(); }
  std::uint64_t capacity() const { return capacity_; }

  // Checkpoint adoption (src/api/snapshot.hpp): re-seed one held slot on
  // restore, keeping the name's numeric identity.
  void adopt_held(std::uint64_t name) {
    if (name >= slots_.size()) {
      throw std::out_of_range("RandomArray::adopt_held: name out of range");
    }
    if (!slots_[name].try_acquire()) {
      throw std::logic_error(
          "RandomArray::adopt_held: slot already held (duplicate name)");
    }
  }

 private:
  std::uint64_t capacity_;
  std::vector<sync::TasCell> slots_;
};

}  // namespace la::arrays
