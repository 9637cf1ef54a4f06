// LinearProbing — the paper's second comparison algorithm: one random
// start, then a sequential scan. Cache-friendly per probe, but occupied
// runs cluster (classic linear-probing pile-up), and under arrival bursts
// all losers chase the same cluster edge — the transient burst_contention
// isolates.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/slot_scan.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"
#include "sync/tas_cell.hpp"

namespace la::arrays {

class LinearProbingArray {
 public:
  LinearProbingArray(std::uint64_t total_slots, std::uint64_t capacity)
      : capacity_(capacity), slots_(total_slots < 2 ? 2 : total_slots) {}

  LinearProbingArray(const LinearProbingArray&) = delete;
  LinearProbingArray& operator=(const LinearProbingArray&) = delete;

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

  void free(std::uint64_t name) {
    if (name >= slots_.size()) {
      throw std::out_of_range("LinearProbingArray::free: name out of range");
    }
    if (!slots_[name].held()) {
      throw std::logic_error(
          "LinearProbingArray::free: slot not held (double free?)");
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
      throw std::out_of_range(
          "LinearProbingArray::adopt_held: name out of range");
    }
    if (!slots_[name].try_acquire()) {
      throw std::logic_error(
          "LinearProbingArray::adopt_held: slot already held (duplicate name)");
    }
  }

 private:
  std::uint64_t capacity_;
  std::vector<sync::TasCell> slots_;
};

}  // namespace la::arrays
