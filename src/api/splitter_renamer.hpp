// SplitterRenamer — the long-lived facade that lets the one-shot
// Moir-Anderson SplitterGrid run under every harness in this library.
//
// First acquisition of a name walks the grid with a fresh process id (the
// grid's own one-shot protocol, untouched). Free releases the name's
// activity cell and pushes it onto a tagged Treiber free-list; later Gets
// pop the list and re-acquire in O(1). This is the standard
// one-shot -> long-lived recycling wrapper: at most `capacity` names are
// ever walked for (the high-water mark of concurrent holds), so the
// grid's <= n one-shot-processes precondition is preserved, while churn
// workloads see a steady-state Get of one probe. The structure keeps the
// splitter's signature costs — Theta(n^2) memory, O(n) worst-case walk —
// which is exactly what the comparison benches are after. The activity
// cells are a core::SlotArray with one slot per name: its checked release
// is Free, and its word scan is Collect. Slot 0 is never issued, so the
// release rejects name 0 and the scan never reports it.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "arrays/splitter_grid.hpp"
#include "core/slot_array.hpp"
#include "core/types.hpp"

namespace la::api {

class SplitterRenamer {
 public:
  // The triangle is Theta(n^2) cells; past this bound a sweep would die
  // in std::bad_alloc / OOM, so refuse loudly instead (8192 keeps the
  // structure under ~0.5 GB).
  static constexpr std::uint64_t kMaxCapacity = 8192;

  explicit SplitterRenamer(std::uint64_t capacity)
      : grid_(checked_capacity(capacity)),
        // Grid names are 1..namespace_size, overflow names continue for
        // another contention_bound entries; slot 0 is never issued.
        active_("SplitterRenamer",
                grid_.namespace_size() + grid_.contention_bound() + 1,
                grid_.contention_bound()),
        next_(active_.total_slots()) {
    for (auto& n : next_) n.store(kNull, std::memory_order_relaxed);
  }

  SplitterRenamer(const SplitterRenamer&) = delete;
  SplitterRenamer& operator=(const SplitterRenamer&) = delete;

  template <typename Rng>
  GetResult get(Rng& rng) {
    (void)rng;  // the MA walk is deterministic; Rng is API shape only
    const std::uint32_t recycled = pop();
    if (recycled != kNull) {
      GetResult result;
      result.probes = 1;
      result.name = recycled;
      if (!active_[recycled].try_acquire()) {
        // A popped name was released before it was pushed; only list
        // corruption can make this fire.
        throw std::logic_error("SplitterRenamer: recycled name still held");
      }
      return result;
    }
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    const GetResult result = grid_.get(id);
    if (!active_[result.name].try_acquire()) {
      // The grid's one-shot protocol guarantees distinct names per
      // process id; a name that is already active means the grid walk
      // handed out a duplicate, and ignoring it would silently corrupt
      // occupancy (two holders, one cell).
      throw std::logic_error("SplitterRenamer: grid issued a held name");
    }
    return result;
  }

  void free(std::uint64_t name) {
    active_.free(name);
    push(static_cast<std::uint32_t>(name));
  }

  std::size_t collect(std::vector<std::uint64_t>& out) const {
    return active_.collect(out);
  }

  std::uint64_t capacity() const { return active_.capacity(); }
  std::uint64_t total_slots() const { return active_.total_slots(); }
  const arrays::SplitterGrid& grid() const { return grid_; }

 private:
  static constexpr std::uint32_t kNull = 0xFFFFFFFFu;

  static std::uint32_t checked_capacity(std::uint64_t capacity) {
    if (capacity > kMaxCapacity) {
      throw std::invalid_argument(
          "SplitterRenamer: capacity " + std::to_string(capacity) +
          " exceeds the Theta(n^2)-memory cap of " +
          std::to_string(kMaxCapacity) +
          " (shrink the workload, e.g. --mult, or drop 'splitter')");
    }
    return static_cast<std::uint32_t>(capacity < 1 ? 1 : capacity);
  }

  // Tagged Treiber stack of released names: the 32-bit generation tag in
  // the head's upper half makes the pop CAS ABA-safe.
  static constexpr std::uint64_t pack(std::uint64_t tag, std::uint32_t idx) {
    return (tag << 32) | idx;
  }

  void push(std::uint32_t name) {
    std::uint64_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      next_[name].store(static_cast<std::uint32_t>(head),
                        std::memory_order_relaxed);
      const std::uint64_t next_head = pack((head >> 32) + 1, name);
      if (head_.compare_exchange_weak(head, next_head,
                                      std::memory_order_release,
                                      std::memory_order_acquire)) {
        return;
      }
    }
  }

  std::uint32_t pop() {
    std::uint64_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      const auto idx = static_cast<std::uint32_t>(head);
      if (idx == kNull) return kNull;
      const std::uint32_t after = next_[idx].load(std::memory_order_relaxed);
      const std::uint64_t next_head = pack((head >> 32) + 1, after);
      if (head_.compare_exchange_weak(head, next_head,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return idx;
      }
    }
  }

  arrays::SplitterGrid grid_;
  core::SlotArray active_;
  std::vector<std::atomic<std::uint32_t>> next_;
  std::atomic<std::uint64_t> head_{pack(0, kNull)};
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace la::api
