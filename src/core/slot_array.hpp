// SlotArray — the one object every byte-slot structure in this library
// is (paper §1, §5): a dense array of one-byte test-and-set slots plus
// the contention bound n it is sized for. A name is a slot index,
// Deregister is one release, and Collect is one word scan over the dense
// array. LevelArray and the comparison arrays derive from it and add
// only their Get (how they probe); SplitterRenamer's activity cells and
// the scale layer's logical held-bitmap hold one as a member.
//
// This is the one copy of the checked release, the word-scan Collect,
// its per-byte reference (the collect_cost --scan=byte ablation baseline
// and the oracle the parity tests compare against), and checkpoint
// adoption. Failures name the owning structure and the operation:
// std::out_of_range past the end, std::logic_error on a slot in the
// wrong state. The cells sit on the la::detail::atomic seam (TasCell),
// so -DLEVELARRAY_VERIFY builds run all of it under the model checker.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/slot_scan.hpp"
#include "sync/tas_cell.hpp"

namespace la::core {

class SlotArray {
 public:
  // `owner` names the structure in error messages (a string literal).
  SlotArray(const char* owner, std::uint64_t total_slots,
            std::uint64_t capacity)
      : slots_(total_slots), capacity_(capacity), owner_(owner) {}

  SlotArray(const SlotArray&) = delete;
  SlotArray& operator=(const SlotArray&) = delete;

  // Checked release. Only the holder may free, so the held() read is
  // race-free; a clear slot here means a double free (or a name never
  // issued) that would otherwise silently corrupt occupancy.
  void free(std::uint64_t name, const char* op = "free") {
    if (name >= slots_.size()) fail_range(op);
    if (!slots_[name].held()) {
      fail_state(op, "slot not held (double free?)");
    }
    slots_[name].release();
  }

  // Appends the names of all held slots to out, ascending; returns how
  // many were found. Theta(L) by design — the dense byte layout is what
  // makes this a sequential cache-friendly scan, and the word engine
  // reads 8 slots per load and emits their names branch-free
  // (racy-snapshot semantics, see slot_scan.hpp).
  std::size_t collect(std::vector<std::uint64_t>& out) const {
    return slot_scan::collect_held(slots_.data(), slots_.size(), out);
  }

  // Per-byte reference collect: same contract, one held() read per slot.
  std::size_t collect_bytewise(std::vector<std::uint64_t>& out) const {
    const std::size_t before = out.size();
    slot_scan::for_each_held_bytewise(
        slots_.data(), slots_.size(),
        [&](std::uint64_t slot) { out.push_back(slot); });
    return out.size() - before;
  }

  // Checkpoint adoption (src/api/snapshot.hpp): force the named slot into
  // the held state on a freshly built instance, keeping the name's
  // numeric identity. Restore-time callers run single-threaded, but
  // try_acquire (not mark_held) keeps the claim edge, so a duplicate
  // name in a corrupt image fails loudly instead of double-marking.
  void adopt_held(std::uint64_t name, const char* op = "adopt_held") {
    if (name >= slots_.size()) fail_range(op);
    if (!slots_[name].try_acquire()) {
      fail_state(op, "slot already held (duplicate name)");
    }
  }

  std::uint64_t total_slots() const { return slots_.size(); }
  std::uint64_t capacity() const { return capacity_; }

  sync::TasCell& operator[](std::uint64_t slot) { return slots_[slot]; }

 protected:
  [[noreturn]] void fail_state(const char* op, const char* what) const {
    throw std::logic_error(std::string(owner_) + "::" + op + ": " + what);
  }

  std::vector<sync::TasCell> slots_;

 private:
  [[noreturn]] void fail_range(const char* op) const {
    throw std::out_of_range(std::string(owner_) + "::" + op +
                            ": name out of range");
  }

  std::uint64_t capacity_;
  const char* owner_;
};

}  // namespace la::core
