// Lock-free per-thread event logs for the stress subsystem. Every Get and
// Free a stress thread performs is recorded as (epoch, thread, op, name);
// after the threads join, the per-thread logs are merged and sorted by
// epoch into one total-order trace the invariant checker replays.
//
// The epoch is a ticket from one shared atomic counter. Ticket placement
// is what makes the trace *sound* — i.e. a correct structure can never
// produce a trace the checker rejects:
//
//   * Get tickets are drawn AFTER get() returns (after the slot's
//     acquire),
//   * Free tickets are drawn BEFORE free() is called (before the slot's
//     release),
//
// so each logged hold interval [get_epoch, free_epoch] is contained in
// the true exclusion interval [acquire, release]. A correct structure's
// true intervals per name are disjoint and release happens-before the
// next acquire; the ticket fetch_adds inherit that happens-before, and
// same-variable RMW coherence then orders the tickets the same way — the
// logged intervals stay disjoint and correctly ordered even with relaxed
// tickets. A lost release or duplicate grant, by contrast, shows up as
// two overlapping logged holds of one name (barring an adversarial
// stamping race, which repeated runs and TSan cover).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace la::stress {

enum class Op : std::uint8_t { kGet, kFree };

struct Event {
  std::uint64_t epoch = 0;
  std::uint64_t name = 0;
  std::uint32_t thread = 0;
  Op op = Op::kGet;
};

// The shared ticket source. fetch_add is relaxed on purpose: the ordering
// argument above needs only same-variable coherence plus the structure's
// own release/acquire edge.
class EpochClock {
 public:
  std::uint64_t tick() { return next_.fetch_add(1, std::memory_order_relaxed); }

  // Tickets issued so far. The join/leave scenario polls this as a global
  // progress signal to stagger thread arrivals.
  std::uint64_t issued() const { return next_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> next_{0};
};

// One thread's private append-only log. No cross-thread synchronization:
// each thread writes only its own log, and the fork/join around the run
// publishes the contents to the merger.
class EventLog {
 public:
  void reserve(std::size_t events) { events_.reserve(events); }

  void record(EpochClock& clock, std::uint32_t thread, Op op,
              std::uint64_t name) {
    events_.push_back(Event{clock.tick(), name, thread, op});
  }

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

 private:
  std::vector<Event> events_;
};

// The churn engine's sink (bench_util/churn.hpp) for a traced worker:
// tickets each op into the worker's log in the sound order above — a
// Free's ticket before the release, a Get's ticket after the grant.
struct EventRecorder {
  EventLog& log;
  EpochClock& clock;
  std::uint32_t thread;

  void before_free(std::uint64_t name) {
    log.record(clock, thread, Op::kFree, name);
  }
  void after_get(std::uint64_t name) {
    log.record(clock, thread, Op::kGet, name);
  }
};

}  // namespace la::stress
