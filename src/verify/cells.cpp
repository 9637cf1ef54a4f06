// The harness cells: small closed concurrent programs over the real
// library code, each exhaustively explored by the runtime. A cell is a
// few threads and a handful of ops on purpose — every atomic access is a
// scheduling choice point, so the interleaving tree is exponential in
// the op count; the value is exhaustiveness at small scale, not volume
// (the stress tier owns volume).
//
// What a cell asserts, in increasing strength:
//   * termination: every schedule runs to completion (the explorer
//     reports deadlock/livelock on any that does not);
//   * require(): the cell's own end-state invariants, plus
//     stress::check_trace on a get/free event trace where the cell
//     drives a renamer (the same invariants the stress tier checks
//     statistically, here checked on every interleaving);
//   * freedom from data races on verify::var payloads under the
//     *declared* memory orders — the teeth that catch an ordering
//     downgrade (see the mutant cells and LEVELARRAY_VERIFY_MUTATE_*).
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/slot_array.hpp"
#include "core/slot_scan.hpp"
#include "core/types.hpp"
#include "scale/sharded.hpp"
#include "stress/invariants.hpp"
#include "svc/ring.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/tas_cell.hpp"
#include "sync/wait_queue.hpp"
#include "verify/atom.hpp"
#include "verify/runtime.hpp"

namespace {

using la::verify::join_all;
using la::verify::require;
using la::verify::spawn;

// Bounded wait for a cell-level condition: Backoff::pause is a verify
// yield that blocks until some store commits, so this never busy-loops
// the explorer and never misses the store that makes `cond` true.
template <typename Cond>
void spin_until(Cond&& cond) {
  la::sync::Backoff backoff;
  while (!cond()) backoff.pause();
}

// ------------------------------------------------------------------ TAS

// Two threads contend on one TasCell; the critical section increments a
// plain (race-checked) counter. Mutual exclusion comes from the TAS, and
// the acquire/release pair is what orders the counter accesses — under
// LEVELARRAY_VERIFY_MUTATE_TAS_ACQUIRE the claim is relaxed and this
// cell must report a data race on 'counter'.
LA_VERIFY_CELL(tas_claim_release,
               "TasCell claim/release mutual exclusion, 2 threads x 2 ops") {
  la::sync::TasCell cell;
  la::verify::var<std::uint64_t> counter("counter");
  counter.write(0);
  for (int t = 0; t < 2; ++t) {
    spawn([&] {
      for (int i = 0; i < 2; ++i) {
        la::sync::Backoff backoff;
        while (!cell.try_acquire()) backoff.pause();
        counter.write(counter.read() + 1);
        cell.release();
      }
    });
  }
  join_all();
  require(counter.read() == 4, "lost update through the TAS section");
  require(!cell.held(), "cell left held after all releases");
}

LA_VERIFY_CELL(tas_claim_release_3,
               "TasCell mutual exclusion, 3 threads x 1 op") {
  la::sync::TasCell cell;
  la::verify::var<std::uint64_t> counter("counter");
  counter.write(0);
  for (int t = 0; t < 3; ++t) {
    spawn([&] {
      la::sync::Backoff backoff;
      while (!cell.try_acquire()) backoff.pause();
      counter.write(counter.read() + 1);
      cell.release();
    });
  }
  join_all();
  require(counter.read() == 3, "lost update through the TAS section");
  require(!cell.held(), "cell left held after all releases");
}

// slot_scan::claim_clear racing a concurrent claimer and a concurrent
// Free: the word mask is a hint, the TAS is the claim — no slot may be
// granted twice, and the final occupancy must account for every claim
// and free exactly.
LA_VERIFY_CELL(claim_clear_vs_free,
               "claim_clear vs claim_clear vs free over one 8-slot word") {
  std::vector<la::sync::TasCell> cells(8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    if (i == 3) continue;  // the one initially clear slot
    require(cells[i].try_acquire(), "seeding the initial occupancy");
  }
  std::uint64_t a_slot = 99, b_slot = 99;
  std::size_t na = 0, nb = 0;
  spawn([&] {
    na = la::core::slot_scan::claim_clear(
        cells.data(), 0, 8, 8, 1, [&](std::uint64_t s) { a_slot = s; });
  });
  spawn([&] {
    cells[5].release();
    nb = la::core::slot_scan::claim_clear(
        cells.data(), 0, 8, 8, 1, [&](std::uint64_t s) { b_slot = s; });
  });
  join_all();
  require(na <= 1, "claim_clear overshot want=1");
  require(nb == 1, "B freed a slot first, so its claim cannot come up empty");
  if (na == 1) {
    require(a_slot != b_slot, "one slot granted to both claimers");
  }
  const std::uint64_t held =
      la::core::slot_scan::count_held_bytewise(cells.data(), 8);
  require(held == 7 - 1 + na + nb,
          "final occupancy does not balance claims and frees");
}

// ------------------------------------------------------------ WaitQueue

// Strict FIFO: waiters A then B queue in a forced order (B gates on
// A's registration), so wake_one must grant A's ticket first.
LA_VERIFY_CELL(waitqueue_fifo,
               "wake_one grants strictly in queue (FIFO) order") {
  la::sync::WaitQueue q;
  std::uint64_t ticket_a = 0, ticket_b = 0;
  bool woken_a = false, woken_b = false;
  spawn([&] {
    la::sync::WaitQueue::Waiter w;
    q.prepare_wait(w);
    ticket_a = w.ticket();
    woken_a = q.commit_wait(w) == la::sync::WaitResult::kWoken;
  });
  spawn([&] {
    spin_until([&] { return q.waiters() >= 1; });
    la::sync::WaitQueue::Waiter w;
    q.prepare_wait(w);
    ticket_b = w.ticket();
    woken_b = q.commit_wait(w) == la::sync::WaitResult::kWoken;
  });
  spin_until([&] { return q.waiters() >= 2; });
  const std::uint64_t g1 = q.wake_one();
  const std::uint64_t g2 = q.wake_one();
  join_all();
  require(woken_a && woken_b, "a queued waiter was never granted");
  require(g1 == ticket_a, "first grant skipped the oldest ticket");
  require(g2 == ticket_b, "second grant out of FIFO order");
  require(ticket_a < ticket_b, "tickets not monotone in queue order");
  require(q.waiters() == 0, "waiters left registered after the drain");
}

// Grant conservation through cancel_wait: a grant that lands on a waiter
// which cancels must be re-donated, so the one logical release here can
// never strand the committed waiter B.
LA_VERIFY_CELL(waitqueue_cancel,
               "cancel_wait re-donates a raced grant; B is never stranded") {
  la::sync::WaitQueue q;
  bool b_woken = false;
  spawn([&] {
    la::sync::WaitQueue::Waiter w;
    q.prepare_wait(w);
    q.cancel_wait(w);
  });
  spawn([&] {
    la::sync::WaitQueue::Waiter w;
    q.prepare_wait(w);
    require(q.commit_wait(w) == la::sync::WaitResult::kWoken,
            "committed waiter timed out with no deadline");
    b_woken = true;
  });
  // The waker: keep granting until B reports woken. A grant consumed by
  // A's cancel is re-donated by cancel_wait itself; this loop only
  // replaces grants that found an empty queue.
  la::sync::Backoff backoff;
  while (!b_woken) {
    if (q.wake_one() == 0) backoff.pause();
  }
  join_all();
  require(q.waiters() == 0, "waiters left registered at the end");
  require(q.tickets_issued() == 2, "ticket accounting drifted");
}

// Pure deadline expiry on the virtual clock: no waker exists, so the
// committed waiter must time out and unlink itself.
LA_VERIFY_CELL(waitqueue_timeout,
               "commit_wait expires on the virtual clock and unlinks") {
  la::sync::WaitQueue q;
  spawn([&] {
    la::sync::WaitQueue::Waiter w;
    q.prepare_wait(w);
    const auto r =
        q.commit_wait(w, la::verify::virtual_now_ns() + 1000);
    require(r == la::sync::WaitResult::kTimedOut,
            "waiter woke with no grant in the system");
  });
  join_all();
  require(q.waiters() == 0, "timed-out waiter left linked");
}

// Timeout racing a grant: the outcomes must agree — if wake_one granted
// the ticket, the waiter reports kWoken (even if its deadline also
// passed: the grant was spent on it); if wake_one found nobody, the
// waiter must report kTimedOut.
LA_VERIFY_CELL(waitqueue_timeout_race,
               "a grant and a deadline race to one waiter, consistently") {
  la::sync::WaitQueue q;
  la::sync::WaitResult result = la::sync::WaitResult::kWoken;
  spawn([&] {
    la::sync::WaitQueue::Waiter w;
    q.prepare_wait(w);
    result = q.commit_wait(w, la::verify::virtual_now_ns() + 500);
  });
  const std::uint64_t granted = q.wake_one();
  join_all();
  require((granted != 0) == (result == la::sync::WaitResult::kWoken),
          "grant accounting disagrees with the waiter's result");
  require(q.waiters() == 0, "waiter left linked after the race");
}

// FIFO straight through the 32-bit boundary of the futex bitset channel
// (tickets are 64-bit; ticket % 32 is what wraps). The queue starts at
// UINT32_MAX - 2; with three waiters plus one re-queue the grant
// sequence crosses 2^32 and must stay strictly increasing.
LA_VERIFY_CELL(waitqueue_ticket_wrap,
               "FIFO grant order across the ticket%32 channel wrap") {
  constexpr std::uint64_t kFirst = 0xFFFFFFFFull - 2;  // UINT32_MAX - 2
  la::sync::WaitQueue q(kFirst);
  std::vector<std::uint64_t> grants;
  spawn([&] {  // W1: waits twice — its second ticket is 2^32
    la::sync::WaitQueue::Waiter w1;
    q.prepare_wait(w1);
    require(q.commit_wait(w1) == la::sync::WaitResult::kWoken, "W1 stranded");
    la::sync::WaitQueue::Waiter w2;
    q.prepare_wait(w2);
    require(q.commit_wait(w2) == la::sync::WaitResult::kWoken,
            "W1 re-queue stranded");
  });
  spawn([&] {  // W2 queues strictly after W1
    spin_until([&] { return q.waiters() >= 1; });
    la::sync::WaitQueue::Waiter w;
    q.prepare_wait(w);
    require(q.commit_wait(w) == la::sync::WaitResult::kWoken, "W2 stranded");
  });
  spawn([&] {  // W3 queues strictly after W2
    spin_until([&] { return q.waiters() >= 2; });
    la::sync::WaitQueue::Waiter w;
    q.prepare_wait(w);
    require(q.commit_wait(w) == la::sync::WaitResult::kWoken, "W3 stranded");
  });
  spin_until([&] { return q.waiters() >= 3; });
  grants.push_back(q.wake_one());  // grants W1's first ticket
  // W1 re-queues behind W2 and W3; wait for it, then drain in order.
  spin_until([&] { return q.tickets_issued() >= 4 && q.waiters() >= 3; });
  grants.push_back(q.wake_one());
  grants.push_back(q.wake_one());
  grants.push_back(q.wake_one());
  join_all();
  require(grants[0] == kFirst && grants[1] == kFirst + 1 &&
              grants[2] == kFirst + 2 && grants[3] == kFirst + 3,
          "grant sequence broke FIFO across the 2^32 channel wrap");
  require(grants[3] == 0x100000000ull, "re-queue ticket did not cross 2^32");
  require(q.waiters() == 0, "waiters left registered after the drain");
}

// ------------------------------------------------------------ SPSC ring

// The ring slot the verify harness instantiates svc::RingView over: the
// real template, a verify atom for seq, a race-checked var payload.
struct VerifySlot {
  la::verify::atom<std::uint32_t> seq{0};
  la::verify::var<std::uint64_t> payload;
};

void run_ring(std::uint32_t start, std::uint32_t messages) {
  VerifySlot slots[2];
  la::svc::RingView<VerifySlot> ring(slots, 2);
  ring.reset_empty_at(start);
  spawn([&, start] {  // producer
    std::uint32_t p = start;
    for (std::uint32_t i = 0; i < messages; ++i, ++p) {
      VerifySlot* slot;
      spin_until([&] { return (slot = ring.try_begin_push(p)) != nullptr; });
      slot->payload.write(100 + i);
      ring.commit_push(*slot, p);
    }
  });
  spawn([&, start] {  // consumer
    std::uint32_t c = start;
    for (std::uint32_t i = 0; i < messages; ++i, ++c) {
      VerifySlot* slot;
      spin_until([&] { return (slot = ring.try_begin_pop(c)) != nullptr; });
      require(slot->payload.read() == 100 + i,
              "consumer observed a stale or torn payload");
      ring.commit_pop(*slot, c);
    }
  });
  join_all();
}

LA_VERIFY_CELL(spsc_ring,
               "RingView produce/consume, 3 messages over capacity 2") {
  run_ring(0, 3);
}

LA_VERIFY_CELL(spsc_ring_wrap,
               "RingView cursor arithmetic across the uint32 wraparound") {
  // Positions UINT32_MAX-1, UINT32_MAX, 0: the free-running cursors wrap
  // mod 2^32 mid-stream and the seq handshake must stay exact.
  run_ring(0xFFFFFFFFu - 1, 3);
}

// Harness-teeth mutant: the same publish protocol with the producer's
// release deliberately downgraded to relaxed. The explorer MUST report a
// data race on 'mutant_payload' (a relaxed store publishes nothing), or
// the whole memory-order checking story is vacuous.
LA_VERIFY_CELL(mutant_ring_relaxed_publish,
               "MUTANT: relaxed publish must be flagged as a race",
               /*expects_violation=*/true) {
  la::verify::atom<std::uint32_t> ready{0};
  la::verify::var<std::uint64_t> payload("mutant_payload");
  spawn([&] {
    payload.write(42);
    ready.store(1, std::memory_order_relaxed);  // atomics-lint: mutation
  });
  spawn([&] {
    spin_until(
        [&] { return ready.load(std::memory_order_acquire) == 1; });
    (void)payload.read();
  });
  join_all();
}

// --------------------------------------------------------- sharded cache

// Minimal api::Renamer for the sharding cells: a core::SlotArray with
// first-fit Get. Total below the gate bound (the gate admits only when
// true holds < capacity, so a clear slot always exists; transient races
// re-loop through a blocking pause).
class MiniInner : public la::core::SlotArray {
 public:
  explicit MiniInner(std::uint64_t capacity)
      : SlotArray("MiniInner", capacity, capacity) {}

  template <typename Rng>
  la::GetResult get(Rng& /*rng*/) {
    la::GetResult result;
    la::sync::Backoff backoff;
    for (;;) {
      for (std::uint64_t s = 0; s < slots_.size(); ++s) {
        ++result.probes;
        if (slots_[s].try_acquire()) {
          result.name = s;
          return result;
        }
      }
      backoff.pause();
    }
  }
};

using MiniSharded = la::scale::ShardedRenamer<MiniInner>;

std::unique_ptr<MiniSharded> make_sharded(std::uint64_t inner_capacity) {
  la::scale::ShardedConfig config;
  config.shards = 1;
  config.cache_capacity = 1;
  config.max_threads = 2;
  return std::make_unique<MiniSharded>(config, [&](std::uint32_t) {
    return std::make_unique<MiniInner>(inner_capacity);
  });
}

// Shared cell plumbing: the event trace every sharded cell feeds to
// stress::check_trace. Fibers are cooperatively scheduled, so plain
// shared containers and the epoch counter are fine harness bookkeeping
// (the checked code's own state is what runs under the atom seam).
struct EventTrace {
  std::vector<la::stress::Event> events;
  std::uint64_t epoch = 0;

  // Ticket placement per event_log.hpp: Get stamps AFTER the structure
  // returns, Free stamps BEFORE the structure is entered.
  void did_get(std::uint32_t thread, std::uint64_t name) {
    events.push_back({epoch++, name, thread, la::stress::Op::kGet});
  }
  void will_free(std::uint32_t thread, std::uint64_t name) {
    events.push_back({epoch++, name, thread, la::stress::Op::kFree});
  }
};

void check_events(EventTrace& trace, const MiniSharded& renamer,
                  std::uint64_t max_concurrent) {
  la::stress::CheckConfig config;
  config.total_slots = renamer.total_slots();
  config.max_concurrent = max_concurrent;
  config.expect_empty_at_end = true;
  const auto report = la::stress::check_trace(trace.events, config);
  std::string detail;
  for (const auto& v : report.violations) detail += " | " + v;
  require(report.ok(), "check_trace rejected the event trace" + detail);
}

// Park/pop through the per-thread cache: each worker's second Get must
// be servable from its own parked name, and the exit flush returns
// everything — zero logical holds and zero gate drift at the end.
LA_VERIFY_CELL(sharded_park_pop,
               "cache park/pop churn, exit flush, gate accounting") {
  auto renamer = make_sharded(/*inner_capacity=*/2);
  EventTrace trace;
  int rng = 0;
  spawn([&] {
    for (int i = 0; i < 2; ++i) {
      const auto g = renamer->get(rng);
      trace.did_get(1, g.name);
      trace.will_free(1, g.name);
      renamer->free(g.name);
    }
  });
  spawn([&] {
    const auto g = renamer->get(rng);
    trace.did_get(2, g.name);
    trace.will_free(2, g.name);
    renamer->free(g.name);
  });
  join_all();
  std::vector<std::uint64_t> names;
  require(renamer->collect(names) == 0, "logical holds leaked");
  require(renamer->gate_occupancy(0) == 0, "gate reservation drifted");
  check_events(trace, *renamer, /*max_concurrent=*/2);
}

// The only name is held; the getter is refused and parks untimed; the
// holder's single cached Free (park exchange, then a fenceless wake_one)
// races that park. The holder frees from the getter's fourth refusal
// round on — the verify Backoff parks after four pauses — and outlives
// the grant, so its exit flush cannot mask a lost wake: a missed wake
// leaves both blocked, which the explorer reports as a deadlock.
LA_VERIFY_CELL(sharded_park_vs_cached_free,
               "untimed parked Get vs a cached Free's fenceless wake") {
  auto renamer = make_sharded(/*inner_capacity=*/1);
  EventTrace trace;
  int rng = 0;
  la::verify::atom<std::uint32_t> holding{0};
  la::verify::atom<std::uint32_t> granted{0};
  spawn([&] {  // holder
    const auto g = renamer->get(rng);
    trace.did_get(1, g.name);
    holding.store(1, std::memory_order_release);
    spin_until([&] { return renamer->wait_stats().wait_rounds >= 4; });
    trace.will_free(1, g.name);
    renamer->free(g.name);  // cached: parks into this thread's bin
    spin_until([&] { return granted.load(std::memory_order_acquire) == 1; });
  });
  spawn([&] {  // getter: refused until the holder's Free
    spin_until([&] { return holding.load(std::memory_order_acquire) == 1; });
    const auto g = renamer->get(rng);
    trace.did_get(2, g.name);
    granted.store(1, std::memory_order_release);
    trace.will_free(2, g.name);
    renamer->free(g.name);
  });
  join_all();
  std::vector<std::uint64_t> names;
  require(renamer->collect(names) == 0, "logical holds leaked");
  require(renamer->gate_occupancy(0) == 0, "gate reservation drifted");
  check_events(trace, *renamer, /*max_concurrent=*/1);
}

// Capacity 1 forces the steal path: one worker's parked name is the only
// capacity in the system, so the other worker's Get must reclaim it via
// the global-miss drain (or ride a concurrent collect()'s steal — thread
// 0 runs collect in parallel to exercise the bin exchange race).
LA_VERIFY_CELL(sharded_steal_drain,
               "Get reclaims a parked name via steal/drain, capacity 1") {
  auto renamer = make_sharded(/*inner_capacity=*/1);
  EventTrace trace;
  int rng = 0;
  for (std::uint32_t t = 1; t <= 2; ++t) {
    spawn([&, t] {
      const auto g = renamer->get(rng);
      trace.did_get(t, g.name);
      trace.will_free(t, g.name);
      renamer->free(g.name);
    });
  }
  std::vector<std::uint64_t> names;
  require(renamer->collect(names) <= 1, "collect saw more than capacity");
  join_all();
  names.clear();
  require(renamer->collect(names) == 0, "logical holds leaked");
  require(renamer->gate_occupancy(0) == 0, "gate reservation drifted");
  check_events(trace, *renamer, /*max_concurrent=*/1);
}

// Thread-exit flush racing a concurrent Get: worker 1 parks and exits
// immediately, so its TLS destructor's flush is the only path returning
// the name worker 2 needs.
LA_VERIFY_CELL(sharded_exit_flush,
               "exit-flush returns a parked name a concurrent Get needs") {
  auto renamer = make_sharded(/*inner_capacity=*/1);
  EventTrace trace;
  int rng = 0;
  spawn([&] {
    const auto g = renamer->get(rng);
    trace.did_get(1, g.name);
    trace.will_free(1, g.name);
    renamer->free(g.name);  // parks; the exit flush returns it
  });
  spawn([&] {
    const auto g = renamer->get(rng);
    trace.did_get(2, g.name);
    trace.will_free(2, g.name);
    renamer->free(g.name);
  });
  join_all();
  std::vector<std::uint64_t> names;
  require(renamer->collect(names) == 0, "logical holds leaked");
  require(renamer->gate_occupancy(0) == 0, "gate reservation drifted");
  check_events(trace, *renamer, /*max_concurrent=*/1);
}

}  // namespace
