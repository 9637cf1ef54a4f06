#include "stress/driver.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "api/registry.hpp"
#include "api/renamer.hpp"
#include "bench_util/churn.hpp"
#include "bench_util/workload.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "sim/metrics.hpp"
#include "sync/cache.hpp"
#include "sync/futex.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/thread_utils.hpp"

namespace la::stress {
namespace {

// Deep batches smaller than this are noise-dominated (mirrors the
// Definition 2 calibration in sim/metrics).
constexpr std::uint64_t kMinCheckedBatchSlots = 16;
// The healing verdict: after the window, no deep batch may be fuller than
// this. The steady state with the implementation's c_i = 1 sits near the
// Definition 2 threshold (half full — see fig3_healing's note), so the
// strict Proposition 3 bound would flake; 0.85 is comfortably above the
// steady state and comfortably below "jammed".
constexpr double kMaxDeepBatchFill = 0.85;

struct ThreadState {
  EventLog log;
  bench::ChurnCounters counters;
  std::uint64_t timed_gets = 0;
  std::string error;  // non-empty = the thread died on an exception
  std::vector<std::uint64_t> held;
};

// Per-scenario sizing: how many names one thread keeps in flight.
std::uint64_t per_thread_target(const StressConfig& cfg) {
  const std::uint64_t n = cfg.effective_capacity();
  const auto threads =
      static_cast<std::uint64_t>(cfg.threads == 0 ? 1 : cfg.threads);
  switch (cfg.scenario) {
    case Scenario::kOversub: {
      // Push aggregate holds to just under the contention bound, leaving
      // a couple of free slots per thread so every Get can terminate.
      const std::uint64_t headroom = 2 * threads;
      const std::uint64_t usable = n > headroom ? n - headroom : threads;
      const std::uint64_t target = usable / threads;
      return target < 1 ? 1 : target;
    }
    case Scenario::kSteady:
    case Scenario::kBurst:
    case Scenario::kZipf:
    case Scenario::kJoinLeave: {
      const std::uint64_t target = n / (2 * threads);
      return target < 1 ? 1 : target;
    }
  }
  return 1;
}

// --- worker policies, one per scenario ----------------------------------
//
// Each worker drives one thread's stash through the churn engine
// (bench_util/churn.hpp) with an EventRecorder sink, so every Get and
// Free lands in the thread's log in the sound ticket order.

// steady / oversub: back-to-back churn holding ~target names; below the
// target a 1-in-4 coin frees instead of claiming. oversub only differs in
// how high target sits (just under the contention bound, or above it
// when a deadline makes refusals survivable). `deadline_ns` is the
// per-Get budget (0 = untimed); a refused Get acquired nothing, so
// nothing is logged for it, but it still spends budget — ops mode must
// terminate even if every remaining Get times out. Under a deadline a
// worker that has spent its budget frees its stash before it leaves:
// kept to join, it would pin the structure full while the slower workers
// run out their budgets alone against it, one deadline per Get.
template <typename ChurnT>
void run_churn_worker(ChurnT& churn, ThreadState& st, std::uint64_t target,
                      bench::Budget& budget, std::uint64_t deadline_ns) {
  while (!budget.exhausted(st.counters)) {
    if (!st.held.empty() &&
        (st.held.size() >= target || rng::bounded(churn.rng(), 4) == 0)) {
      churn.free_some(1);
      continue;
    }
    std::uint64_t until = api::kNoDeadline;
    if (deadline_ns != 0) {
      ++st.timed_gets;
      until = sync::FutexWord::monotonic_now_ns() + deadline_ns;
    }
    churn.get_some(1, bench::kNoCap, until);
  }
  if (deadline_ns != 0) st.counters.ops += churn.drain();
}

// burst: every round all threads cross the barrier together, storm the
// structure with `holds` back-to-back Gets, meet again, release
// everything, repeat. Rounds are budget-derived in ops mode (identical on
// every thread, so barrier participation matches) and flagged off by
// thread 0 in timed mode. A poisoned barrier (a worker died) falls
// through immediately; the stop check after the rendezvous then ends the
// round loop, and each thread frees whatever it acquired this round.
template <typename ChurnT>
void run_burst_worker(ChurnT& churn, ThreadState& st, std::uint32_t tid,
                      std::uint64_t holds, std::uint64_t rounds,
                      sync::SpinBarrier& barrier, std::atomic<bool>& stop,
                      const StressConfig& cfg, const bench::Budget& budget) {
  const bool timed = cfg.ops_per_thread == 0;
  for (std::uint64_t round = 0; timed || round < rounds; ++round) {
    if (timed && tid == 0 && budget.elapsed_seconds() >= cfg.seconds) {
      stop.store(true, std::memory_order_release);
    }
    barrier.wait();
    if (stop.load(std::memory_order_acquire)) break;
    for (std::uint64_t h = 0; h < holds; ++h) {
      churn.get_some(1, bench::kNoCap, api::kNoDeadline);
    }
    barrier.wait();
    st.counters.ops += churn.drain();
  }
}

// zipf: names age out on Zipf-skewed hold times — most are freed almost
// immediately, a heavy tail pins slots ~10x the mean, so old and fresh
// names stay interleaved across the slots. expires[i] is when held[i]
// is due back, in this thread's iteration count; whatever is still held
// at the end stays in the stash for the post-join reaper.
template <typename ChurnT>
void run_zipf_worker(ChurnT& churn, ThreadState& st, std::uint64_t target,
                     bench::Budget& budget) {
  constexpr double kMeanHoldIters = 16.0;
  std::vector<std::uint64_t> expires;
  expires.reserve(static_cast<std::size_t>(target + 1));
  std::uint64_t iter = 0;
  while (!budget.exhausted(st.counters)) {
    for (std::size_t i = 0; i < expires.size();) {
      if (expires[i] <= iter) {
        churn.free_at(i);
        expires[i] = expires.back();
        expires.pop_back();
      } else {
        ++i;
      }
    }
    if (st.held.size() < target) {
      churn.get_some(1, bench::kNoCap, api::kNoDeadline);
      expires.push_back(iter + bench::draw_hold_time(
                                   churn.rng(), bench::HoldDistribution::kZipf,
                                   kMeanHoldIters));
    }
    ++iter;
  }
}

// joinleave: thread tid idles until the run has globally progressed
// tid * stagger events (the epoch clock doubles as the progress signal),
// churns its budget, then drains and leaves — membership ramps up and
// down around a live structure. Thread 0 starts immediately, and each
// threshold is below what the predecessors' completed budgets alone
// produce, so the wait terminates; `stop` (a worker died) bails it out
// of a wait that can no longer be satisfied.
template <typename ChurnT>
void run_joinleave_worker(ChurnT& churn, EpochClock& clock, ThreadState& st,
                          std::uint32_t tid, std::uint64_t target,
                          bench::Budget& budget, std::atomic<bool>& stop,
                          const StressConfig& cfg,
                          std::uint64_t deadline_ns) {
  sync::Backoff backoff;
  if (cfg.ops_per_thread != 0) {
    const std::uint64_t stagger =
        cfg.ops_per_thread / 2 < 1 ? 1 : cfg.ops_per_thread / 2;
    const std::uint64_t threshold = stagger * tid;
    while (clock.issued() < threshold &&
           !stop.load(std::memory_order_acquire)) {
      backoff.pause();
    }
  } else {
    const double join_at =
        cfg.seconds * static_cast<double>(tid) /
        (2.0 * static_cast<double>(cfg.threads == 0 ? 1 : cfg.threads));
    while (budget.elapsed_seconds() < join_at &&
           !stop.load(std::memory_order_acquire)) {
      backoff.pause();
    }
  }
  run_churn_worker(churn, st, target, budget, deadline_ns);
  st.counters.ops += churn.drain();
}

// --- healing window -----------------------------------------------------

// LevelArray only: rebuild Fig. 3's bad state (deep batch 1 forced to
// its overcrowding threshold) on top of whatever the run left, churn at
// half the contention bound, and require every deep batch to end below
// kMaxDeepBatchFill. Runs single-threaded on the reaper id; everything
// is logged, so the checker covers this phase too. Returns the phase's
// peak concurrent holds.
template <typename ChurnT>
std::uint64_t run_healing_window(core::LevelArray& array, ChurnT& churn,
                                 std::vector<std::uint64_t>& pool,
                                 EventRecorder& recorder,
                                 const StressConfig& cfg,
                                 StressReport& report) {
  const std::uint64_t n = cfg.effective_capacity();
  const std::uint64_t heal_load = n / 2 < 1 ? 1 : n / 2;
  const std::uint64_t heal_ops = cfg.heal_ops != 0 ? cfg.heal_ops : 4 * n;

  // Adjust the leftover pool down (newest first) or up to the healing
  // load.
  while (pool.size() > heal_load) churn.free_at(pool.size() - 1);
  while (pool.size() < heal_load) {
    churn.get_some(1, bench::kNoCap, api::kNoDeadline);
  }

  // Fig. 3's bad state: batch 1 forced up to its Definition 2 threshold.
  std::uint64_t seeded = 0;
  if (array.batch_occupancy().size() > 1) {
    const auto names = array.seed_batch_occupancy(
        1, sim::overcrowding_threshold(1, array.capacity()));
    for (const auto name : names) {
      // seed_batch_occupancy acquires directly; mirror it in the log.
      recorder.after_get(name);
      pool.push_back(name);
    }
    seeded = names.size();
  }

  // Churn back down to the healing load, then keep churning — the
  // paper's recovery schedule.
  for (std::uint64_t op = 0; op < heal_ops; ++op) {
    churn.free_some(1);
    if (pool.size() < heal_load) {
      churn.get_some(1, bench::kNoCap, api::kNoDeadline);
    }
  }

  // Verdict: every deep batch with enough slots to matter must end
  // bounded away from full.
  const auto occupancy = array.batch_occupancy();
  double max_fill = 0.0;
  for (std::size_t k = 1; k < occupancy.size(); ++k) {
    const auto size =
        array.geometry().batch(static_cast<std::uint32_t>(k)).size();
    if (size < kMinCheckedBatchSlots) continue;
    const double fill =
        static_cast<double>(occupancy[k]) / static_cast<double>(size);
    if (fill > max_fill) max_fill = fill;
  }
  report.balance_checked = true;
  report.heal_max_deep_fill = max_fill;
  report.balanced = max_fill <= kMaxDeepBatchFill;
  return heal_load + seeded;
}

// --- the driver ---------------------------------------------------------

// Every stress run probes with Marsaglia's xorshift; the RNG ablation
// (paper §6) is a sweep axis, not a stress one.
using Rng = rng::MarsagliaXorshift;

template <typename Array>
StressReport drive(Array& array, const StressConfig& cfg) {
  const std::uint32_t threads = cfg.threads == 0 ? 1 : cfg.threads;
  const std::uint64_t n = cfg.effective_capacity();
  if (n < 4 * static_cast<std::uint64_t>(threads)) {
    throw std::invalid_argument(
        "run_stress: capacity " + std::to_string(n) + " is too small for " +
        std::to_string(threads) + " threads (need >= 4 * threads)");
  }
  std::uint64_t target = per_thread_target(cfg);
  // Deadline knob: only honored where the structure can actually bound a
  // Get (api deadline surface). Under a deadline, oversub flips from
  // "just under the bound" to *over* it — aggregate demand exceeds n, so
  // while workers overlap, timeouts are the expected outcome rather than
  // a hang.
  std::uint64_t deadline_ns = 0;
  if constexpr (api::has_deadline_ops_v<Array>) {
    deadline_ns = cfg.deadline_ns;
    if (deadline_ns != 0 && cfg.scenario == Scenario::kOversub) {
      target = n / threads + 2;
    }
  }
  const std::uint64_t worker_bound = target * threads;

  StressReport report;
  EpochClock clock;
  std::vector<sync::CachePadded<ThreadState>> states(threads);
  for (auto& st : states) {
    st->log.reserve(
        static_cast<std::size_t>(2 * cfg.ops_per_thread + 2 * target + 64));
    st->held.reserve(static_cast<std::size_t>(target + 1));
  }

  sync::SpinBarrier barrier(threads);
  std::atomic<bool> stop{false};
  const std::uint64_t burst_rounds =
      cfg.ops_per_thread == 0
          ? 0
          : std::max<std::uint64_t>(cfg.ops_per_thread / (2 * target), 1);

  {
    sync::ThreadGroup group;
    group.spawn(threads, [&](std::uint32_t tid) {
      ThreadState& st = *states[tid];
      try {
        Rng rng(rng::mix_seed(cfg.seed, tid + 1));
        barrier.wait();
        bench::Budget budget(cfg.ops_per_thread, cfg.seconds, &stop);
        bench::Churn<Array, Rng, EventRecorder> churn(
            array, rng, st.counters, st.held, 1,
            EventRecorder{st.log, clock, tid});
        switch (cfg.scenario) {
          case Scenario::kSteady:
          case Scenario::kOversub:
            run_churn_worker(churn, st, target, budget, deadline_ns);
            break;
          case Scenario::kBurst:
            run_burst_worker(churn, st, tid, target, burst_rounds, barrier,
                             stop, cfg, budget);
            break;
          case Scenario::kZipf:
            run_zipf_worker(churn, st, target, budget);
            break;
          case Scenario::kJoinLeave:
            run_joinleave_worker(churn, clock, st, tid, target, budget, stop,
                                 cfg, deadline_ns);
            break;
        }
        st.counters.seconds_active = budget.elapsed_seconds();
      } catch (const std::exception& e) {
        st.error = e.what();
        stop.store(true, std::memory_order_release);
        barrier.abort();  // wake anyone parked on a rendezvous with us
      }
    });
  }

  // Workers have joined; aggregate their outputs. Post-join phases run on
  // a virtual "reaper" thread id (= threads): the fork/join transferred
  // ownership of the leftovers to the driver, so they become the
  // reaper's stash.
  const std::uint32_t reaper_tid = threads;
  ThreadState reaper;
  bench::ChurnCounters workers;
  std::vector<std::uint64_t>& pool = reaper.held;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    const ThreadState& st = *states[tid];
    workers.merge(st.counters);
    report.timed_gets += st.timed_gets;
    pool.insert(pool.end(), st.held.begin(), st.held.end());
  }
  report.timeouts = workers.timeouts;
  report.elapsed_seconds = workers.seconds_active;

  std::vector<std::string> driver_errors;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    if (!states[tid]->error.empty()) {
      driver_errors.push_back("thread " + std::to_string(tid) +
                              " died: " + states[tid]->error);
    }
  }

  // Cross-check the structure's own view against the log before touching
  // anything: collect() at quiescence must see exactly the leftovers.
  {
    std::vector<std::uint64_t> collected;
    array.collect(collected);
    std::vector<std::uint64_t> expected = pool;
    std::sort(collected.begin(), collected.end());
    std::sort(expected.begin(), expected.end());
    if (collected != expected) {
      driver_errors.push_back(
          "collect() at quiescence disagrees with the log (" +
          std::to_string(collected.size()) + " collected vs " +
          std::to_string(expected.size()) + " logged holds)");
    }
  }

  Rng reaper_rng(rng::mix_seed(cfg.seed, 0x4EA9E4ull));
  EventRecorder recorder{reaper.log, clock, reaper_tid};
  bench::Churn<Array, Rng, EventRecorder> reaper_churn(
      array, reaper_rng, reaper.counters, pool, 1, recorder);
  std::uint64_t heal_peak = 0;
  if constexpr (std::is_same_v<Array, core::LevelArray>) {
    if (driver_errors.empty()) {
      heal_peak = run_healing_window(array, reaper_churn, pool, recorder, cfg,
                                     report);
    }
  }

  // Drain to empty and verify the structure agrees.
  reaper.counters.ops += reaper_churn.drain();
  workers.merge(reaper.counters);
  report.trials = workers.trials;
  report.total_ops = workers.ops;
  report.backup_gets = workers.backup_gets;
  {
    std::vector<std::uint64_t> collected;
    if (array.collect(collected) != 0) {
      driver_errors.push_back("collect() after the drain still sees " +
                              std::to_string(collected.size()) + " name(s)");
    }
  }

  // Replay the merged trace through the checker.
  std::vector<const EventLog*> logs;
  logs.reserve(threads + 1);
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    logs.push_back(&states[tid]->log);
  }
  logs.push_back(&reaper.log);
  std::vector<Event> trace = merge_logs(logs);

  CheckConfig check;
  check.total_slots = array.total_slots();
  check.max_concurrent = std::max(heal_peak, worker_bound);
  check.expect_empty_at_end = true;
  check.reaper_thread = reaper_tid;
  report.invariants = check_trace(trace, check);

  for (auto& error : driver_errors) {
    report.invariants.violations.push_back(std::move(error));
  }

  // Gate-wait accounting must be read here, while the structure is still
  // alive — api::visit destroys it when drive() returns.
  if constexpr (api::has_wait_stats_v<Array>) {
    const api::WaitStats waits = array.wait_stats();
    report.wait_rounds = waits.wait_rounds;
    report.parks = waits.parks;
  }
  return report;
}

}  // namespace

StressReport run_stress(const StressConfig& cfg) {
  api::RenamerConfig rc;
  rc.capacity = cfg.effective_capacity();
  return api::visit(cfg.structure, rc,
                    [&](auto& array) { return drive(array, cfg); });
}

}  // namespace la::stress
