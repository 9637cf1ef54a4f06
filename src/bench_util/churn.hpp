// The churn engine: the paper's §6 workload as steps over one worker's
// stash of held names. Every load loop in the repo is built from it —
// the sweep driver (algos.hpp), the stress scenarios
// (stress/driver.cpp) and the daemon harnesses (bench/svc_churn.cpp,
// bench/migrate_churn.cpp) — so bench numbers and invariant traces come
// from the same code, and a caller keeps only its policy: when to free,
// when to claim, how many.
//
// Each step reports its ops to a sink: NoEvents for the bench, or
// stress::EventRecorder, which tickets every op into an event log in the
// sound order of stress/event_log.hpp (a Free's ticket before the
// release, a Get's ticket after the grant).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "api/renamer.hpp"
#include "bench_util/timing.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"
#include "sync/futex.hpp"

namespace la::bench {

// What one worker did.
struct ChurnCounters {
  stats::TrialStats trials;  // probes per granted Get
  // Gets and Frees, plus one per exchange refused at its deadline (a
  // refusal still spends budget, so an ops-mode run always ends).
  std::uint64_t ops = 0;
  std::uint64_t backup_gets = 0;
  std::uint64_t timeouts = 0;  // exchanges refused at their deadline
  double seconds_active = 0.0;  // budget start to loop end

  // Fold another worker in; seconds_active keeps the slowest.
  void merge(const ChurnCounters& other) {
    trials.merge(other.trials);
    ops += other.ops;
    backup_gets += other.backup_gets;
    timeouts += other.timeouts;
    if (other.seconds_active > seconds_active) {
      seconds_active = other.seconds_active;
    }
  }
};

// When a worker stops: after `ops_limit` ops, or (ops_limit == 0) after
// `seconds` on its own clock, read every 64 checks. An optional stop flag
// ends it early — the stress driver raises it when a sibling dies.
class Budget {
 public:
  Budget(std::uint64_t ops_limit, double seconds,
         const std::atomic<bool>* stop = nullptr)
      : ops_limit_(ops_limit),
        seconds_(seconds),
        end_ns_(ops_limit == 0 ? sync::FutexWord::monotonic_now_ns() +
                                     static_cast<std::uint64_t>(seconds * 1e9)
                               : api::kNoDeadline),
        stop_(stop) {}

  bool exhausted(const ChurnCounters& c) {
    if (stop_ != nullptr && stop_->load(std::memory_order_acquire)) {
      return true;
    }
    if (ops_limit_ != 0) return c.ops >= ops_limit_;
    if ((++polls_ & 63u) != 0) return false;
    return watch_.elapsed_seconds() >= seconds_;
  }

  double elapsed_seconds() const { return watch_.elapsed_seconds(); }

  // The CLOCK_MONOTONIC instant a timed budget runs out (api::kNoDeadline
  // in ops mode), so no wait inside the run outlives it.
  std::uint64_t end_ns() const { return end_ns_; }

 private:
  Stopwatch watch_;
  std::uint64_t ops_limit_;
  double seconds_;
  std::uint64_t end_ns_;
  const std::atomic<bool>* stop_;
  std::uint32_t polls_ = 0;
};

// The sink for runs that keep no trace.
struct NoEvents {
  void before_free(std::uint64_t) {}
  void after_get(std::uint64_t) {}
};

inline constexpr std::size_t kNoCap = std::numeric_limits<std::size_t>::max();

// The steps over one worker's stash. `held` and `counters` belong to the
// caller, since they outlive the worker: the bench deals its prefill into
// the stash first, the stress driver reaps what is left after the join.
// `batch` is the most names one exchange moves.
template <typename Array, typename Rng, typename Sink = NoEvents>
class Churn {
 public:
  Churn(Array& array, Rng& rng, ChurnCounters& counters,
        std::vector<std::uint64_t>& held, std::size_t batch, Sink sink = {},
        std::uint64_t run_end = api::kNoDeadline)
      : array_(array),
        rng_(rng),
        counters_(counters),
        held_(held),
        sink_(sink),
        run_end_(run_end),
        victims_(batch == 0 ? 1 : batch),
        got_(batch == 0 ? 1 : batch) {}

  Rng& rng() { return rng_; }

  // Draw up to k victims from the stash, uniformly and one at a time,
  // then free them: array.free when k == 1, else one api::free_batch.
  void free_some(std::size_t k) {
    if (k == 1) {
      if (!held_.empty()) free_at(rng::bounded(rng_, held_.size()));
      return;
    }
    const std::size_t n = k < held_.size() ? k : held_.size();
    for (std::size_t j = 0; j < n; ++j) {
      victims_[j] = take(rng::bounded(rng_, held_.size()));
      sink_.before_free(victims_[j]);
    }
    if (n == 0) return;
    api::free_batch(array_, victims_.data(), n);
    counters_.ops += n;
  }

  // Free the stashed name at index i (the last name moves into its place).
  void free_at(std::size_t i) {
    const std::uint64_t name = take(i);
    sink_.before_free(name);
    array_.free(name);
    ++counters_.ops;
  }

  // Claim `want` names, fewer if the stash would pass `cap`, retrying a
  // short grant through api::get_batch_for — the one wait path, where the
  // structure spins, yields or parks on its own queue. `until` is the
  // exchange's deadline: a refusal there abandons the rest and counts a
  // timeout. Without one (api::kNoDeadline) a lone name goes straight to
  // array.get, and other waits end, uncounted, at the run's end. Returns
  // the number granted.
  std::size_t get_some(std::size_t want, std::size_t cap,
                       std::uint64_t until) {
    if (want == 1 && until == api::kNoDeadline && held_.size() < cap) {
      stash(array_.get(rng_));
      return 1;
    }
    const std::size_t room = held_.size() < cap ? cap - held_.size() : 0;
    if (want > room) want = room;
    std::size_t granted = 0;
    while (granted < want) {
      const std::size_t ask =
          want - granted < got_.size() ? want - granted : got_.size();
      const std::size_t got = api::get_batch_for(
          array_, rng_, got_.data(), ask,
          until != api::kNoDeadline ? until : run_end_);
      if (got == 0) {
        if (until != api::kNoDeadline) {
          ++counters_.timeouts;
          ++counters_.ops;
        }
        break;
      }
      for (std::size_t j = 0; j < got; ++j) stash(got_[j]);
      granted += got;
    }
    return granted;
  }

  // Free the whole stash in stash order. A drain is end-of-run cleanup,
  // not churn, so it leaves ops alone; it returns how many names it
  // freed, for callers that count them.
  std::size_t drain() {
    const std::size_t n = held_.size();
    for (const auto name : held_) {
      sink_.before_free(name);
      array_.free(name);
    }
    held_.clear();
    return n;
  }

 private:
  std::uint64_t take(std::size_t i) {
    const std::uint64_t name = held_[i];
    held_[i] = held_.back();
    held_.pop_back();
    return name;
  }

  void stash(const GetResult& r) {
    sink_.after_get(r.name);  // ticket after the grant
    counters_.trials.record(r.probes);
    if (r.used_backup) ++counters_.backup_gets;
    held_.push_back(r.name);
    ++counters_.ops;
  }

  Array& array_;
  Rng& rng_;
  ChurnCounters& counters_;
  std::vector<std::uint64_t>& held_;
  Sink sink_;
  std::uint64_t run_end_;
  std::vector<std::uint64_t> victims_;
  std::vector<GetResult> got_;
};

}  // namespace la::bench
