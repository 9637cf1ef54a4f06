// The third backoff tier and the blocked-Get park/wake path it enables:
// tier transitions of sync::Backoff itself; a ShardedRenamer Get that
// provably parks on the structure's wait queue and is woken by a Free
// (not by a timeout — we wait for the parks counter before releasing, so
// a lost wakeup would hang the test into its ctest timeout); the
// lost-wakeup regression for the Free's fenceless wake, 10k rounds of an
// untimed parked Get against single cached Frees under a watchdog; and
// an oversubscribed batched churn (demand far above the contention
// bound) that must run to completion through the drive loop's
// get_batch_for retries, with the run's end as the deadline.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/renamer.hpp"
#include "bench_util/algos.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "sync/spin_barrier.hpp"

namespace {

int failures = 0;
std::string current;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "FAIL [%s] %s:%d: %s\n", current.c_str(),      \
                   __FILE__, __LINE__, #cond);                            \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

using Sharded = la::scale::ShardedRenamer<la::core::LevelArray>;

Sharded make_sharded(std::uint32_t shards, std::uint64_t shard_capacity) {
  la::scale::ShardedConfig config;
  config.shards = shards;
  return Sharded(config, [shard_capacity](std::uint32_t) {
    la::core::LevelArrayConfig inner;
    inner.capacity = shard_capacity;
    return std::make_unique<la::core::LevelArray>(inner);
  });
}

void check_backoff_tiers() {
  current = "backoff-tiers";
  la::sync::Backoff backoff;
  CHECK(!backoff.should_park());
  // Spin tier (256) + yield tier (64): parking is advised only after
  // both are spent, and one pause short of the boundary is still "spin".
  for (int i = 0; i < 319; ++i) backoff.pause();
  CHECK(!backoff.should_park());
  backoff.pause();
  CHECK(backoff.should_park());
  // Once over the boundary it stays advised until reset.
  backoff.pause();
  CHECK(backoff.should_park());
  backoff.reset();
  CHECK(!backoff.should_park());
}

// A Get against a fully-held array must park on the wait queue and be
// woken by the Free. The releasing thread waits until the getter has
// provably parked (wait_stats().parks advances) before freeing, so the
// wake cannot be explained by the spin or yield tiers: if the wakeup
// were lost, the getter would sleep and the test would hang.
void check_parked_get_woken_by_free() {
  current = "parked-get-woken-by-free";
  Sharded array = make_sharded(2, 4);  // contention bound 8
  la::rng::MarsagliaXorshift rng(3);

  std::vector<std::uint64_t> held;
  for (int i = 0; i < 8; ++i) held.push_back(array.get(rng).name);

  const std::uint64_t before_parks = array.wait_stats().parks;
  std::atomic<bool> got{false};
  std::atomic<std::uint64_t> got_name{0};
  std::thread getter([&] {
    la::rng::MarsagliaXorshift rng2(5);
    const la::GetResult r = array.get(rng2);  // blocks until capacity
    got_name.store(r.name, std::memory_order_relaxed);
    got.store(true, std::memory_order_release);
  });

  // Wait for a real park, then assert the getter is still blocked.
  la::sync::Backoff backoff;
  while (array.wait_stats().parks == before_parks) backoff.pause();
  CHECK(!got.load(std::memory_order_acquire));

  array.free(held.back());
  getter.join();
  CHECK(got.load(std::memory_order_acquire));
  held.pop_back();
  // The woken Get may land on any free slot (L = 2n leaves slack), but
  // never on one still held.
  for (const auto name : held) {
    CHECK(got_name.load(std::memory_order_relaxed) != name);
  }

  const la::api::WaitStats waits = array.wait_stats();
  CHECK(waits.parks > before_parks);
  CHECK(waits.wait_rounds >= waits.parks);  // rounds precede every park

  for (const auto name : held) array.free(name);
  std::vector<std::uint64_t> leftovers;
  CHECK(array.collect(leftovers) == 1);  // the getter's name
  array.free(got_name.load(std::memory_order_relaxed));
}

// The Free's wake has no fence: the park exchange (a seq_cst RMW) is the
// release, wake_one's count_ read follows it, and the parking Get's
// count_ increment and probe_capacity loads are seq_cst too. Here a
// holder keeps a one-shard structure at its contention bound and a
// getter blocks in an untimed get(). Each round the holder frees one
// name through its cache (park into its own bin, then wake_one) at one
// of three moments: at once, racing the getter's sweep and drain; as
// the getter's refusal rounds reach the park threshold, racing
// prepare_wait and the probe; or once the getter has provably parked.
// The getter frees its name back and the holder re-takes it (draining
// the getter's bin), so every round starts at the bound. A lost wakeup
// leaves the getter asleep for good: the watchdog fails the test when
// no round completes for 20 s.
void check_cached_free_wakes_parked_get() {
  current = "cached-free-wakes-parked-get";
  la::scale::ShardedConfig config;
  config.shards = 1;
  config.cache_capacity = 4;  // a small cache keeps each drain cheap
  config.max_threads = 4;
  Sharded array(config, [](std::uint32_t) {
    la::core::LevelArrayConfig inner;
    inner.capacity = 2;
    return std::make_unique<la::core::LevelArray>(inner);
  });
  // Refusal rounds a Get spends before it parks: one per Backoff pause.
  std::uint64_t park_round = 1;
  for (la::sync::Backoff b; !b.should_park(); b.pause()) ++park_round;

  constexpr std::uint64_t kRounds = 10000;
  std::atomic<std::uint64_t> ready{0};    // holder at the bound, round r
  std::atomic<std::uint64_t> started{0};  // getter entering get(), round r
  std::atomic<std::uint64_t> done{0};     // getter granted and freed, round r
  const auto wait_for = [](const std::atomic<std::uint64_t>& word,
                           std::uint64_t r) {
    la::sync::Backoff backoff;
    while (word.load(std::memory_order_acquire) < r) backoff.pause();
  };
  const std::uint64_t parks_before = array.wait_stats().parks;

  std::thread holder([&] {
    la::rng::MarsagliaXorshift rng(11);
    std::vector<std::uint64_t> held;
    while (held.size() < array.capacity()) {
      held.push_back(array.get(rng).name);
    }
    for (std::uint64_t r = 1; r <= kRounds; ++r) {
      const la::api::WaitStats base = array.wait_stats();
      ready.store(r, std::memory_order_release);
      wait_for(started, r);
      const auto parked = [&] { return array.wait_stats().parks > base.parks; };
      la::sync::Backoff backoff;
      if (r % 3 == 1) {
        const std::uint64_t target = base.wait_rounds + park_round - r / 3 % 6;
        while (array.wait_stats().wait_rounds < target && !parked()) {
          backoff.pause();
        }
      } else if (r % 3 == 2) {
        while (!parked()) backoff.pause();
      }
      array.free(held.back());  // cached: the holder's bins are empty
      held.pop_back();
      wait_for(done, r);
      held.push_back(array.get(rng).name);  // drains the getter's bin
    }
    for (const auto name : held) array.free(name);
  });
  std::thread getter([&] {
    la::rng::MarsagliaXorshift rng(13);
    for (std::uint64_t r = 1; r <= kRounds; ++r) {
      wait_for(ready, r);
      started.store(r, std::memory_order_release);
      const la::GetResult got = array.get(rng);  // untimed: blocks
      array.free(got.name);
      done.store(r, std::memory_order_release);
    }
  });

  std::uint64_t last = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (last < kRounds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::uint64_t now_done = done.load(std::memory_order_acquire);
    const auto now = std::chrono::steady_clock::now();
    if (now_done != last) {
      last = now_done;
      last_progress = now;
    } else if (now - last_progress > std::chrono::seconds(20)) {
      // The threads are stuck and cannot be joined: report and exit.
      std::fprintf(stderr,
                   "FAIL [%s] round %llu made no progress for 20 s: the "
                   "parked Get missed its wakeup\n",
                   current.c_str(),
                   static_cast<unsigned long long>(last + 1));
      std::fflush(stderr);
      std::_Exit(1);
    }
  }
  holder.join();
  getter.join();
  // Every third round parks provably before its Free.
  CHECK(array.wait_stats().parks - parks_before >= kRounds / 3);
  std::vector<std::uint64_t> leftovers;
  CHECK(array.collect(leftovers) == 0);
}

// Oversubscription through the real drive loop: 4 threads churning
// batches of 8 against a contention bound of 24 — steady-state demand
// (32) structurally exceeds the bound, so refusals are constant and
// threads retry through api::get_batch_for, which waits (and parks) on
// the structure's own wait queue. Timed mode, because that is the drive
// loop's oversubscription contract: the run's end is the retries'
// deadline, so a thread parked on a batch that never fits still exits.
void check_oversubscribed_churn_completes() {
  current = "oversubscribed-churn";
  Sharded array = make_sharded(4, 6);  // contention bound 24
  la::bench::DriverConfig driver;
  driver.threads = 4;
  driver.emulation_multiplier = 8;  // demand N = 32 > the bound
  driver.prefill = 0.5;             // 16 held up front, within the bound
  driver.ops_per_thread = 0;
  driver.seconds = 0.25;
  driver.batch = 8;
  const la::bench::RunResult result =
      la::bench::detail::drive<Sharded, la::rng::MarsagliaXorshift>(array,
                                                                    driver);
  CHECK(result.total_ops > 0);
  // The refusal traffic must be visible in the wait accounting (the
  // structure's own gate rounds, via api::WaitStats).
  CHECK(result.gate_wait_rounds > 0);
  std::vector<std::uint64_t> leftovers;
  CHECK(array.collect(leftovers) == 0);
}

}  // namespace

int main() {
  check_backoff_tiers();
  check_parked_get_woken_by_free();
  check_cached_free_wakes_parked_get();
  check_oversubscribed_churn_completes();
  if (failures == 0) {
    std::printf("test_backoff_park: all checks passed\n");
    return 0;
  }
  std::printf("test_backoff_park: %d check(s) FAILED\n", failures);
  return 1;
}
