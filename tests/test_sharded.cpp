// Unit tests for the scale layer's own machinery — the pieces the
// generic harnesses (contract walk, stress matrix, model fuzz) exercise
// but never observe directly: cache hit accounting, bounded overflow
// flushes, drain-on-collect, the global-miss drain that reclaims parked
// capacity, thread-exit flushing with cache-slot recycling across thread
// generations, the uncached overflow mode past max_threads, the
// name-routing edges (stride gaps, per-shard gates), and that every
// single-name Get entry is the inner structure's own probe walk.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/renamer.hpp"
#include "arrays/random_array.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "sync/futex.hpp"

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

// A deadline no test Get should reach: 60 s.
constexpr std::uint64_t kFarNs = 60'000'000'000ULL;

Sharded make_sharded(la::scale::ShardedConfig config,
                     std::uint64_t shard_capacity) {
  return Sharded(config, [shard_capacity](std::uint32_t) {
    la::core::LevelArrayConfig inner;
    inner.capacity = shard_capacity;
    return std::make_unique<la::core::LevelArray>(inner);
  });
}

void check_cache_hits_and_flush() {
  current = "cache-hits-and-flush";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 4;
  Sharded array = make_sharded(config, 16);
  la::rng::MarsagliaXorshift rng(1);

  // Park more than the cache holds: the overflow flush must bound it.
  std::vector<std::uint64_t> names;
  for (int i = 0; i < 10; ++i) names.push_back(array.get(rng).name);
  for (const auto name : names) array.free(name);
  auto stats = array.stats();
  CHECK(stats.parked_frees == 10);
  CHECK(stats.shared_gets == 10);
  CHECK(stats.cache_hits == 0);

  // The next Gets pop parked names (most recent first), then fall back
  // to the shards for what was flushed.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10; ++i) CHECK(seen.insert(array.get(rng).name).second);
  stats = array.stats();
  CHECK(stats.cache_hits >= 1);
  CHECK(stats.cache_hits <= 4);  // never more than the cache holds

  // LIFO: an immediate free + get round-trips the same name as a hit.
  const std::uint64_t name = *seen.begin();
  array.free(name);
  const auto r = array.get(rng);
  CHECK(r.name == name);
  CHECK(r.probes == 1);

  for (const auto held : seen) array.free(held);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

void check_drain_restores_shards() {
  current = "drain-restores-shards";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 8;
  Sharded array = make_sharded(config, 8);
  la::rng::MarsagliaXorshift rng(2);

  std::vector<std::uint64_t> names;
  for (int i = 0; i < 6; ++i) names.push_back(array.get(rng).name);
  for (const auto name : names) array.free(name);

  // Parked: the shards still see the slots as occupied.
  std::vector<std::uint64_t> inner_names;
  std::size_t inner_held = array.shard(0).collect(inner_names) +
                           array.shard(1).collect(inner_names);
  CHECK(inner_held == 6);

  array.drain_caches();
  inner_names.clear();
  inner_held = array.shard(0).collect(inner_names) +
               array.shard(1).collect(inner_names);
  CHECK(inner_held == 0);
  CHECK(array.stats().cache_drains >= 1);
}

// `timed` takes the global-miss Get through get_for with a finite
// deadline instead of get: the reclaim must not depend on the entry.
void check_global_miss_reclaims_parked(bool timed) {
  current = timed ? "global-miss-reclaim/get_for" : "global-miss-reclaim/get";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 8;
  Sharded array = make_sharded(config, 4);  // total capacity 8
  la::rng::MarsagliaXorshift rng(3);

  // Main holds shard 0's whole gate; a live worker saturates shard 1 and
  // parks everything in its own cache — the worker must stay alive, or
  // its exit hook would flush the cache and defuse the scenario.
  std::vector<std::uint64_t> held;
  for (int i = 0; i < 4; ++i) held.push_back(array.get(rng).name);
  std::atomic<int> phase{0};
  std::thread worker([&array, &phase] {
    la::rng::MarsagliaXorshift worker_rng(4);
    std::vector<std::uint64_t> names;
    for (int i = 0; i < 4; ++i) names.push_back(array.get(worker_rng).name);
    for (const auto name : names) array.free(name);  // all parked
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
  });
  while (phase.load(std::memory_order_acquire) < 1) {
    std::this_thread::yield();
  }

  // Main's cache is empty and both gates are saturated (holds + the
  // worker's parked slots). This Get must steal-drain the worker's bins
  // and then succeed — termination, not livelock.
  la::GetResult r;
  if (timed) {
    CHECK(array.get_for(rng, r,
                        la::sync::FutexWord::monotonic_now_ns() + kFarNs));
  } else {
    r = array.get(rng);
  }
  CHECK(r.name < array.total_slots());
  held.push_back(r.name);
  CHECK(array.stats().cache_drains >= 1);
  phase.store(2, std::memory_order_release);
  worker.join();
  for (const auto name : held) array.free(name);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

void check_thread_exit_flush_and_slot_reuse() {
  current = "thread-exit-flush";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 8;
  config.max_threads = 2;  // force slot recycling across generations
  Sharded array = make_sharded(config, 16);

  // Generations of short-lived threads: each parks names and exits; the
  // exit hook must flush them back (else later generations starve) and
  // recycle the cache slot (else generation 3+ runs uncached).
  for (int generation = 0; generation < 6; ++generation) {
    std::thread worker([&array] {
      la::rng::MarsagliaXorshift rng(7);
      std::vector<std::uint64_t> names;
      for (int i = 0; i < 6; ++i) names.push_back(array.get(rng).name);
      for (const auto name : names) array.free(name);
      // Exits with 6 names parked in its cache.
    });
    worker.join();
    // After the join, the exited thread's cache must be empty: the
    // shards hold nothing and a collect (which drains) finds nothing.
    std::vector<std::uint64_t> collected;
    CHECK(array.collect(collected) == 0);
    std::vector<std::uint64_t> inner_names;
    CHECK(array.shard(0).collect(inner_names) +
              array.shard(1).collect(inner_names) ==
          0);
  }
  // Every generation after the first must have re-used a recycled slot
  // and still parked (i.e. it did not fall into the uncached mode).
  CHECK(array.stats().parked_frees == 6 * 6);
}

void check_uncached_overflow_mode() {
  current = "uncached-overflow";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 4;
  config.max_threads = 1;  // the main thread claims the only slot
  Sharded array = make_sharded(config, 16);
  la::rng::MarsagliaXorshift rng(9);

  // Main thread claims the slot...
  const auto first = array.get(rng);
  // ...so a second thread runs uncached: its frees go straight to the
  // shards and its gets all come from the shards, yet stay correct.
  std::thread worker([&array] {
    la::rng::MarsagliaXorshift worker_rng(10);
    std::set<std::uint64_t> names;
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 8; ++i) {
        const auto r = array.get(worker_rng);
        if (!names.insert(r.name).second) {
          throw std::logic_error("uncached worker got a duplicate");
        }
      }
      for (const auto name : names) array.free(name);
      names.clear();
    }
  });
  worker.join();
  const auto stats = array.stats();
  CHECK(stats.direct_frees == 3 * 8);
  array.free(first.name);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

void check_routing_edges() {
  current = "routing-edges";
  la::scale::ShardedConfig config;
  config.shards = 3;
  config.cache_capacity = 0;  // exercise the cache-disabled mode too
  Sharded array = make_sharded(config, 5);
  la::rng::MarsagliaXorshift rng(11);

  CHECK(array.num_shards() == 3);
  CHECK(array.capacity() == 15);
  // Stride is the inner slot count (10) rounded up to a power of two.
  CHECK(array.shard_stride() == 16);
  CHECK(array.total_slots() == 48);

  // A name inside the stride gap (local 10..15 of shard 0) is out of
  // range even though it is below total_slots().
  bool threw = false;
  try {
    array.free(12);
  } catch (const std::out_of_range&) {
    threw = true;
  }
  CHECK(threw);

  // With caching off, a free+get pair round-trips through the shard.
  const auto r = array.get(rng);
  array.free(r.name);
  const auto stats = array.stats();
  CHECK(stats.parked_frees == 0);
  CHECK(stats.cache_hits == 0);
  CHECK(stats.direct_frees == 1);
  CHECK(stats.shared_gets == 1);

  // Zero shards is promoted to one, and the capacity survives.
  la::scale::ShardedConfig degenerate;
  degenerate.shards = 0;
  Sharded one = make_sharded(degenerate, 4);
  CHECK(one.num_shards() == 1);
  CHECK(one.capacity() == 4);
}

std::uint64_t gate_sum(const Sharded& array) {
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < array.num_shards(); ++s) {
    total += array.gate_occupancy(s);
  }
  return total;
}

void check_batch_partial_refusal_and_refund() {
  current = "batch-partial-refusal";
  la::scale::ShardedConfig config;
  config.shards = 4;
  config.cache_capacity = 0;  // every exchange hits the gates directly
  Sharded array = make_sharded(config, 16);  // capacity 64
  la::rng::MarsagliaXorshift rng(21);

  // Ask for more than the whole structure holds: the grant must stop at
  // capacity exactly, and the refused remainder must be refunded at the
  // gates (not leak as phantom occupancy).
  std::vector<la::GetResult> got(80);
  const std::size_t granted = array.get_batch(rng, got.data(), 80);
  CHECK(granted == 64);
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < granted; ++i) {
    CHECK(seen.insert(got[i].name).second);
    CHECK(got[i].probes >= 1);
  }
  CHECK(gate_sum(array) == 64);

  // Saturated: a further batch must refuse outright (grant zero), again
  // without disturbing the gates.
  CHECK(array.get_batch(rng, got.data(), 8) == 0);
  CHECK(gate_sum(array) == 64);

  // Free everything in one batch; with the cache off the gates must
  // read exactly empty, and the full capacity must be re-claimable.
  std::vector<std::uint64_t> names(seen.begin(), seen.end());
  array.free_batch(names.data(), names.size());
  CHECK(gate_sum(array) == 0);
  CHECK(array.get_batch(rng, got.data(), 64) == 64);
  for (std::size_t i = 0; i < 64; ++i) names[i] = got[i].name;
  array.free_batch(names.data(), 64);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

void check_batch_gate_accounting_with_cache() {
  current = "batch-gate-accounting";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 8;
  Sharded array = make_sharded(config, 8);  // capacity 16
  la::rng::MarsagliaXorshift rng(22);

  std::vector<la::GetResult> got(16);
  CHECK(array.get_batch(rng, got.data(), 16) == 16);
  std::vector<std::uint64_t> names;
  for (const auto& r : got) names.push_back(r.name);

  // Free 10: the first 8 park in this thread's cache (still counted at
  // the gate — parked slots are occupied), the overflow 2 release
  // directly. Gate total must be holds (6) + parked (8).
  array.free_batch(names.data(), 10);
  CHECK(gate_sum(array) == 14);
  CHECK(array.stats().parked_frees == 8);
  CHECK(array.stats().direct_frees == 2);

  // Draining the parked names must hand their gate slots back exactly.
  array.drain_caches();
  CHECK(gate_sum(array) == 6);
  array.free_batch(names.data() + 10, 6);
  array.drain_caches();
  CHECK(gate_sum(array) == 0);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

void check_batch_error_contract() {
  current = "batch-error-contract";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 4;
  Sharded array = make_sharded(config, 8);
  la::rng::MarsagliaXorshift rng(23);

  std::vector<la::GetResult> got(3);
  CHECK(array.get_batch(rng, got.data(), 3) == 3);

  // A bad name mid-batch: names before it are freed, the throw surfaces,
  // names after it stay held.
  std::uint64_t bad_batch[3] = {got[0].name, array.total_slots() + 7,
                                got[1].name};
  bool threw = false;
  try {
    array.free_batch(bad_batch, 3);
  } catch (const std::out_of_range&) {
    threw = true;
  }
  CHECK(threw);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 2);
  std::set<std::uint64_t> left(collected.begin(), collected.end());
  CHECK(left.count(got[1].name) == 1);
  CHECK(left.count(got[2].name) == 1);

  // A duplicate within one batch is a double free: the first occurrence
  // frees, the second throws.
  std::uint64_t dup_batch[2] = {got[1].name, got[1].name};
  threw = false;
  try {
    array.free_batch(dup_batch, 2);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
  collected.clear();
  CHECK(array.collect(collected) == 1);
  CHECK(collected[0] == got[2].name);
  array.free(got[2].name);
  collected.clear();
  CHECK(array.collect(collected) == 0);
}

void check_batch_fallback_surface() {
  current = "batch-fallback";
  // A structure with no native batch ops rides the api loop: full grant,
  // unique names, frees restore emptiness.
  la::arrays::RandomArray array(32, 16);
  la::rng::MarsagliaXorshift rng(24);
  std::vector<la::GetResult> got(10);
  CHECK(la::api::get_batch(array, rng, got.data(), 10) == 10);
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> names;
  for (const auto& r : got) {
    CHECK(seen.insert(r.name).second);
    names.push_back(r.name);
  }
  la::api::free_batch(array, names.data(), names.size());
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

// One name is the paper's Get: with one shard and no cache, get,
// get_for and get_batch with k = 1 must each run the inner LevelArray's
// own probe walk — the same name, probes and deepest batch as a flat
// LevelArray driven by the same seed, through a fill to the bound and
// churn at it.
void check_single_get_is_the_inner_walk() {
  constexpr std::uint64_t kCapacity = 64;
  const char* const kEntries[] = {"get", "get_for", "get_batch(1)"};
  for (int entry = 0; entry < 3; ++entry) {
    current = std::string("single-get-is-inner-walk/") + kEntries[entry];
    la::scale::ShardedConfig config;
    config.shards = 1;
    config.cache_capacity = 0;
    Sharded array = make_sharded(config, kCapacity);
    la::core::LevelArrayConfig flat_config;
    flat_config.capacity = kCapacity;
    la::core::LevelArray flat(flat_config);
    la::rng::MarsagliaXorshift rng(31);
    la::rng::MarsagliaXorshift flat_rng(31);

    // Each side frees its own names, so a divergence is counted, not
    // turned into a double free.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> held;
    std::uint64_t mismatches = 0;
    auto step = [&] {
      la::GetResult got;
      if (entry == 0) {
        got = array.get(rng);
      } else if (entry == 1) {
        CHECK(array.get_for(rng, got,
                            la::sync::FutexWord::monotonic_now_ns() + kFarNs));
      } else {
        CHECK(array.get_batch(rng, &got, 1) == 1);
      }
      const la::GetResult want = flat.get(flat_rng);
      if (got.name != want.name || got.probes != want.probes ||
          got.deepest_batch != want.deepest_batch) {
        ++mismatches;
      }
      held.emplace_back(got.name, want.name);
    };
    for (std::uint64_t i = 0; i < kCapacity; ++i) step();
    for (std::uint64_t i = 0; i < 4 * kCapacity; ++i) {
      const std::size_t victim = (i * 7) % held.size();
      array.free(held[victim].first);
      flat.free(held[victim].second);
      held[victim] = held.back();
      held.pop_back();
      step();
    }
    CHECK(mismatches == 0);
    for (const auto& names : held) array.free(names.first);
  }
}

}  // namespace

int main() {
  check_cache_hits_and_flush();
  check_drain_restores_shards();
  check_global_miss_reclaims_parked(/*timed=*/false);
  check_global_miss_reclaims_parked(/*timed=*/true);
  check_single_get_is_the_inner_walk();
  check_thread_exit_flush_and_slot_reuse();
  check_uncached_overflow_mode();
  check_routing_edges();
  check_batch_partial_refusal_and_refund();
  check_batch_gate_accounting_with_cache();
  check_batch_error_contract();
  check_batch_fallback_surface();

  if (failures != 0) {
    std::fprintf(stderr, "%d sharded scale-layer check(s) failed\n",
                 failures);
    return 1;
  }
  std::puts("test_sharded: OK");
  return 0;
}
