// Targeted TSan regression: the word-scan Collect engine and the backup
// sweep racing concurrent Free/Get on a near-full deep batch. The stress
// matrix hits this only incidentally (collect() runs at quiescence
// there); this test pins a scanner thread on collect()/batch_occupancy
// the whole time churn workers run the structure at the edge of its
// contention bound — where Gets fall through to the backup sweep (a
// word scan of batch 0 from a random start) and deep batches sit near
// full, i.e. where slot_scan's 8-slots-per-load reads overlap the most
// writes.
//
// A second section runs the same shape against the sharded scale layer,
// where a concurrent collect() additionally *drains* the other threads'
// cache bins mid-churn — the cache-steal protocol under instrumentation.
//
// A third section churns the sharded layer through the *batch* surface
// (Get-k/Free-k, k<=4): multi-claim word scans, the fetch_add(k) gate
// with its partial-refusal refund, and whole-bin parking all race the
// scanner's collect()/drain_caches() steals.
//
// A fourth section pins the snapshot surfaces: the scanner alternates
// api::save() (a draining collect into a ckpt::Image) with the
// non-perturbing peek_held() while churn runs — the racy-snapshot reads
// behind checkpointing, under instrumentation.
//
// Assertions are racy-snapshot-shaped (a concurrent scan may see any
// interleaving — a non-atomic scan can even count a couple more slots
// than the instantaneous holds): every collected name in range, counts
// bounded by the slot space, and exact agreement once the run quiesces.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/snapshot.hpp"
#include "ckpt/image.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/thread_utils.hpp"

namespace {

int failures = 0;

#define CHECK_MSG(cond, msg)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "FAIL %s:%d: %s (%s)\n", __FILE__, __LINE__,   \
                   #cond, msg);                                           \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

// Churn workers near the contention bound + one scanner looping the
// collect surfaces. `scan` is called with (array, out_vector) and must
// return the number of names appended.
template <typename Array, typename Scan>
void run_race(Array& array, std::uint64_t capacity, std::uint32_t workers,
              std::uint64_t ops_per_worker, const char* what, Scan scan,
              const std::vector<std::uint64_t>& pre_held = {}) {
  // Near-full: leave two free names per worker so every Get terminates.
  const std::uint64_t target = (capacity - 2 * workers) / workers;
  std::atomic<bool> done{false};
  la::sync::SpinBarrier barrier(workers + 1);
  std::vector<std::vector<std::uint64_t>> leftovers(workers);
  std::vector<std::string> errors(workers);

  {
    la::sync::ThreadGroup group;
    group.spawn(workers, [&](std::uint32_t tid) {
      la::rng::MarsagliaXorshift rng(la::rng::mix_seed(2026, tid));
      std::vector<std::uint64_t>& held = leftovers[tid];
      held.reserve(static_cast<std::size_t>(target));
      try {
        barrier.wait();
        for (std::uint64_t op = 0; op < ops_per_worker; ++op) {
          if (held.size() >= target ||
              (!held.empty() && la::rng::bounded(rng, 4) == 0)) {
            const std::uint64_t victim = la::rng::bounded(rng, held.size());
            array.free(held[victim]);
            held[victim] = held.back();
            held.pop_back();
          } else {
            held.push_back(array.get(rng).name);
          }
        }
      } catch (const std::exception& e) {
        errors[tid] = e.what();
      }
      done.store(true, std::memory_order_release);
    });

    // Scanner: hammer the collect surfaces until the first worker
    // finishes (so scan count scales with machine speed, not a guess) —
    // but never fewer than a floor: on an oversubscribed single core the
    // scanner may not get a timeslice before then, and the floor scans
    // still race whichever workers are left running.
    constexpr std::uint64_t kMinScans = 50;
    barrier.wait();
    std::vector<std::uint64_t> out;
    std::uint64_t scans = 0;
    while (!done.load(std::memory_order_acquire) || scans < kMinScans) {
      out.clear();
      const std::size_t found = scan(array, out);
      CHECK_MSG(found == out.size(), what);
      CHECK_MSG(found <= array.total_slots(), what);
      for (const auto name : out) {
        if (name >= array.total_slots()) {
          CHECK_MSG(name < array.total_slots(), what);
          break;
        }
      }
      ++scans;
    }
    CHECK_MSG(scans > 0, what);
  }

  for (std::uint32_t tid = 0; tid < workers; ++tid) {
    CHECK_MSG(errors[tid].empty(), errors[tid].c_str());
  }

  // Quiescent: collect must now agree exactly with the leftovers.
  std::set<std::uint64_t> expected(pre_held.begin(), pre_held.end());
  for (const auto& held : leftovers) {
    expected.insert(held.begin(), held.end());
  }
  std::vector<std::uint64_t> collected;
  array.collect(collected);
  CHECK_MSG(std::set<std::uint64_t>(collected.begin(), collected.end()) ==
                expected,
            what);
  for (const auto& held : leftovers) {
    for (const auto name : held) array.free(name);
  }
  for (const auto name : pre_held) array.free(name);
  collected.clear();
  CHECK_MSG(array.collect(collected) == 0, what);
  std::printf("ok   %s\n", what);
}

// Batch-surface variant: workers exchange names in k<=4 batches. A
// worker takes whatever get_batch grants (the gate may refuse partially
// near the bound) and backs off on a zero grant instead of spinning —
// progress is guaranteed because a refused worker eventually frees.
template <typename Array>
void run_batch_race(Array& array, std::uint64_t capacity,
                    std::uint32_t workers, std::uint64_t ops_per_worker,
                    const char* what) {
  const std::uint64_t target = (capacity - 2 * workers) / workers;
  std::atomic<bool> done{false};
  la::sync::SpinBarrier barrier(workers + 1);
  std::vector<std::vector<std::uint64_t>> leftovers(workers);
  std::vector<std::string> errors(workers);

  {
    la::sync::ThreadGroup group;
    group.spawn(workers, [&](std::uint32_t tid) {
      la::rng::MarsagliaXorshift rng(la::rng::mix_seed(4096, tid));
      std::vector<std::uint64_t>& held = leftovers[tid];
      held.reserve(static_cast<std::size_t>(target));
      std::vector<la::GetResult> got(4);
      std::vector<std::uint64_t> victims(4);
      la::sync::Backoff backoff;
      try {
        barrier.wait();
        for (std::uint64_t op = 0; op < ops_per_worker; ++op) {
          if (held.size() >= target ||
              (!held.empty() && la::rng::bounded(rng, 4) == 0)) {
            std::size_t m =
                1 + static_cast<std::size_t>(la::rng::bounded(rng, 4));
            if (m > held.size()) m = held.size();
            for (std::size_t i = 0; i < m; ++i) {
              const std::uint64_t victim =
                  la::rng::bounded(rng, held.size());
              victims[i] = held[victim];
              held[victim] = held.back();
              held.pop_back();
            }
            array.free_batch(victims.data(), m);
          } else {
            std::size_t k =
                1 + static_cast<std::size_t>(la::rng::bounded(rng, 4));
            const std::uint64_t room = target - held.size();
            if (k > room) k = static_cast<std::size_t>(room);
            const std::size_t granted = array.get_batch(rng, got.data(), k);
            for (std::size_t i = 0; i < granted; ++i) {
              held.push_back(got[i].name);
            }
            if (granted == 0) backoff.pause();
          }
        }
      } catch (const std::exception& e) {
        errors[tid] = e.what();
      }
      done.store(true, std::memory_order_release);
    });

    constexpr std::uint64_t kMinScans = 50;
    barrier.wait();
    std::vector<std::uint64_t> out;
    std::uint64_t scans = 0;
    while (!done.load(std::memory_order_acquire) || scans < kMinScans) {
      // Alternate the full collect (which itself steals the bins) with a
      // bare drain_caches(), so the steal path also runs without the
      // scan right behind it.
      if ((scans & 1) != 0) array.drain_caches();
      out.clear();
      const std::size_t found = array.collect(out);
      CHECK_MSG(found == out.size(), what);
      CHECK_MSG(found <= array.total_slots(), what);
      for (const auto name : out) {
        if (name >= array.total_slots()) {
          CHECK_MSG(name < array.total_slots(), what);
          break;
        }
      }
      ++scans;
    }
    CHECK_MSG(scans > 0, what);
  }

  for (std::uint32_t tid = 0; tid < workers; ++tid) {
    CHECK_MSG(errors[tid].empty(), errors[tid].c_str());
  }

  std::set<std::uint64_t> expected;
  for (const auto& held : leftovers) {
    expected.insert(held.begin(), held.end());
  }
  std::vector<std::uint64_t> collected;
  array.collect(collected);
  CHECK_MSG(std::set<std::uint64_t>(collected.begin(), collected.end()) ==
                expected,
            what);
  for (const auto& held : leftovers) {
    if (!held.empty()) array.free_batch(held.data(), held.size());
  }
  collected.clear();
  CHECK_MSG(array.collect(collected) == 0, what);
  std::printf("ok   %s\n", what);
}

}  // namespace

int main() {
  using namespace la;
  constexpr std::uint64_t kCapacity = 256;
  constexpr std::uint32_t kWorkers = 3;
  constexpr std::uint64_t kOps = 40000;

  // LevelArray at the contention edge: seed the deepest batches full
  // first (the paper's bad state), so the scanner overlaps backup sweeps
  // and near-full deep batches from the first op.
  {
    core::LevelArrayConfig config;
    config.capacity = kCapacity;
    core::LevelArray array(config);
    std::vector<std::uint64_t> seeded;
    const std::uint32_t batches = array.geometry().num_batches();
    for (std::uint32_t k = 1; k < batches; ++k) {
      const auto names = array.seed_batch_occupancy(
          k, array.geometry().batch(k).size());
      seeded.insert(seeded.end(), names.begin(), names.end());
    }
    // Hand the seeded names to the run as pre-held ballast: free them
    // into the churn by releasing half up front.
    for (std::size_t i = 0; i < seeded.size(); i += 2) {
      array.free(seeded[i]);
    }
    std::vector<std::uint64_t> ballast;
    for (std::size_t i = 1; i < seeded.size(); i += 2) {
      ballast.push_back(seeded[i]);
    }
    const std::uint64_t free_capacity = kCapacity - ballast.size();
    run_race(array, free_capacity, kWorkers, kOps,
             "level/collect-vs-backup-sweep",
             [](core::LevelArray& a, std::vector<std::uint64_t>& out) {
               // Alternate all three scan surfaces.
               static int which = 0;
               switch (which++ % 3) {
                 case 0: return a.collect(out);
                 case 1: return a.collect_bytewise(out);
                 default: {
                   const auto occupancy = a.batch_occupancy();
                   std::size_t total = 0;
                   for (const auto n : occupancy) total += n;
                   (void)total;  // the read is the test; the value is racy
                   return a.collect(out);
                 }
               }
             },
             ballast);
  }

  // Sharded scale layer: the scanner's collect() drains the workers'
  // cache bins (exchange-steals) while they keep parking — the
  // cache-drain-vs-collect interaction under TSan.
  {
    scale::ShardedConfig config;
    config.shards = 4;
    config.cache_capacity = 16;
    scale::ShardedRenamer<core::LevelArray> array(
        config, [](std::uint32_t) {
          core::LevelArrayConfig inner;
          inner.capacity = kCapacity / 4;
          return std::make_unique<core::LevelArray>(inner);
        });
    run_race(array, kCapacity, kWorkers, kOps,
             "sharded:level/collect-drain-vs-park",
             [](scale::ShardedRenamer<core::LevelArray>& a,
                std::vector<std::uint64_t>& out) { return a.collect(out); });
  }

  // Sharded scale layer, batch surface: concurrent get_batch/free_batch
  // (amortized gate RMWs, multi-claim word scans, whole-bin parking)
  // racing collect() and bare drain_caches() steals.
  {
    scale::ShardedConfig config;
    config.shards = 4;
    config.cache_capacity = 16;
    scale::ShardedRenamer<core::LevelArray> array(
        config, [](std::uint32_t) {
          core::LevelArrayConfig inner;
          inner.capacity = kCapacity / 4;
          return std::make_unique<core::LevelArray>(inner);
        });
    run_batch_race(array, kCapacity, kWorkers, kOps,
                   "sharded:level/batch-churn-vs-collect-drain");
  }

  // Snapshot surfaces racing churn: api::save's draining collect and the
  // non-perturbing peek_held word scan, alternated while Get/Free runs —
  // exactly what a live checkpoint reads. Exactness is only claimed at
  // quiescence (run_race's final audit); mid-churn both are bounded racy
  // snapshots.
  {
    scale::ShardedConfig config;
    config.shards = 4;
    config.cache_capacity = 16;
    scale::ShardedRenamer<core::LevelArray> array(
        config, [](std::uint32_t) {
          core::LevelArrayConfig inner;
          inner.capacity = kCapacity / 4;
          return std::make_unique<core::LevelArray>(inner);
        });
    run_race(array, kCapacity, kWorkers, kOps,
             "sharded:level/snapshot-vs-churn",
             [](scale::ShardedRenamer<core::LevelArray>& a,
                std::vector<std::uint64_t>& out) -> std::size_t {
               static int which = 0;
               if (which++ % 2 == 0) {
                 const ckpt::Image image = api::save(a, "sharded:level");
                 out.assign(image.held.begin(), image.held.end());
                 return out.size();
               }
               return a.peek_held(out);
             });
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d collect race check(s) failed\n", failures);
    return 1;
  }
  std::puts("test_collect_race: OK");
  return 0;
}
