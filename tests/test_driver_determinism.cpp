// Determinism of the churn engine's seed plumbing: the same DriverConfig
// seed in single-thread op-count mode must yield bit-identical RunResult
// trial stats, for every registered structure and every registered probe
// RNG — and a different seed must actually change the probe stream for
// the randomized structures (i.e. the seed is plumbed, not ignored). The
// stress driver, which runs the same engine, must do the same for every
// scenario at one thread. Timing fields (elapsed/throughput) are
// wall-clock and excluded.
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "bench_util/algos.hpp"
#include "rng/rng.hpp"
#include "stress/driver.hpp"
#include "stress/scenario.hpp"

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

bool same_trials(const la::bench::RunResult& a, const la::bench::RunResult& b) {
  return a.trials.operations() == b.trials.operations() &&
         a.trials.worst_case() == b.trials.worst_case() &&
         a.trials.histogram() == b.trials.histogram() &&
         a.total_ops == b.total_ops && a.backup_gets == b.backup_gets &&
         a.mean_per_thread_worst == b.mean_per_thread_worst;
}

la::bench::SweepPoint point_for(std::uint64_t seed, la::rng::RngKind kind) {
  la::bench::SweepPoint point;
  point.driver.threads = 1;
  point.driver.emulation_multiplier = 256;
  point.driver.prefill = 0.5;
  point.driver.ops_per_thread = 4096;
  point.driver.seed = seed;
  point.driver.rng_kind = kind;
  return point;
}

bool same_report(const la::stress::StressReport& a,
                 const la::stress::StressReport& b) {
  return a.trials.operations() == b.trials.operations() &&
         a.trials.histogram() == b.trials.histogram() &&
         a.total_ops == b.total_ops && a.backup_gets == b.backup_gets &&
         a.timeouts == b.timeouts;
}

la::stress::StressConfig stress_config(const std::string& structure,
                                       la::stress::Scenario scenario,
                                       std::uint64_t seed) {
  la::stress::StressConfig cfg;
  cfg.structure = structure;
  cfg.scenario = scenario;
  cfg.threads = 1;
  cfg.ops_per_thread = 4000;
  cfg.seed = seed;
  return cfg;
}

// fn() run while `idle` extra threads are alive, so the threads fn
// spawns get other stacks, and so other thread ids, than in a plain run.
template <typename Fn>
auto with_idle_threads(int idle, Fn fn) {
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::vector<std::thread> threads;
  for (int i = 0; i < idle; ++i) {
    threads.emplace_back([released] { released.wait(); });
  }
  auto result = fn();
  release.set_value();
  for (auto& t : threads) t.join();
  return result;
}

}  // namespace

int main() {
  using namespace la;

  const std::vector<std::string> randomized = {"level", "random", "linear",
                                               "bitmap", "id"};
  // Exempt from the reseed check below: seq/splitter are deterministic
  // by design, and the sharded variants' churn histograms are almost
  // all cache hits (probes == 1), so two seeds can legitimately
  // coincide. Same-seed bit-identity must still hold for all of them —
  // including the scale layer's claim-order and park/pop plumbing over
  // every inner structure.
  std::vector<std::string> deterministic = {"seq", "splitter"};
  for (const auto& name : api::registered_names()) {
    if (name.rfind("sharded:", 0) == 0) deterministic.push_back(name);
  }
  const std::vector<rng::RngKind> kinds = {
      rng::RngKind::kMarsaglia, rng::RngKind::kLehmer, rng::RngKind::kPcg32};

  for (const auto kind : kinds) {
    auto all = randomized;
    all.insert(all.end(), deterministic.begin(), deterministic.end());
    for (const auto& algo : all) {
      current = algo;
      const auto a = bench::run_algo(algo, point_for(42, kind));
      const auto b = bench::run_algo(algo, point_for(42, kind));
      CHECK(a.trials.operations() > 0);
      CHECK(same_trials(a, b));
    }
    // Seed actually reaches the probe streams: a different seed must move
    // the exact trial histogram (longrun_stability's per-chunk seeds rely
    // on it). Only the structures whose histograms
    // carry real entropy at this load participate — `id` runs at 1/16
    // load where nearly every Get is one probe, so two seeds can
    // plausibly produce identical histograms; it shares drive()'s seed
    // path with `random` anyway. The deterministic structures are exempt
    // by design.
    for (const std::string algo : {"level", "random", "linear", "bitmap"}) {
      current = algo + "/reseed";
      const auto a = bench::run_algo(algo, point_for(42, kind));
      const auto c = bench::run_algo(algo, point_for(43, kind));
      CHECK(!same_trials(a, c));
    }
  }

  // The uncached scale layer: a thread's home shard comes from its
  // attachment slot, not its thread id, so the same seed replays the
  // same probe stream whichever thread ids the workers get.
  for (const std::string algo : {"sharded:level", "sharded:linear"}) {
    current = algo + "/cache=0";
    auto point = point_for(42, rng::RngKind::kMarsaglia);
    point.name_cache_capacity = 0;
    const auto a = bench::run_algo(algo, point);
    CHECK(a.trials.operations() > 0);
    for (int idle = 0; idle <= 3; ++idle) {
      const auto b = with_idle_threads(
          idle, [&] { return bench::run_algo(algo, point); });
      CHECK(same_trials(a, b));
    }
  }

  // run_stress at one thread: no interleaving left to vary, so the seed
  // alone fixes every scenario's report.
  for (const std::string structure : {"level", "sharded:level"}) {
    for (const auto scenario : stress::all_scenarios()) {
      current = structure + "/" + std::string(stress::scenario_name(scenario));
      const auto a = stress::run_stress(stress_config(structure, scenario, 42));
      const auto b = stress::run_stress(stress_config(structure, scenario, 42));
      const auto c = stress::run_stress(stress_config(structure, scenario, 43));
      CHECK(a.ok() && b.ok() && c.ok());
      CHECK(a.trials.operations() > 0);
      CHECK(same_report(a, b));
      CHECK(!same_report(a, c));
    }
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d determinism check(s) failed\n", failures);
    return 1;
  }
  std::puts("test_driver_determinism: OK");
  return 0;
}
