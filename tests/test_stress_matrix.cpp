// CI-sized stress matrix: every registered structure through every
// scenario with real threads, invariants checked on the merged event
// logs. Parameters are deliberately small (the suite also runs under
// ThreadSanitizer in CI, on few cores) — the full-size knobs live in the
// stress_runner CLI.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "stress/driver.hpp"

namespace {

int failures = 0;

void expect_ok(const la::stress::StressReport& report,
               const std::string& where) {
  if (!report.ok()) {
    ++failures;
    std::fprintf(stderr, "FAIL [%s]\n", where.c_str());
    for (const auto& violation : report.invariants.violations) {
      std::fprintf(stderr, "  violation: %s\n", violation.c_str());
    }
    if (report.balance_checked && !report.balanced) {
      std::fprintf(stderr, "  unbalanced: deep-batch fill %.3f\n",
                   report.heal_max_deep_fill);
    }
    return;
  }
  if (report.invariants.gets == 0) {
    ++failures;
    std::fprintf(stderr, "FAIL [%s] run performed no Gets\n", where.c_str());
  }
  std::printf("ok   %-28s events=%llu peak=%llu worst=%llu%s\n", where.c_str(),
              static_cast<unsigned long long>(report.invariants.events),
              static_cast<unsigned long long>(report.invariants.peak_concurrent),
              static_cast<unsigned long long>(report.trials.worst_case()),
              report.balance_checked ? " (balance checked)" : "");
}

// The checker must actually reject bad traces — a checker that passes
// everything would certify broken structures. Feed it synthetic
// violations of each invariant.
void check_rejects_bad_traces() {
  using la::stress::CheckConfig;
  using la::stress::Event;
  using la::stress::Op;

  CheckConfig config;
  config.total_slots = 8;
  config.max_concurrent = 2;
  config.reaper_thread = 9;

  const auto expect_violations = [&](std::vector<Event> trace,
                                     std::size_t count, const char* what) {
    const auto report = la::stress::check_trace(trace, config);
    if (report.violations.size() != count) {
      ++failures;
      std::fprintf(stderr, "FAIL checker[%s]: %zu violation(s), want %zu\n",
                   what, report.violations.size(), count);
      for (const auto& violation : report.violations) {
        std::fprintf(stderr, "  got: %s\n", violation.c_str());
      }
    }
  };

  // Clean trace: get/free by the same thread, reaper frees a leftover.
  expect_violations({{0, 3, 0, Op::kGet},
                     {1, 3, 0, Op::kFree},
                     {2, 5, 1, Op::kGet},
                     {3, 5, 9, Op::kFree}},
                    0, "clean");
  // Duplicate grant: name 3 handed to thread 1 while thread 0 holds it.
  expect_violations({{0, 3, 0, Op::kGet},
                     {1, 3, 1, Op::kGet},
                     {2, 3, 0, Op::kFree}},
                    1, "duplicate-grant");
  // Free of a name nobody holds (lost release / double free).
  expect_violations({{0, 3, 0, Op::kGet},
                     {1, 3, 0, Op::kFree},
                     {2, 3, 0, Op::kFree}},
                    1, "free-unheld");
  // Name outside [0, total_slots).
  expect_violations({{0, 8, 0, Op::kGet}, {1, 8, 0, Op::kFree}},
                    2, "out-of-range");
  // A worker freeing another worker's name (only the reaper may).
  expect_violations({{0, 3, 0, Op::kGet}, {1, 3, 1, Op::kFree}},
                    1, "wrong-thread-free");
  // Concurrency above the scenario bound.
  expect_violations({{0, 1, 0, Op::kGet},
                     {1, 2, 0, Op::kGet},
                     {2, 3, 0, Op::kGet},
                     {3, 1, 9, Op::kFree},
                     {4, 2, 9, Op::kFree},
                     {5, 3, 9, Op::kFree}},
                    1, "over-bound");
  // Leaked name at quiescence.
  expect_violations({{0, 3, 0, Op::kGet}}, 1, "leak");
  // Duplicate epochs mean the log itself is corrupt. (Two Gets of
  // distinct names, so the verdict is the same whichever way the
  // unstable sort orders the tie: one duplicate-epoch violation plus one
  // leak violation.)
  expect_violations({{7, 3, 0, Op::kGet}, {7, 4, 0, Op::kGet}},
                    2, "duplicate-epoch");
}

}  // namespace

int main() {
  using namespace la;

  check_rejects_bad_traces();

  // The full matrix at CI size: 4 threads on possibly 1-2 cores.
  for (const auto& info : api::registered_structures()) {
    for (const auto scenario : stress::all_scenarios()) {
      stress::StressConfig cfg;
      cfg.structure = std::string(info.name);
      cfg.scenario = scenario;
      cfg.threads = 4;
      cfg.ops_per_thread = 1500;
      cfg.capacity = 128;
      cfg.seed = 20260727;
      const std::string where =
          cfg.structure + "/" + std::string(stress::scenario_name(scenario));
      const auto report = stress::run_stress(cfg);
      expect_ok(report, where);
      // The healing window runs on the LevelArray and nowhere else: a
      // gate that stops matching it would drop the check silently.
      if (report.balance_checked != (cfg.structure == "level")) {
        ++failures;
        std::fprintf(stderr, "FAIL [%s] balance_checked is %s\n",
                     where.c_str(), report.balance_checked ? "set" : "unset");
      }
    }
  }

  // The acceptance bar: >= 8 real threads against the paper's structure
  // and the fastest comparison structure, steady and burst.
  for (const std::string structure : {"level", "random"}) {
    for (const auto scenario :
         {stress::Scenario::kSteady, stress::Scenario::kBurst}) {
      stress::StressConfig cfg;
      cfg.structure = structure;
      cfg.scenario = scenario;
      cfg.threads = 8;
      cfg.ops_per_thread = 1000;
      cfg.capacity = 256;
      cfg.seed = 99;
      expect_ok(stress::run_stress(cfg),
                structure + "/" +
                    std::string(stress::scenario_name(scenario)) + "@8t");
    }
  }

  // A timed-mode cell, so both budget paths stay covered.
  {
    stress::StressConfig cfg;
    cfg.structure = "level";
    cfg.scenario = stress::Scenario::kSteady;
    cfg.threads = 4;
    cfg.ops_per_thread = 0;
    cfg.seconds = 0.05;
    cfg.capacity = 128;
    expect_ok(stress::run_stress(cfg), "level/steady(timed)");
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d stress matrix cell(s) failed\n", failures);
    return 1;
  }
  std::puts("test_stress_matrix: OK");
  return 0;
}
