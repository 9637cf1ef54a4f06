// fig3_healing — reproduces the paper's Figure 3: the self-healing
// property. The array is initialized in a bad state (batch B0 a quarter
// full, batch B1 half full — overcrowded per Definition 2) and a typical
// register/deregister schedule runs from that state. A snapshot of each
// batch's fill percentage is taken every --snapshot-every operations
// (paper: 4000); the distribution smoothly returns to the balanced steady
// state, reaching it within ~32000 operations in the paper's runs.
//
// Output: one row per snapshot ("state" in the figure), one column per
// batch, cell = percentage of that batch's slots occupied.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util/options.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "sim/metrics.hpp"
#include "stats/table.hpp"

namespace {

void print_usage() {
  std::cout <<
      "fig3_healing: Fig. 3 — LevelArray batch distribution over time from\n"
      "a bad state\n"
      "  --capacity=1024        contention bound n (array has L = 2n slots)\n"
      "  --snapshots=8          number of states to print (paper: 8)\n"
      "  --snapshot-every=4000  operations between snapshots (paper: 4000)\n"
      "  --b0-fill=0.25         initial fill of batch 0 (paper: 1/4)\n"
      "  --b1-fill=0.5          initial fill of batch 1 (paper: 1/2)\n"
      "  --batches=7            batches to display (paper plots 7)\n"
      "  --seed=42              RNG seed (Marsaglia xorshift)\n"
      "  --csv                  emit CSV\n";
}

// One state of the figure: the Definition 2 verdict, then the fill % of
// each of the first show_batches batches.
void add_snapshot_row(la::stats::Table& table,
                      const la::core::LevelArray& array, std::uint64_t state,
                      std::uint64_t ops_done, std::uint32_t show_batches) {
  const auto occupancy = array.batch_occupancy();
  const auto report = la::sim::evaluate_balance(occupancy, array.capacity());
  std::vector<la::stats::Table::Cell> row(3 + show_batches);
  row[0] = state;
  row[1] = ops_done;
  row[2] = std::string(report.fully_balanced() ? "yes" : "NO");
  for (std::uint32_t b = 0; b < show_batches; ++b) {
    row[3 + b] = 100.0 * static_cast<double>(occupancy[b]) /
                 static_cast<double>(array.geometry().batch(b).size());
  }
  table.add_row(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace la;
  bench::Options opts(argc, argv);
  if (opts.has("help")) {
    print_usage();
    return 0;
  }

  const auto capacity = opts.get_uint("capacity", 1024);
  const auto snapshots = opts.get_uint("snapshots", 8);
  const auto snapshot_every = opts.get_uint("snapshot-every", 4000);
  const double b0_fill = opts.get_double("b0-fill", 0.25);
  const double b1_fill = opts.get_double("b1-fill", 0.5);
  const auto batches_flag = opts.get_uint("batches", 7);
  const auto seed = opts.get_uint("seed", 42);

  core::LevelArrayConfig config;
  config.capacity = capacity;
  core::LevelArray array(config);
  const core::Geometry& geometry = array.geometry();
  const auto show_batches = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(batches_flag, geometry.num_batches()));

  // Build the bad initial state; the seeded names form the churn pool, so
  // the schedule is compact (every held name is eventually freed).
  std::vector<std::uint64_t> pool;
  const auto b0 = array.seed_batch_occupancy(
      0, static_cast<std::uint64_t>(
             b0_fill * static_cast<double>(geometry.batch(0).size())));
  pool.insert(pool.end(), b0.begin(), b0.end());
  if (geometry.num_batches() > 1) {
    const auto b1 = array.seed_batch_occupancy(
        1, static_cast<std::uint64_t>(
               b1_fill * static_cast<double>(geometry.batch(1).size())));
    pool.insert(pool.end(), b1.begin(), b1.end());
  }

  std::cout << "# Figure 3: self-healing — batch fill % over time\n"
            << "# LevelArray, n = " << capacity
            << ", initial B0 fill = " << b0_fill << ", B1 fill = " << b1_fill
            << " (overcrowded: threshold "
            << sim::overcrowding_threshold(1, capacity) << " occupants)\n"
            << "# snapshot every " << snapshot_every << " ops\n"
            << "# note: the 'balanced' column applies the Definition 2 "
               "thresholds, which the paper calibrates for the analysis "
               "constants c_i >= 16; with the implementation's c_i = 1 "
               "the steady state sits near the deep-batch thresholds, so "
               "occasional NOs after convergence are expected.\n";

  std::vector<std::string> headers = {"state", "ops", "balanced"};
  for (std::uint32_t b = 0; b < show_batches; ++b) {
    headers.push_back("B" + std::to_string(b) + "_%full");
  }
  stats::Table table(std::move(headers), 1);

  rng::MarsagliaXorshift rng(seed);
  // The churn schedule needs at least one held name to recycle.
  if (pool.empty()) pool.push_back(array.get(rng).name);
  add_snapshot_row(table, array, 0, 0, show_batches);
  for (std::uint64_t state = 1; state < snapshots; ++state) {
    for (std::uint64_t op = 0; op < snapshot_every; ++op) {
      // Typical schedule: release a random held slot, register anew.
      const std::size_t victim = rng::bounded(rng, pool.size());
      array.free(pool[victim]);
      pool[victim] = array.get(rng).name;
    }
    add_snapshot_row(table, array, state, state * snapshot_every,
                     show_batches);
  }

  if (opts.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  for (const auto& key : opts.unused_keys()) {
    std::cerr << "warning: unused flag --" << key << "\n";
  }
  return 0;
}
