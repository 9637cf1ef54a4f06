// sweep — the paper's §6 workload in one driver: back-to-back Free+Get
// churn by n threads emulating N = mult * n registrants over
// L = size-factor * N slots, a prefill fraction held up front. Each
// SweepPoint field is a list-valued flag; the driver runs their cartesian
// product (algo outermost, threads innermost), one row per point.
//
// Fig. 2 and each of the paper's in-text claims vary one axis:
//   Fig. 2 top-left, throughput:     sweep --seconds=0.5
//   Fig. 2 avg/stddev/worst trials:  sweep
//   "similar for 0-90% pre-fill":    sweep --threads=4
//                                      --prefill=0,0.25,0.5,0.75,0.9
//   "L between 2N and 4N":           sweep --threads=4
//                                      --size-factor=2,2.5,3,4
//   "c_i > 1 similar, slower":       sweep --threads=4 --algo=level
//                                      --ci=1,2,3,4
//   "Marsaglia vs Park-Miller":      sweep --threads=4 --algo=level
//                                      --rng=marsaglia,lehmer,pcg32
// and, beyond the paper, thread scaling of the scale layer (the committed
// BENCH_scaling.json; scripts/validate_bench_json.py --scaling-gate=8):
//   sweep --seconds=0.5 --mult=200000 --algo=level,sharded:level
//
// Op-count mode (--ops, the default) is reproducible run to run; timed
// mode (--seconds) measures throughput, as the paper does. A malformed
// flag exits 1 with the message and --help on stderr.
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>

#include "bench_util/algos.hpp"
#include "bench_util/options.hpp"
#include "bench_util/report.hpp"
#include "stats/table.hpp"

namespace {

using namespace la;

constexpr const char* kUsage =
    "sweep: §6 churn (Fig. 2 and the in-text claims) over the cartesian\n"
    "product of every list-valued flag; algo outermost, threads innermost\n"
    "  --algo=level,random,linear  structures (any registered name/alias;\n"
    "                      'all' = every registered structure)\n"
    "  --threads=1,2,4,8   thread counts\n"
    "  --mult=1000         emulated registrants per thread (N = mult*n)\n"
    "  --prefill=0.5       pre-fill fractions (paper: 0..0.9)\n"
    "  --size-factor=2.0   L = size-factor * N (paper: 2..4)\n"
    "  --ci=1              LevelArray probes per batch, 1..255\n"
    "  --rng=marsaglia     probe RNGs (marsaglia | lehmer | pcg32)\n"
    "  --batch=1           names per Free-k/Get-k exchange (>1 routes\n"
    "                      through the batch surface)\n"
    "  --shards=8          shard count S (sharded:* only)\n"
    "  --cache=16          per-thread free-name cache capacity (sharded:*\n"
    "                      only; 0 = off)\n"
    "  --deadline=0        per-exchange Get budget (10ms, 250us, 1s; bare\n"
    "                      number = ns; 0 = wait forever); expiries show\n"
    "                      in the timeouts column\n"
    "  --ops=40000         Get+Free ops per thread (op-count mode)\n"
    "  --seconds=S         timed window per point instead of --ops\n"
    "  --seed=42           base RNG seed\n"
    "  --json=<path>       also write the machine-readable report\n"
    "  --csv               emit CSV instead of a table\n"
    "Columns: algo, one per axis given more than one value, then metrics;\n"
    "vs_first is ops/s over the first row at the same thread count.\n";

// One swept axis: its values' table labels, and how value i sets a point.
struct Axis {
  std::string name;
  std::vector<stats::Table::Cell> labels;
  std::function<void(bench::SweepPoint&, std::size_t)> apply;
};

template <typename T, typename Set>
Axis make_axis(std::string name, std::vector<T> values, Set set) {
  Axis axis{std::move(name), {values.begin(), values.end()}, {}};
  axis.apply = [values = std::move(values), set](bench::SweepPoint& point,
                                                 std::size_t i) {
    set(point, values[i]);
  };
  return axis;
}

// A uint list whose every value must lie in [lo, hi]; the point fields
// these feed are narrower than 64 bits.
std::vector<std::uint64_t> bounded_list(const bench::Options& opts,
                                        const std::string& flag,
                                        std::vector<std::uint64_t> def,
                                        std::uint64_t lo, std::uint64_t hi) {
  auto values = opts.get_uint_list(flag, std::move(def));
  for (const auto v : values) {
    if (v < lo || v > hi) {
      throw std::invalid_argument("--" + flag + ": expected " +
                                  std::to_string(lo) + ".." +
                                  std::to_string(hi) + ", got " +
                                  std::to_string(v));
    }
  }
  return values;
}

struct Plan {
  std::vector<std::string> algos;
  std::vector<Axis> axes;
  bench::SweepPoint base;
  std::string json_path;
  bool csv = false;
};

Plan parse(const bench::Options& opts) {
  Plan plan;
  plan.algos = bench::expand_algos(
      opts.get_string_list("algo", {"level", "random", "linear"}));

  const bool timed = opts.has("seconds");
  if (timed && opts.has("ops")) {
    throw std::invalid_argument("--ops and --seconds are exclusive");
  }
  auto& driver = plan.base.driver;
  driver.ops_per_thread = timed ? 0 : opts.get_uint("ops", 40000);
  driver.seconds = timed ? opts.get_double("seconds", 0.0) : 0.0;
  if (timed ? !(driver.seconds > 0.0) : driver.ops_per_thread == 0) {
    throw std::invalid_argument(timed ? "--seconds must be > 0"
                                      : "--ops must be >= 1");
  }
  driver.seed = opts.get_uint("seed", 42);

  // LevelArray stores c_i in a byte and reads 0 as 1; either would run
  // a different c_i than the row's label.
  const auto ci = bounded_list(opts, "ci", {1}, 1, 255);
  constexpr std::uint64_t kU32 = ~std::uint32_t{0};
  std::vector<std::string> rngs;  // canonical names, validated here
  for (const auto& name : opts.get_string_list("rng", {"marsaglia"})) {
    rngs.emplace_back(rng::rng_kind_name(rng::parse_rng_kind(name)));
  }

  using P = bench::SweepPoint;
  using U = std::uint64_t;
  auto& axes = plan.axes;
  axes.push_back(make_axis("mult", opts.get_uint_list("mult", {1000}),
                           [](P& p, U v) {
                             p.driver.emulation_multiplier = v;
                           }));
  axes.push_back(make_axis("prefill", opts.get_double_list("prefill", {0.5}),
                           [](P& p, double v) { p.driver.prefill = v; }));
  axes.push_back(make_axis("size_factor",
                           opts.get_double_list("size-factor", {2.0}),
                           [](P& p, double v) { p.size_factor = v; }));
  axes.push_back(make_axis("ci", ci, [](P& p, U v) {
    p.probes_per_batch = {static_cast<std::uint8_t>(v)};
  }));
  axes.push_back(make_axis("rng", rngs, [](P& p, const std::string& v) {
    p.driver.rng_kind = rng::parse_rng_kind(v);
  }));
  axes.push_back(make_axis("batch", opts.get_uint_list("batch", {1}),
                           [](P& p, U v) { p.driver.batch = v; }));
  axes.push_back(make_axis("shards", bounded_list(opts, "shards", {8}, 0, kU32),
                           [](P& p, U v) {
                             p.shards = static_cast<std::uint32_t>(v);
                           }));
  axes.push_back(make_axis("cache", bounded_list(opts, "cache", {16}, 0, kU32),
                           [](P& p, U v) {
                             p.name_cache_capacity =
                                 static_cast<std::uint32_t>(v);
                           }));
  axes.push_back(make_axis("deadline_ns",
                           opts.get_duration_ns_list("deadline", {0}),
                           [](P& p, U v) { p.driver.deadline_ns = v; }));
  axes.push_back(make_axis("threads",
                           bounded_list(opts, "threads", {1, 2, 4, 8}, 1,
                                        kU32),
                           [](P& p, U v) {
                             p.driver.threads = static_cast<std::uint32_t>(v);
                           }));

  plan.json_path = opts.get_string("json", "");
  plan.csv = opts.has("csv");
  return plan;
}

// Odometer step over the axes, last axis fastest; false after the last
// combination.
bool advance(std::vector<std::size_t>& at, const std::vector<Axis>& axes) {
  for (std::size_t k = axes.size(); k-- > 0;) {
    if (++at[k] < axes[k].labels.size()) return true;
    at[k] = 0;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Plan plan;
  try {
    const bench::Options opts(argc, argv);
    if (opts.has("help")) {
      std::cout << kUsage;
      return 0;
    }
    plan = parse(opts);
    for (const auto& key : opts.unused_keys()) {
      std::cerr << "warning: unused flag --" << key << "\n";
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "sweep: " << e.what() << "\n\n" << kUsage;
    return 1;
  }

  const auto& driver = plan.base.driver;
  std::cout << "# sweep: N = mult * threads, L = size_factor * N, ";
  if (driver.seconds > 0.0) {
    std::cout << driver.seconds << " s windows\n";
  } else {
    std::cout << driver.ops_per_thread << " ops/thread\n";
  }

  std::vector<std::string> headers = {"algo"};
  for (const auto& axis : plan.axes) {
    if (axis.labels.size() > 1) headers.push_back(axis.name);
  }
  for (const char* metric :
       {"N", "ops", "gets", "ops_per_sec", "avg_trials", "stddev",
        "worst_mean_over_threads", "worst_global", "p99", "backup_gets",
        "timeouts", "vs_first"}) {
    headers.emplace_back(metric);
  }
  stats::Table table(headers);
  bench::BenchReport report("sweep");
  // ops/s of the first row at each thread count: vs_first's baseline.
  std::map<std::uint32_t, double> baseline;

  for (const auto& algo : plan.algos) {
    std::vector<std::size_t> at(plan.axes.size(), 0);
    do {
      bench::SweepPoint point = plan.base;
      std::vector<stats::Table::Cell> row = {
          std::string(bench::algo_name(algo))};
      for (std::size_t k = 0; k < plan.axes.size(); ++k) {
        plan.axes[k].apply(point, at[k]);
        if (plan.axes[k].labels.size() > 1) {
          row.push_back(plan.axes[k].labels[at[k]]);
        }
      }
      bench::RunResult result;
      try {
        result = bench::run_algo(algo, point);
      } catch (const std::invalid_argument& e) {
        // A structure may refuse a sweep point (e.g. the splitter's
        // quadratic-memory cap); keep the rest of the sweep's results.
        std::cerr << "warning: skipping " << algo << ": " << e.what() << "\n";
        continue;
      }
      const auto& d = point.driver;
      const double base =
          baseline.emplace(d.threads, result.throughput_ops_per_sec)
              .first->second;
      const double vs_first =
          base > 0.0 ? result.throughput_ops_per_sec / base : 0.0;
      // Expired exchanges per completed op: the latency-SLO number a
      // deadline run exists to measure.
      const double timeout_rate =
          result.total_ops != 0 ? static_cast<double>(result.timeouts) /
                                      static_cast<double>(result.total_ops)
                                : 0.0;
      const auto& trials = result.trials;
      row.insert(row.end(),
                 {d.emulated_registrants(), result.total_ops,
                  trials.operations(), result.throughput_ops_per_sec,
                  trials.average(), trials.stddev(),
                  result.mean_per_thread_worst, trials.worst_case(),
                  trials.p99(), result.backup_gets, result.timeouts,
                  vs_first});
      table.add_row(std::move(row));
      report.add_run()
          .set("structure", algo)
          .set("rng", rng::rng_kind_name(d.rng_kind))
          .set("threads", d.threads)
          .set("batch", d.batch)
          .set("deadline_ns", d.deadline_ns)
          .set("timeouts", result.timeouts)
          .set("timeout_rate", timeout_rate)
          .set_object("config",
                      bench::JsonObject()
                          .set("mult", d.emulation_multiplier)
                          .set("registrants", d.emulated_registrants())
                          .set("size_factor", point.size_factor)
                          .set("prefill", d.prefill)
                          .set("seconds", d.seconds)
                          .set("seed", d.seed)
                          .set("shards", point.shards)
                          .set("cache", point.name_cache_capacity)
                          .set("ci", std::uint32_t{
                                         point.probes_per_batch[0]}))
          .set("ops_per_sec", result.throughput_ops_per_sec)
          .set("total_ops", result.total_ops)
          .set("elapsed_seconds", result.elapsed_seconds)
          .set("backup_gets", result.backup_gets)
          .set("speedup_vs_first", vs_first)
          .set_object("probes", bench::probe_stats_json(trials));
    } while (advance(at, plan.axes));
  }
  if (plan.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  if (!plan.json_path.empty() &&
      !report.write_file(plan.json_path, std::cerr)) {
    return 1;
  }
  return 0;
}
