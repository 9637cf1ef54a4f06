// Pins the shared utility layers: Welford, TrialStats, and the Options
// command-line parser (uint/double/duration lists, doubles, defaults,
// --csv, unused-key tracking).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util/options.hpp"
#include "stats/summary.hpp"
#include "stats/welford.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__,      \
                   #cond);                                              \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

bool near(double a, double b, double eps = 1e-9) {
  return std::fabs(a - b) <= eps;
}

}  // namespace

int main() {
  using namespace la;

  // --- Welford --------------------------------------------------------
  {
    stats::Welford w;
    CHECK(w.count() == 0);
    CHECK(near(w.mean(), 0.0));
    CHECK(near(w.stddev(), 0.0));
    for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) w.add(x);
    CHECK(w.count() == 5);
    CHECK(near(w.mean(), 3.0));
    CHECK(near(w.variance(), 2.5));  // sample variance
    CHECK(near(w.stddev(), std::sqrt(2.5)));
    CHECK(near(w.min(), 1.0));
    CHECK(near(w.max(), 5.0));
  }

  // --- TrialStats -----------------------------------------------------
  {
    stats::TrialStats t;
    for (const std::uint64_t probes : {1, 1, 2, 6}) t.record(probes);
    CHECK(t.operations() == 4);
    CHECK(t.worst_case() == 6);
    CHECK(near(t.average(), 2.5));
    CHECK(near(t.p99(), 6.0));
    const auto h = t.histogram();
    CHECK(h.size() == 7);
    CHECK(h.at(1) == 2);
    CHECK(h.at(2) == 1);
    CHECK(h.at(3) == 0);
    CHECK(h.at(6) == 1);

    stats::TrialStats other;
    other.record(4);
    other.merge(t);
    CHECK(other.operations() == 5);
    CHECK(other.worst_case() == 6);
    CHECK(near(other.average(), (1 + 1 + 2 + 6 + 4) / 5.0));

    // Percentiles walk the histogram: for 100 ones and 1 ten, p99 is 1.
    stats::TrialStats tail;
    for (int i = 0; i < 100; ++i) tail.record(1);
    tail.record(10);
    CHECK(near(tail.p99(), 1.0));
    CHECK(near(tail.p999(), 10.0));
  }

  // --- Options --------------------------------------------------------
  {
    std::vector<std::string> args = {
        "prog",      "--n=1,2,8",     "--x=3.5",       "--name=abc",
        "--csv",     "--stray=1",     "--dists=a,b",   "--fracs=0,0.25",
        "--ttl=5ms,7"};
    std::vector<char*> argv;
    argv.reserve(args.size());
    for (auto& a : args) argv.push_back(a.data());
    bench::Options opts(static_cast<int>(argv.size()), argv.data());

    const auto ns = opts.get_uint_list("n", {7});
    CHECK(ns.size() == 3);
    CHECK(ns[0] == 1 && ns[1] == 2 && ns[2] == 8);
    CHECK(near(opts.get_double("x", 0.0), 3.5));
    CHECK(opts.get_string("name", "") == "abc");
    CHECK(opts.has("csv"));
    CHECK(!opts.has("quiet"));

    // Defaults pass through untouched when the key is absent.
    CHECK(opts.get_uint("missing", 7) == 7);
    CHECK(near(opts.get_double("missing2", 0.25), 0.25));
    const auto defaults = opts.get_uint_list("missing3", {4, 5});
    CHECK(defaults.size() == 2 && defaults[0] == 4 && defaults[1] == 5);

    const auto strings = opts.get_string_list("dists", {});
    CHECK(strings.size() == 2 && strings[0] == "a" && strings[1] == "b");
    const auto fracs = opts.get_double_list("fracs", {1.0});
    CHECK(fracs.size() == 2 && near(fracs[0], 0.0) && near(fracs[1], 0.25));
    const auto ttls = opts.get_duration_ns_list("ttl", {});
    CHECK(ttls.size() == 2 && ttls[0] == 5000000 && ttls[1] == 7);

    // Only --stray was never queried.
    const auto unused = opts.unused_keys();
    CHECK(unused.size() == 1);
    CHECK(!unused.empty() && unused[0] == "stray");

    // Malformed numbers must throw, not silently zero.
    bool threw = false;
    try {
      (void)opts.get_uint("name", 0);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
      (void)opts.get_double_list("dists", {});
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d stats/options check(s) failed\n", failures);
    return 1;
  }
  std::puts("test_stats_options: OK");
  return 0;
}
