// levelbench — the repository benchmark. One process runs one workload
// of the paper's §6 churn (each thread frees a random name it holds, then
// registers a new one, so the load stays constant) against the library's
// public surface, checks the output, and prints every metric by name and
// unit. The last line of stdout is the result object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// twice, untraced and then through the Timed decorator (timed.hpp), and
// reports the per-layer metrics. perfbench/README.md lists the
// workloads, the metrics and the change each metric is expected to show.
//
//   levelbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--commit <sha>] [--dirty <0|1|unknown>] [--trace-out <file>]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/renamer.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "svc/service.hpp"
#include "timed.hpp"

namespace {

using perfbench::Layer;
using perfbench::Op;
using perfbench::ticks;
using perfbench::Timed;
using Clock = std::chrono::steady_clock;
using Level = la::core::LevelArray;

// ---------------------------------------------------------------- inputs

// The paper's §6 churn at a production-scale contention bound. The 0.9
// prefill is deliberate: at the paper's 0.5 a LevelArray Get averages
// ~1.3 probes and never reaches the backup sweep, which leaves the core
// nothing to show; at 0.9 the probe walk and the Θ(L) sweep do real work.
constexpr std::uint64_t kCapacity = 400000;  // N
constexpr double kSizeFactor = 2.0;          // L = 2N
constexpr double kPrefill = 0.9;
constexpr std::uint32_t kChurnThreads = 2;
constexpr std::uint32_t kShards = 8;
constexpr std::uint32_t kCacheCapacity = 16;
// One collect every 5 ms: a collect over N = 400k takes ~1.7 ms here, so
// a 2 ms schedule would saturate the scanner and its backlog (not the
// structure) would set the latency.
constexpr auto kScanPeriod = std::chrono::microseconds(5000);
// Latency sampling: one Free+Get pair in 64 is timed (so throughput is
// not clock-bound); a full buffer is halved and the stride doubled, which
// keeps a uniform sample in fixed memory.
constexpr std::uint64_t kSampleMask = 63;
constexpr std::size_t kSampleCap = std::size_t{1} << 14;
// The measured span is cut into kWindows windows, and each metric is the
// best quartile of its per-window values (the 25th percentile of a time,
// the 75th of a rate). Interference from the host — a descheduled vCPU,
// a neighbour's memory traffic — only ever slows a window down and comes
// and goes within a run, so the best quartile tracks the code while a
// change that slows every window still shows in full.
constexpr int kWindows = 20;
// Workloads without a scanner time back-to-back collects on the
// quiescent structure between windows. Collect samples are pooled over
// two windows (kWindowsPerCollectBucket), so a bucket holds 100 of them
// (400 from the scanner) and its p90 has 10 or more beyond it.
constexpr int kCollectsPerPause = 50;
constexpr int kWindowsPerCollectBucket = 2;
constexpr int kLayerProbes = 50;

enum class Workload { kLevelChurn, kShardedChurn, kShardedScan, kDaemonChurn };

struct WorkloadInfo {
  Workload id;
  const char* name;
  const char* structure;  // registry key
  bool scanner;
};

constexpr WorkloadInfo kWorkloads[] = {
    {Workload::kLevelChurn, "level_churn", "level", false},
    {Workload::kShardedChurn, "sharded_churn", "sharded:level", false},
    {Workload::kShardedScan, "sharded_scan", "sharded:level", true},
    {Workload::kDaemonChurn, "daemon_churn", "svc:sharded:level", false},
};

la::api::RenamerConfig renamer_config() {
  la::api::RenamerConfig c;
  c.capacity = kCapacity;
  c.size_factor = kSizeFactor;
  c.shards = kShards;
  c.name_cache_capacity = kCacheCapacity;
  c.svc_server_threads = 1;
  return c;
}

struct Args {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string dirty = "unknown";
  std::string trace_out;  // --trace 1: where to write the spans
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "levelbench: " << why
            << "\nusage: levelbench --workload <level_churn|sharded_churn|"
               "sharded_scan|daemon_churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <sha>] [--dirty <flag>] "
               "[--trace-out <file>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        for (const auto& w : kWorkloads) {
          if (value == w.name) a.workload = &w;
        }
        if (a.workload == nullptr) usage("unknown workload " + value);
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
        if (!(a.seconds > 0 && a.seconds <= 60)) usage("--seconds in (0, 60]");
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "--commit") {
        a.commit = value;
      } else if (key == "--dirty") {
        a.dirty = value;
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  return a;
}

// ------------------------------------------------------------ statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = lo + 1 < v.size() ? lo + 1 : lo;
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

// ------------------------------------------------------------ the churn

enum Phase : int { kFilling, kWarm, kMeasure, kPause, kStop };

// Shared by the main thread and a pass's workers. Workers read `phase`
// on every op; in a pause they park on `cv` until the main thread moves
// the phase on, so the structure is quiescent between windows.
struct Control {
  std::atomic<int> phase{kFilling};
  std::atomic<int> window{0};  // current measure window
  std::atomic<std::uint32_t> ready{0};
  std::mutex mu;
  std::condition_variable cv;
  std::uint32_t parked = 0;  // guarded by mu
  std::uint32_t exited = 0;  // guarded by mu

  // Worker: wait out a pause.
  void park() {
    std::unique_lock<std::mutex> lock(mu);
    ++parked;
    cv.notify_all();
    cv.wait(lock, [&] { return phase.load(std::memory_order_relaxed) != kPause; });
    --parked;
  }

  // Worker: its loop is over (stopped or failed).
  void exit() {
    std::lock_guard<std::mutex> lock(mu);
    ++exited;
    cv.notify_all();
  }

  // Main: pause and return once each of the `workers` is parked or gone.
  void pause(std::uint32_t workers) {
    std::unique_lock<std::mutex> lock(mu);
    phase.store(kPause, std::memory_order_relaxed);
    cv.wait(lock, [&] { return parked + exited == workers; });
  }

  void set(int p) {
    {
      std::lock_guard<std::mutex> lock(mu);
      phase.store(p, std::memory_order_release);
    }
    cv.notify_all();
  }
};

// Timed Free+Get pairs of one window, uniformly subsampled in fixed
// memory. The buffers are written once up front so the resident set does
// not grow with throughput (peak_rss_mb).
class Sampler {
 public:
  Sampler() : get_(kSampleCap, ~0u), free_(kSampleCap, ~0u) {}

  bool due() { return (++pairs_ & mask_) == 0; }

  void add(std::uint64_t get_ticks, std::uint64_t free_ticks) {
    if (size_ == kSampleCap) {
      for (std::size_t i = 0; i < size_ / 2; ++i) {
        get_[i] = get_[2 * i];
        free_[i] = free_[2 * i];
      }
      size_ /= 2;
      mask_ = mask_ * 2 + 1;
    }
    get_[size_] = clamp(get_ticks);
    free_[size_] = clamp(free_ticks);
    ++size_;
  }

  void append_ns(double ns_per_tick, std::vector<double>& gets,
                 std::vector<double>& frees) const {
    for (std::size_t i = 0; i < size_; ++i) {
      gets.push_back(static_cast<double>(get_[i]) * ns_per_tick);
      frees.push_back(static_cast<double>(free_[i]) * ns_per_tick);
    }
  }

 private:
  static std::uint32_t clamp(std::uint64_t t) {
    return t > 0xFFFFFFFFu ? 0xFFFFFFFFu : static_cast<std::uint32_t>(t);
  }

  std::vector<std::uint32_t> get_;
  std::vector<std::uint32_t> free_;
  std::size_t size_ = 0;
  std::uint64_t pairs_ = 0;
  std::uint64_t mask_ = kSampleMask;
};

struct alignas(64) ChurnThread {
  std::atomic<std::uint64_t> ops{0};  // published every 256 ops
  std::vector<std::uint64_t> holds;
  std::vector<Sampler> samples = std::vector<Sampler>(kWindows);
  std::uint64_t failed = 0;
  std::string error;
};

// One churn op. On a traced structure the op is the outermost span.
template <typename S>
void free_op(S& s, std::uint64_t name) {
  if constexpr (perfbench::kIsTimed<S>) {
    perfbench::Scope scope(Layer::kBench, Op::kFree);
    s.free(name);
  } else {
    s.free(name);
  }
}

template <typename S, typename Rng>
std::uint64_t get_op(S& s, Rng& rng) {
  if constexpr (perfbench::kIsTimed<S>) {
    perfbench::Scope scope(Layer::kBench, Op::kGet);
    return s.get(rng).name;
  } else {
    return s.get(rng).name;
  }
}

template <typename S>
void churn(S& s, ChurnThread& ts, Control& ctl, std::uint64_t seed,
           std::uint32_t tid) {
  la::rng::MarsagliaXorshift probe(la::rng::mix_seed(seed, 2 * tid + 1));
  la::rng::MarsagliaXorshift pick(la::rng::mix_seed(seed, 2 * tid + 2));
  const std::uint64_t held = ts.holds.size();
  try {
    for (auto& name : ts.holds) name = get_op(s, probe);
  } catch (const std::exception& e) {
    ++ts.failed;
    ts.error = e.what();
  }
  ctl.ready.fetch_add(1, std::memory_order_release);
  while (ctl.phase.load(std::memory_order_acquire) == kFilling) {
    std::this_thread::yield();
  }
  std::uint64_t ops = 0;
  try {
    while (ts.failed == 0) {
      const int phase = ctl.phase.load(std::memory_order_relaxed);
      if (phase == kStop) break;
      if (phase == kPause) {
        ts.ops.store(ops, std::memory_order_relaxed);
        ctl.park();
        continue;
      }
      std::uint64_t& name = ts.holds[la::rng::bounded(pick, held)];
      if (phase == kMeasure &&
          ts.samples[ctl.window.load(std::memory_order_relaxed)].due()) {
        const std::uint64_t t0 = ticks();
        free_op(s, name);
        const std::uint64_t t1 = ticks();
        name = get_op(s, probe);
        const std::uint64_t t2 = ticks();
        ts.samples[ctl.window.load(std::memory_order_relaxed)].add(t2 - t1,
                                                                   t1 - t0);
      } else {
        free_op(s, name);
        name = get_op(s, probe);
      }
      ops += 2;
      if ((ops & 255) == 0) ts.ops.store(ops, std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    ++ts.failed;
    ts.error = e.what();
  }
  ts.ops.store(ops, std::memory_order_relaxed);
  ctl.exit();
}

// A collect result is ascending (every collect path scans the name space
// in order), duplicate-free, in range and within the contention bound —
// checkable on every racy mid-run collect, in one pass.
bool well_formed(const std::vector<std::uint64_t>& names,
                 std::uint64_t total_slots, std::uint64_t capacity) {
  if (names.size() > capacity) return false;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] >= total_slots) return false;
    if (i > 0 && names[i] <= names[i - 1]) return false;
  }
  return true;
}

// peek_held(): the scale layer's non-draining hold-set scan.
template <typename T, typename = void>
struct HasPeek : std::false_type {};
template <typename T>
struct HasPeek<T, std::void_t<decltype(std::declval<const T&>().peek_held(
                      std::declval<std::vector<std::uint64_t>&>()))>>
    : std::true_type {};
template <typename T>
inline constexpr bool kHasPeek = HasPeek<T>::value;

// Time one peek_held(); 0 where the structure has none.
template <typename S>
double time_peek(const S& s, std::vector<std::uint64_t>& buf) {
  if constexpr (kHasPeek<S>) {
    buf.clear();
    const Clock::time_point t0 = Clock::now();
    s.peek_held(buf);
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  } else {
    return 0;
  }
}

// The open-loop scanner of sharded_scan: one collect every kScanPeriod,
// each timed from its due time.
struct ScanThread {
  std::vector<int> window;          // measure window of each collect
  std::vector<double> latency_ns;   // end - due
  std::vector<double> lateness_ns;  // start - due
  std::vector<double> collect_ns;   // end - start
  std::vector<double> peek_ns;      // peek_held() beside it (traced run)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

template <typename S>
void scan(S& s, ScanThread& st, Control& ctl, bool peek) {
  std::vector<std::uint64_t> names;
  names.reserve(kCapacity);
  while (ctl.phase.load(std::memory_order_acquire) == kFilling) {
    std::this_thread::yield();
  }
  Clock::time_point due = Clock::now();
  for (;;) {
    due += kScanPeriod;
    std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while (Clock::now() < due) {
    }
    const int phase = ctl.phase.load(std::memory_order_acquire);
    if (phase == kStop) break;
    if (phase == kPause) {
      ctl.park();
      due = Clock::now();  // the schedule restarts with the churn
      continue;
    }
    // Traced run: peek_held() is timed beside each collect, into the same
    // buffer, before it on even ticks and after it on odd ones, so cache
    // warmth favours neither when drain time is taken as their difference.
    const bool peek_first = peek && st.peek_ns.size() % 2 == 0;
    double peek_ns = 0;
    if (peek_first) peek_ns = time_peek(s, names);
    const Clock::time_point start = Clock::now();
    names.clear();
    s.collect(names);
    const Clock::time_point end = Clock::now();
    ++st.attempted;
    if (!well_formed(names, s.total_slots(), s.capacity())) ++st.failed;
    if (peek && !peek_first) peek_ns = time_peek(s, names);
    if (phase == kMeasure) {
      using ns = std::chrono::duration<double, std::nano>;
      st.window.push_back(ctl.window.load(std::memory_order_relaxed));
      st.latency_ns.push_back(ns(end - due).count());
      st.lateness_ns.push_back(ns(start - due).count());
      st.collect_ns.push_back(ns(end - start).count());
      if (peek) st.peek_ns.push_back(peek_ns);
    }
  }
  ctl.exit();
}

// What one pass (setup, churn, checks) measured.
struct Pass {
  std::vector<double> setup_s;
  std::vector<double> window_ops_per_s;
  double measure_s = 0;
  std::uint64_t measured_ops = 0;
  // Latency samples per measure window (collects: per bucket of windows).
  std::vector<std::vector<double>> get_ns;
  std::vector<std::vector<double>> free_ns;
  std::vector<std::vector<double>> collect_us;
  std::vector<double> lateness_us;  // scanner start - due
  // Layer probes: collect vs peek_held (scan only) time, ns.
  std::vector<double> probe_collect_ns;
  std::vector<double> probe_peek_ns;
  std::uint64_t total_slots = 0;
  double ns_per_tick = 1;
  double peak_rss_mb = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }

  void add_collect(int window, double us) {
    const auto bucket =
        static_cast<std::size_t>(window / kWindowsPerCollectBucket);
    if (collect_us.size() <= bucket) collect_us.resize(bucket + 1);
    collect_us[bucket].push_back(us);
  }
};

// Hooks a pass calls around its measured window and at quiescence; the
// traced pass uses them to turn the tracer on and read the layer stats.
struct NoHooks {
  void measure_begin() {}
  void measure_end() {}
  template <typename S>
  void quiescent(S&, Pass&) {}
};

struct Plan {
  const WorkloadInfo* workload;
  std::uint64_t seed;
  double seconds;
  bool extras;     // time set-ups and quiescent collects in the pauses
  bool scan_peek;  // the scanner also times peek_held (traced run)
};

// Stops and joins a pass's threads on every way out, so no thread
// outlives the structure or the state it works on.
class Joiner {
 public:
  Joiner(Control& ctl, std::vector<std::thread>& threads)
      : ctl_(ctl), threads_(threads) {}
  ~Joiner() { join(); }
  Joiner(const Joiner&) = delete;
  Joiner& operator=(const Joiner&) = delete;

  void join() {
    ctl_.set(kStop);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  Control& ctl_;
  std::vector<std::thread>& threads_;
};

std::uint64_t names_per_thread() {
  return static_cast<std::uint64_t>(static_cast<double>(kCapacity) *
                                    kPrefill / kChurnThreads);
}

// Starts the churn threads and waits out their prefill; returns the
// set-up time since `setup_start`.
template <typename S>
double start_churn(S& s, std::uint64_t seed, Control& ctl,
                   std::vector<std::unique_ptr<ChurnThread>>& threads,
                   std::vector<std::thread>& workers,
                   Clock::time_point setup_start) {
  for (std::uint32_t t = 0; t < kChurnThreads; ++t) {
    threads.push_back(std::make_unique<ChurnThread>());
    threads.back()->holds.resize(names_per_thread());
  }
  for (std::uint32_t t = 0; t < kChurnThreads; ++t) {
    ChurnThread& ts = *threads[t];
    workers.emplace_back([&s, &ts, &ctl, seed, t] { churn(s, ts, ctl, seed, t); });
  }
  while (ctl.ready.load(std::memory_order_acquire) < kChurnThreads) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return seconds_between(setup_start, Clock::now());
}

// One set-up alone (construction, prefill, daemon start), torn down.
template <typename S>
double setup_once(S& s, std::uint64_t seed, Clock::time_point setup_start) {
  Control ctl;
  std::vector<std::unique_ptr<ChurnThread>> threads;
  std::vector<std::thread> workers;
  Joiner joiner(ctl, workers);
  return start_churn(s, seed, ctl, threads, workers, setup_start);
}

// One pass on `s`: start the workers (set-up ends when their prefill
// does), warm up, then measure kWindows windows. After each window every
// worker is parked and `between(window)` runs against a quiescent
// structure. Ends with the output check and the drain.
template <typename S, typename Hooks, typename Between>
void drive(S& s, const Plan& plan, Pass& pass, Hooks& hooks,
           Clock::time_point setup_start, Between&& between) {
  Control ctl;
  std::vector<std::unique_ptr<ChurnThread>> threads;
  ScanThread scanner;
  std::vector<std::thread> workers;
  Joiner joiner(ctl, workers);
  pass.setup_s.push_back(
      start_churn(s, plan.seed, ctl, threads, workers, setup_start));
  if (plan.workload->scanner) {
    workers.emplace_back([&] { scan(s, scanner, ctl, plan.scan_peek); });
  }
  const auto worker_count = static_cast<std::uint32_t>(workers.size());
  const auto count_ops = [&] {
    std::uint64_t total = 0;
    for (const auto& t : threads) total += t->ops.load(std::memory_order_relaxed);
    return total;
  };

  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(plan.seconds / kWindows));
  ctl.set(kWarm);
  std::this_thread::sleep_for(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::min(1.0, 0.1 * plan.seconds))));
  ctl.pause(worker_count);
  const perfbench::TickRate rate;
  hooks.measure_begin();
  for (int w = 0; w < kWindows; ++w) {
    ctl.window.store(w, std::memory_order_relaxed);
    const std::uint64_t ops0 = count_ops();
    const Clock::time_point t0 = Clock::now();
    ctl.set(kMeasure);
    std::this_thread::sleep_until(t0 + window);
    ctl.pause(worker_count);
    const double dt = seconds_between(t0, Clock::now());
    const std::uint64_t ops = count_ops() - ops0;
    pass.window_ops_per_s.push_back(static_cast<double>(ops) / dt);
    pass.measure_s += dt;
    pass.measured_ops += ops;
    // The structure allocates nothing after set-up, so the peak is taken
    // here, before the pause work below adds set-ups of its own.
    if (w == 0) pass.peak_rss_mb = peak_rss_mb();
    between(w);
  }
  hooks.measure_end();
  joiner.join();
  pass.ns_per_tick = rate.ns_per_tick();

  pass.get_ns.resize(kWindows);
  pass.free_ns.resize(kWindows);
  for (const auto& t : threads) {
    pass.attempted += t->ops.load(std::memory_order_relaxed);
    if (t->failed != 0) pass.fail("churn thread: " + t->error);
    for (int w = 0; w < kWindows; ++w) {
      t->samples[w].append_ns(pass.ns_per_tick, pass.get_ns[w], pass.free_ns[w]);
    }
  }
  pass.attempted += scanner.attempted;
  if (scanner.failed != 0) {
    pass.failed += scanner.failed;
    pass.errors.push_back("scanner: malformed collect result");
  }
  for (std::size_t i = 0; i < scanner.latency_ns.size(); ++i) {
    pass.add_collect(scanner.window[i], scanner.latency_ns[i] / 1e3);
  }
  for (const double ns : scanner.lateness_ns) pass.lateness_us.push_back(ns / 1e3);
  pass.probe_collect_ns = scanner.collect_ns;
  pass.probe_peek_ns = scanner.peek_ns;
  pass.total_slots = s.total_slots();

  // Output check: at quiescence collect() is exactly the union of the
  // threads' held names — no duplicates, every name < total_slots.
  std::vector<std::uint64_t> expected;
  for (const auto& t : threads) {
    expected.insert(expected.end(), t->holds.begin(), t->holds.end());
  }
  std::sort(expected.begin(), expected.end());
  ++pass.attempted;
  if (std::adjacent_find(expected.begin(), expected.end()) != expected.end()) {
    pass.fail("a name is held by two threads at once");
  }
  if (!expected.empty() && expected.back() >= s.total_slots()) {
    pass.fail("a held name is >= total_slots");
  }
  std::vector<std::uint64_t> got;
  got.reserve(kCapacity);
  s.collect(got);
  std::sort(got.begin(), got.end());
  if (got != expected) {
    pass.fail("collect() != union of held names (" +
              std::to_string(got.size()) + " vs " +
              std::to_string(expected.size()) + ")");
  }
  hooks.quiescent(s, pass);

  // Drain: free every held name; afterwards nothing may be held.
  ++pass.attempted;
  try {
    la::api::free_batch(s, expected.data(), expected.size());
    got.clear();
    s.collect(got);
    if (!got.empty()) {
      pass.fail(std::to_string(got.size()) + " names held after the drain");
    }
  } catch (const std::exception& e) {
    pass.fail(std::string("drain: ") + e.what());
  }
}

// Back-to-back collects on a quiescent structure (the workloads without
// a scanner), each checked against the hold count.
template <typename S>
void quiescent_collects(const S& s, int window, Pass& pass) {
  std::vector<std::uint64_t> got;
  got.reserve(kCapacity);
  const std::size_t held = names_per_thread() * kChurnThreads;
  for (int i = 0; i < kCollectsPerPause; ++i) {
    got.clear();
    const Clock::time_point c0 = Clock::now();
    s.collect(got);
    pass.add_collect(window, std::chrono::duration<double, std::micro>(
                                 Clock::now() - c0).count());
    ++pass.attempted;
    if (got.size() != held) pass.fail("quiescent collect size");
  }
}

// Untraced structures come from the registry, exactly as a user builds
// them; only the three types the workloads name are instantiated.
template <typename S>
inline constexpr bool kWorkloadType =
    std::is_same_v<S, Level> ||
    std::is_same_v<S, la::scale::ShardedRenamer<Level>> ||
    std::is_same_v<S, la::svc::ServiceRenamer<la::scale::ShardedRenamer<Level>>>;

template <typename Fn>
void with_registry_structure(const WorkloadInfo& w, Fn&& fn) {
  la::api::visit(w.structure, renamer_config(), [&](auto& s) {
    using S = std::decay_t<decltype(s)>;
    if constexpr (kWorkloadType<S>) {
      fn(s);
    } else {
      throw std::logic_error("levelbench: unexpected structure");
    }
  });
}

// The end-to-end pass. Set-up is timed once for the measured structure
// and once more in every pause (a fresh structure each time, so set-up
// samples spread over the run like every other metric); the workloads
// without a scanner also time their quiescent collects in the pauses.
void run_untraced(const Plan& plan, Pass& pass) {
  NoHooks hooks;
  const Clock::time_point start = Clock::now();
  with_registry_structure(*plan.workload, [&](auto& s) {
    drive(s, plan, pass, hooks, start, [&](int window) {
      if (!plan.extras) return;
      if (!plan.workload->scanner) quiescent_collects(s, window, pass);
      const Clock::time_point setup_start = Clock::now();
      with_registry_structure(*plan.workload, [&](auto& fresh) {
        pass.setup_s.push_back(setup_once(fresh, plan.seed, setup_start));
      });
    });
  });
}

// ------------------------------------------------------------ traced run

using TimedLevel = Timed<Level>;
using TimedSharded = Timed<la::scale::ShardedRenamer<TimedLevel>>;
using TimedDaemon = Timed<la::svc::ServiceRenamer<TimedSharded>>;
static_assert(perfbench::kSameSurface<Level>);
static_assert(perfbench::kSameSurface<la::scale::ShardedRenamer<TimedLevel>>);
static_assert(perfbench::kSameSurface<la::svc::ServiceRenamer<TimedSharded>>);

// The same shapes the registry builds (api/registry.hpp), with a Timed
// decorator at each layer boundary.
std::unique_ptr<TimedLevel> make_level(std::uint64_t capacity) {
  la::core::LevelArrayConfig c;
  c.capacity = capacity;
  c.size_multiplier = kSizeFactor;
  return std::make_unique<TimedLevel>(std::make_unique<Level>(c));
}

std::unique_ptr<TimedSharded> make_sharded() {
  la::scale::ShardedConfig c;
  c.shards = kShards;
  c.cache_capacity = kCacheCapacity;
  const std::uint64_t per_shard = (kCapacity + kShards - 1) / kShards;
  return std::make_unique<TimedSharded>(
      std::make_unique<la::scale::ShardedRenamer<TimedLevel>>(
          c, [&](std::uint32_t) { return make_level(per_shard); }));
}

// Counters the structures keep themselves, read before and after the
// traced window.
struct LayerCounters {
  la::scale::ShardedStats scale;
  la::api::WaitStats waits;
  la::svc::ServerStats server;
  la::api::WaitStats client;
};

struct TraceHooks {
  std::function<LayerCounters()> read;
  LayerCounters before;
  LayerCounters after;
  // Scan-cost probes at quiescence: {collect ns, peek_held ns}.
  std::function<std::pair<double, double>(bool, std::vector<std::uint64_t>&)>
      probe;
  std::function<double()> deep_fill;
  double deep_fill_max = 0;

  void measure_begin() {
    before = read();
    perfbench::Tracer::enable(true);
  }
  void measure_end() {
    perfbench::Tracer::enable(false);
    after = read();
  }
  template <typename S>
  void quiescent(S&, Pass& pass) {
    deep_fill_max = deep_fill();
    if (pass.probe_peek_ns.empty()) {
      std::vector<std::uint64_t> names;
      names.reserve(kCapacity);
      for (int i = 0; i < kLayerProbes; ++i) {
        const auto [collect_ns, peek_ns] = probe(i % 2 == 0, names);
        pass.probe_collect_ns.push_back(collect_ns);
        pass.probe_peek_ns.push_back(peek_ns);
      }
    }
  }
};

// Fullest batch >= 1 (fill = held / batch size) over the given arrays.
// Batches under kMinFillBatch slots are skipped: the last batch of an
// L = 800k array has 12 slots, and a 12-slot batch reads full by chance.
constexpr std::uint64_t kMinFillBatch = 1024;

double deep_fill(const std::vector<const TimedLevel*>& arrays) {
  double worst = 0;
  for (const TimedLevel* a : arrays) {
    const auto occupancy = a->batch_occupancy();
    for (std::uint32_t k = 1; k < occupancy.size(); ++k) {
      const std::uint64_t size = a->geometry().batch(k).size();
      if (size < kMinFillBatch) continue;
      worst = std::max(worst, static_cast<double>(occupancy[k]) /
                                  static_cast<double>(size));
    }
  }
  return worst;
}

// {collect ns, peek_held ns}, both into `names`; the array has no peek,
// so its collect is the scan.
template <typename S>
std::pair<double, double> time_scan(const S& s, bool peek_first,
                                    std::vector<std::uint64_t>& names) {
  double peek_ns = 0;
  if (peek_first) peek_ns = time_peek(s, names);
  names.clear();
  const Clock::time_point t0 = Clock::now();
  s.collect(names);
  const double collect_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  if (!peek_first) peek_ns = time_peek(s, names);
  return {collect_ns, kHasPeek<S> ? peek_ns : collect_ns};
}

std::vector<const TimedLevel*> shards_of(
    const la::scale::ShardedRenamer<TimedLevel>& sharded) {
  std::vector<const TimedLevel*> out;
  for (std::uint32_t i = 0; i < sharded.num_shards(); ++i) {
    out.push_back(&sharded.shard(i));
  }
  return out;
}

LayerCounters sharded_counters(const la::scale::ShardedRenamer<TimedLevel>& s) {
  LayerCounters c;
  c.scale = s.stats();
  c.waits = s.wait_stats();
  return c;
}

// The traced pass and what the per-layer metrics need beside it.
struct TracedRun {
  Pass pass;
  TraceHooks hooks;
  Layer top = Layer::kCore;  // the layer the churn threads call
  double timer_overhead_ticks = 0;
};

void run_traced(const Plan& plan, TracedRun& run) {
  TraceHooks& hooks = run.hooks;
  run.timer_overhead_ticks = perfbench::timer_overhead_ticks();
  const Clock::time_point start = Clock::now();
  switch (plan.workload->id) {
    case Workload::kLevelChurn: {
      run.top = Layer::kCore;
      auto s = make_level(kCapacity);
      hooks.read = [] { return LayerCounters{}; };
      hooks.probe = [&](bool peek_first, std::vector<std::uint64_t>& names) {
        return time_scan(*s, peek_first, names);
      };
      hooks.deep_fill = [&] { return deep_fill({s.get()}); };
      drive(*s, plan, run.pass, hooks, start, [](int) {});
      break;
    }
    case Workload::kShardedChurn:
    case Workload::kShardedScan: {
      run.top = Layer::kScale;
      auto s = make_sharded();
      hooks.read = [&] { return sharded_counters(s->inner()); };
      hooks.probe = [&](bool peek_first, std::vector<std::uint64_t>& names) {
        return time_scan(s->inner(), peek_first, names);
      };
      hooks.deep_fill = [&] { return deep_fill(shards_of(s->inner())); };
      drive(*s, plan, run.pass, hooks, start, [](int) {});
      break;
    }
    case Workload::kDaemonChurn: {
      run.top = Layer::kSvc;
      la::svc::ServiceConfig config;
      const la::api::RenamerConfig rc = renamer_config();
      config.segment.max_clients = rc.svc_max_clients;
      config.segment.ring_depth = rc.svc_ring_depth;
      config.server_threads = rc.svc_server_threads;
      TimedSharded* inner = nullptr;
      auto s = std::make_unique<TimedDaemon>(
          std::make_unique<la::svc::ServiceRenamer<TimedSharded>>(
              config, [&] {
                auto made = make_sharded();
                inner = made.get();
                return made;
              }));
      hooks.read = [&] {
        LayerCounters c = sharded_counters(inner->inner());
        c.server = s->inner().server_stats();
        c.client = s->inner().client().wait_stats();
        return c;
      };
      hooks.probe = [&](bool peek_first, std::vector<std::uint64_t>& names) {
        return time_scan(inner->inner(), peek_first, names);
      };
      hooks.deep_fill = [&] { return deep_fill(shards_of(inner->inner())); };
      drive(*s, plan, run.pass, hooks, start, [](int) {});
      break;
    }
  }
}

// The sampled spans, reduced. Durations are corrected for the timer: a
// span's own interval holds about one timer overhead c, and a child
// costs its parent its interval plus about one more c (its two reads
// straddle its window).
struct SpanSummary {
  static constexpr std::size_t L = perfbench::kLayers;
  static constexpr std::size_t O = perfbench::kOps;
  std::uint64_t calls[L][O] = {};
  double spans[L][O] = {};
  double self_ticks[L][O] = {};
  double dur_ticks[L][O] = {};
  std::vector<double> svc_rtt_ticks;
  // Per churn op (a kBench root), estimated from the sampled trees and
  // scaled to every op: each layer's self time, the traced op itself,
  // and the server-side trees that run for it (daemon only).
  double per_op_self[L] = {};
  double per_op_traced = 0;
  double per_op_exec = 0;
  std::uint64_t core_names = 0, probes = 0, probes_max = 0,
                deepest_batch_max = 0, backups = 0;

  double outer_ops() const {
    const auto b = static_cast<std::size_t>(Layer::kBench);
    return static_cast<double>(calls[b][0] + calls[b][1]);
  }
};

SpanSummary summarize(double c) {
  SpanSummary sum;
  const auto logs = perfbench::Tracer::logs();
  for (const perfbench::ThreadLog* log : logs) {
    for (std::size_t l = 0; l < SpanSummary::L; ++l) {
      for (std::size_t o = 0; o < SpanSummary::O; ++o) {
        sum.calls[l][o] += log->calls[l][o];
      }
    }
    sum.core_names += log->core_names;
    sum.probes += log->probes;
    sum.probes_max = std::max(sum.probes_max, log->probes_max);
    sum.deepest_batch_max =
        std::max(sum.deepest_batch_max, log->deepest_batch_max);
    sum.backups += log->backups;
  }
  const double outer_ops = sum.outer_ops();
  for (const perfbench::ThreadLog* log : logs) {
    const perfbench::Span* spans = log->spans.data();
    const std::size_t n = log->used;
    std::vector<double> child(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (spans[i].parent != perfbench::kNoSpan && spans[i].t1 != 0) {
        child[spans[i].parent] +=
            static_cast<double>(spans[i].t1 - spans[i].t0) + c;
      }
    }
    // Trees rooted in a Get or Free: the churn ops on a churn thread, the
    // requests a server worker executes on a daemon.
    double tree_self[SpanSummary::L] = {};
    double root_dur = 0;
    double sampled_roots = 0;
    Layer root_layer = Layer::kBench;
    for (std::size_t i = 0; i < n; ++i) {
      const perfbench::Span& sp = spans[i];
      if (sp.t1 == 0) continue;  // still open when tracing stopped
      const auto l = static_cast<std::size_t>(sp.layer);
      const auto o = static_cast<std::size_t>(sp.op);
      const double dur =
          std::max(0.0, static_cast<double>(sp.t1 - sp.t0) - c);
      const double self = std::max(0.0, dur - child[i]);
      sum.self_ticks[l][o] += self;
      sum.dur_ticks[l][o] += dur;
      sum.spans[l][o] += 1;
      if (sp.layer == Layer::kSvc) sum.svc_rtt_ticks.push_back(dur);
      std::size_t r = i;
      while (spans[r].parent != perfbench::kNoSpan) r = spans[r].parent;
      if (spans[r].op == Op::kCollect) continue;
      tree_self[l] += self;
      if (r == i) {
        sampled_roots += 1;
        root_dur += dur;
        root_layer = sp.layer;
      }
    }
    if (sampled_roots == 0 || outer_ops <= 0) continue;
    const auto rl = static_cast<std::size_t>(root_layer);
    const double roots = static_cast<double>(log->calls[rl][0] +
                                             log->calls[rl][1]);
    const double scale = roots / sampled_roots / outer_ops;
    if (root_layer == Layer::kBench) {
      sum.per_op_traced += root_dur * scale;
    } else {
      sum.per_op_exec += root_dur * scale;
    }
    for (std::size_t l = 0; l < SpanSummary::L; ++l) {
      sum.per_op_self[l] += tree_self[l] * scale;
    }
  }
  return sum;
}

// The spans as recorded (raw ticks), one line each, for offline study:
// the first kWrittenSpans of each thread.
constexpr std::uint32_t kWrittenSpans = 20000;

void write_spans(const std::string& path, double ns_per_tick, double c) {
  std::ofstream out(path);
  if (!out) {
    std::cout << "note: cannot write spans to " << path << "\n";
    return;
  }
  static const char* const kLayerNames[] = {"core", "scale", "svc", "bench"};
  static const char* const kOpNames[] = {"get", "free", "collect"};
  out << "# ns_per_tick " << ns_per_tick << " timer_overhead_ticks " << c
      << "\nthread\tspan\tparent\tlayer\top\tt0\tt1\n";
  std::size_t thread = 0;
  for (const perfbench::ThreadLog* log : perfbench::Tracer::logs()) {
    for (std::uint32_t i = 0; i < std::min(log->used, kWrittenSpans); ++i) {
      const perfbench::Span& sp = log->spans[i];
      if (sp.t1 == 0) continue;
      out << thread << '\t' << i << '\t'
          << (sp.parent == perfbench::kNoSpan ? -1 : static_cast<long>(sp.parent))
          << '\t' << kLayerNames[static_cast<int>(sp.layer)] << '\t'
          << kOpNames[static_cast<int>(sp.op)] << '\t' << sp.t0 << '\t'
          << sp.t1 << '\n';
    }
    ++thread;
  }
}

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void report_errors(const Pass& pass, const char* label) {
  for (const auto& e : pass.errors) {
    std::cout << "CHECK FAILED (" << label << "): " << e << "\n";
  }
}

// Best quartile of per-window values (see kWindows).
double best_of_lower(const std::vector<double>& v) { return quantile(v, 0.25); }
double best_of_higher(const std::vector<double>& v) { return quantile(v, 0.75); }

// Best quartile over windows of each window's q-quantile (a time).
double windowed(const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (!w.empty()) per_window.push_back(quantile(w, q));
  }
  return best_of_lower(per_window);
}

std::size_t sample_count(const std::vector<std::vector<double>>& windows) {
  std::size_t n = 0;
  for (const auto& w : windows) n += w.size();
  return n;
}

// The bounded end-to-end metrics. Get and Free are bounded at p90 and
// collect at p50 only: on a shared 4-vCPU host, p99 of a ~40 ns op and
// the tail of an open-loop collect measured the host (cache misses
// caused by neighbours, stalls) more than the code, with run-to-run
// spreads up to 33% and 60%. Those tails are still printed.
std::vector<Metric> end_to_end(const Pass& pass) {
  return {
      {"ops_per_s", best_of_higher(pass.window_ops_per_s), "1/s"},
      {"get_p50_ns", windowed(pass.get_ns, 0.50), "ns"},
      {"get_p90_ns", windowed(pass.get_ns, 0.90), "ns"},
      {"free_p50_ns", windowed(pass.free_ns, 0.50), "ns"},
      {"free_p90_ns", windowed(pass.free_ns, 0.90), "ns"},
      {"collect_p50_us", windowed(pass.collect_us, 0.50), "us"},
      {"setup_s", best_of_lower(pass.setup_s), "s"},
      {"peak_rss_mb", pass.peak_rss_mb, "MB"},
  };
}

int run_end_to_end(const Args& args) {
  const Plan plan{args.workload, args.seed, args.seconds, true, false};
  Pass pass;
  run_untraced(plan, pass);
  const std::vector<Metric> metrics = end_to_end(pass);
  std::cout << "samples: get " << sample_count(pass.get_ns) << ", free "
            << sample_count(pass.free_ns) << ", collect "
            << sample_count(pass.collect_us) << ", set-ups "
            << pass.setup_s.size() << ", windows "
            << pass.window_ops_per_s.size() << "\n";
  if (!pass.probe_collect_ns.empty()) {
    std::cout << "scanner: collect service time p50 "
              << median(pass.probe_collect_ns) / 1e3 << " us, start lateness p50 "
              << median(pass.lateness_us) << " us\n";
  }
  std::cout << "tails (printed, not bounded): get p99 "
            << windowed(pass.get_ns, 0.99) << " ns, free p99 "
            << windowed(pass.free_ns, 0.99) << " ns, collect p90 "
            << windowed(pass.collect_us, 0.90) << " us, collect p99 "
            << windowed(pass.collect_us, 0.99) << " us; error rate "
            << pass.failed << "/" << pass.attempted << "\n";
  print_metrics(metrics);
  std::cout << "window ops/s (M):";
  for (const double w : pass.window_ops_per_s) std::printf(" %.3f", w / 1e6);
  std::cout << std::endl;
  report_errors(pass, "end-to-end");
  const bool correct = pass.failed == 0;
  print_result(correct, pass.attempted, pass.failed, metrics);
  return correct ? 0 : 1;
}

int run_per_layer(const Args& args) {
  // The untraced pass is the base of bench.trace_overhead; the traced
  // pass gives everything else.
  const double half = args.seconds / 2;
  const Plan untraced_plan{args.workload, args.seed, half, false, false};
  Pass untraced;
  run_untraced(untraced_plan, untraced);
  const Plan traced_plan{args.workload, args.seed, half, false, true};
  TracedRun run;
  run_traced(traced_plan, run);
  const Pass& pass = run.pass;
  const TraceHooks& h = run.hooks;
  const double nspt = pass.ns_per_tick;
  const SpanSummary sum = summarize(run.timer_overhead_ticks);
  if (!args.trace_out.empty()) {
    write_spans(args.trace_out, nspt, run.timer_overhead_ticks);
  }

  constexpr int get = static_cast<int>(Op::kGet);
  constexpr int fre = static_cast<int>(Op::kFree);
  constexpr int core = static_cast<int>(Layer::kCore);
  constexpr int scl = static_cast<int>(Layer::kScale);
  constexpr int svc = static_cast<int>(Layer::kSvc);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b >= a ? b - a : 0);
  };
  const auto mean_self = [&](int l, int o) {
    return ratio(sum.self_ticks[l][o], sum.spans[l][o]) * nspt;
  };
  const auto mean_dur = [&](int l) {
    return ratio(sum.dur_ticks[l][get] + sum.dur_ticks[l][fre],
                 sum.spans[l][get] + sum.spans[l][fre]) *
           nspt;
  };
  const double outer_ops = sum.outer_ops();

  // Scan cost: peek_held() is the word scan alone; collect() adds the
  // cache drain. The array has no caches, so its collect is the scan.
  // Probes alternate which of the two runs first (even: peek first); the
  // two orders' median differences are averaged so cache warmth cancels.
  std::vector<double> drain_ns[2];
  for (std::size_t i = 0; i < pass.probe_peek_ns.size(); ++i) {
    drain_ns[i % 2].push_back(pass.probe_collect_ns[i] - pass.probe_peek_ns[i]);
  }
  const bool has_scale = run.top != Layer::kCore;

  // svc: the round trip on the client threads; exec is the server
  // worker's call into the structure for one request.
  const double rtt = mean_dur(svc);
  const double exec = run.top == Layer::kSvc ? mean_dur(scl) : 0.0;
  const double transport = rtt - exec;
  std::vector<double> rtt_ns;
  for (const double t : sum.svc_rtt_ticks) rtt_ns.push_back(t * nspt);

  const auto& sb = h.before.scale;
  const auto& sa = h.after.scale;
  const double scale_gets = delta(sb.cache_hits + sb.shared_gets,
                                  sa.cache_hits + sa.shared_gets);
  const double scale_frees = delta(sb.parked_frees + sb.direct_frees,
                                   sa.parked_frees + sa.direct_frees);
  const auto& vb = h.before.server;
  const auto& va = h.after.server;
  const double requests = delta(vb.requests, va.requests);

  // Layer self time per churn op; svc keeps only its transport share
  // (the server-side trees are the core and scale time of its requests).
  const double core_per_op = sum.per_op_self[core] * nspt;
  const double scale_per_op = sum.per_op_self[scl] * nspt;
  const double svc_per_op = (sum.per_op_self[svc] - sum.per_op_exec) * nspt;
  const double self_per_op = core_per_op + scale_per_op + svc_per_op;
  const double traced_per_op = sum.per_op_traced * nspt;

  const std::vector<Metric> metrics = {
      {"core.get_ns", mean_self(core, get), "ns"},
      {"core.free_ns", mean_self(core, fre), "ns"},
      {"core.probes_per_get",
       ratio(static_cast<double>(sum.probes), static_cast<double>(sum.core_names)),
       "count"},
      {"core.probes_max", static_cast<double>(sum.probes_max), "count"},
      {"core.deepest_batch_max", static_cast<double>(sum.deepest_batch_max),
       "count"},
      {"core.backup_ratio",
       ratio(static_cast<double>(sum.backups), static_cast<double>(sum.core_names)),
       "ratio"},
      {"core.deep_fill_max", h.deep_fill_max, "ratio"},
      {"core.calls_per_op",
       ratio(static_cast<double>(sum.calls[core][get] + sum.calls[core][fre]),
             outer_ops),
       "ratio"},
      {"core.collect_ns_per_slot",
       ratio(median(pass.probe_peek_ns), static_cast<double>(pass.total_slots)),
       "ns"},
      {"scale.get_ns", mean_self(scl, get), "ns"},
      {"scale.free_ns", mean_self(scl, fre), "ns"},
      {"scale.cache_hit_ratio", ratio(delta(sb.cache_hits, sa.cache_hits), scale_gets),
       "ratio"},
      {"scale.parked_free_ratio",
       ratio(delta(sb.parked_frees, sa.parked_frees), scale_frees), "ratio"},
      {"scale.refusals_per_get",
       ratio(delta(sb.shard_refusals, sa.shard_refusals), scale_gets), "ratio"},
      {"scale.cache_drains", delta(sb.cache_drains, sa.cache_drains), "count"},
      {"scale.collect_drains", delta(sb.collect_drains, sa.collect_drains), "count"},
      {"scale.wait_rounds",
       delta(h.before.waits.wait_rounds, h.after.waits.wait_rounds), "count"},
      {"scale.parks", delta(h.before.waits.parks, h.after.waits.parks), "count"},
      {"scale.drain_us",
       has_scale ? (median(drain_ns[0]) + median(drain_ns[1])) / 2e3 : 0.0, "us"},
      {"svc.rtt_ns", rtt, "ns"},
      {"svc.rtt_p99_ns", quantile(rtt_ns, 0.99), "ns"},
      {"svc.exec_ns", exec, "ns"},
      {"svc.transport_ns", transport, "ns"},
      {"svc.exec_share", ratio(exec, rtt), "ratio"},
      {"svc.names_per_request",
       ratio(delta(vb.names_granted + vb.names_freed, va.names_granted + va.names_freed),
             requests),
       "ratio"},
      {"svc.idle_parks_per_request", ratio(delta(vb.idle_parks, va.idle_parks), requests),
       "ratio"},
      {"svc.client_parks", delta(h.before.client.parks, h.after.client.parks), "count"},
      {"svc.pending_parked", delta(vb.pending_parked, va.pending_parked), "count"},
      {"bench.trace_overhead",
       ratio(best_of_higher(pass.window_ops_per_s),
             best_of_higher(untraced.window_ops_per_s)),
       "ratio"},
      {"bench.traced_ns_per_op", traced_per_op, "ns"},
      {"bench.layer_self_ns_per_op", self_per_op, "ns"},
  };

  std::cout << "timer overhead " << run.timer_overhead_ticks * nspt
            << " ns per span (subtracted); sampled spans: core "
            << sum.spans[core][get] + sum.spans[core][fre] << ", scale "
            << sum.spans[scl][get] + sum.spans[scl][fre] << ", svc "
            << sum.spans[svc][get] + sum.spans[svc][fre] << "\n";
  if (rtt > 0) {
    std::cout << "a scale-layer gain reaches daemon_churn diluted by "
                 "svc.exec_share = exec " << exec << " ns / rtt " << rtt
              << " ns\n";
  }
  print_metrics(metrics);
  report_errors(untraced, "untraced pass");
  report_errors(pass, "traced pass");

  // Sanity: the layers' self times cannot add up to more than the traced
  // op they ran in, and the svc split must add back up to the round trip.
  bool sane = true;
  std::cout << "sanity: layer self " << self_per_op << " ns/op vs traced op "
            << traced_per_op << " ns/op (wall "
            << ratio(kChurnThreads * pass.measure_s * 1e9,
                     static_cast<double>(pass.measured_ops))
            << " ns/op)\n";
  if (!(self_per_op <= traced_per_op * (1 + 1e-9))) {
    std::cout << "SANITY FAILED: layer self time per op exceeds the traced op\n";
    sane = false;
  }
  if (std::fabs(exec + transport - rtt) > 1e-9 * std::max(1.0, rtt) ||
      transport < 0) {
    std::cout << "SANITY FAILED: svc exec " << exec << " + transport "
              << transport << " != rtt " << rtt << "\n";
    sane = false;
  }

  // The predicted split: which layer's self time leads on this workload.
  std::string leader = "core";
  double lead = core_per_op;
  if (scale_per_op > lead) {
    leader = "scale";
    lead = scale_per_op;
  }
  if (svc_per_op > lead) leader = "svc.transport";
  std::string predicted;
  switch (args.workload->id) {
    case Workload::kLevelChurn: predicted = "core"; break;
    case Workload::kShardedChurn: predicted = "scale"; break;
    case Workload::kDaemonChurn: predicted = "svc.transport"; break;
    case Workload::kShardedScan: {
      // The scanner's busy time (scan + drain) against the churn
      // threads' layer self time, both per second of the window.
      predicted = "scan+drain";
      double collect_ns = 0;
      for (const double ns : pass.probe_collect_ns) collect_ns += ns;
      const double scan_s = collect_ns / 1e9 / pass.measure_s;
      const double churn_s =
          (core_per_op + scale_per_op) * outer_ops / 1e9 / pass.measure_s;
      std::cout << "scanner busy " << scan_s << " s/s vs churn-path layers "
                << churn_s << " s/s; scanner start lateness p50 "
                << median(untraced.lateness_us) << " us\n";
      if (scan_s > churn_s) leader = "scan+drain";
      break;
    }
  }
  std::cout << "layer self ns/op: core " << core_per_op << ", scale "
            << scale_per_op << ", svc.transport " << svc_per_op << "\n";
  std::cout << "predicted split: " << predicted << " leads; measured: "
            << leader << " leads -> "
            << (leader == predicted ? "holds" : "does not hold") << "\n";

  const bool correct = untraced.failed == 0 && pass.failed == 0 && sane;
  print_result(correct, untraced.attempted + pass.attempted,
               untraced.failed + pass.failed + (sane ? 0 : 1), metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
  const std::string compiler = __VERSION__;  // "Clang x.y.z ..."
#elif defined(__GNUC__)
  const std::string compiler = std::string("GCC ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::cout << "{\"stamp\": {\"commit\": \"" << json_escape(args.commit)
            << "\", \"dirty\": \"" << json_escape(args.dirty)
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << json_escape(cpu_model())
            << "\", \"compiler\": \"" << json_escape(compiler)
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"workload\": \"" << args.workload->name
            << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << (args.trace ? 1 : 0) << "}}\n";
  try {
    return args.trace ? run_per_layer(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::cerr << "levelbench: " << e.what() << "\n";
    return 1;
  }
}
