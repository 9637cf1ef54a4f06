// Span tracing for the benchmark's traced run, from outside the library.
//
// Timed<Inner> is a decorator that satisfies the api::Renamer contract by
// forwarding every call to the structure it owns, and records a span
// around the call. It is injected through the library's own factories —
// ShardedRenamer<Timed<LevelArray>> builds its shards through the shard
// factory, ServiceRenamer<Timed<ShardedRenamer<...>>> its server-side
// structure through the service factory — so every layer boundary gets a
// span with no change to the library. The optional surfaces (batch,
// deadline, wait/scale stats, peek_held, batch occupancy) are forwarded
// only where the inner structure has them, so the api detection traits
// see the same structure through the decorator.
//
// Spans are sampled: on each thread, one outermost call in kSampleEvery
// is traced together with every nested call it makes on that thread (the
// benchmark opens the outermost Scope itself, around each churn op).
// Call counts and the core Get outcomes are counted on every call while
// tracing is enabled. Everything stays in per-thread memory until the
// run ends; a thread's log outlives the thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "api/renamer.hpp"
#include "core/level_array.hpp"
#include "core/types.hpp"
#include "scale/sharded.hpp"
#include "svc/service.hpp"

namespace perfbench {

// Timestamps: the TSC where there is one (about 16 ns per read on a
// 2.1 GHz Xeon VM, against 28 ns for steady_clock, which matters around
// ~20 ns cached operations), steady_clock otherwise. TickRate converts
// ticks to ns against steady_clock over a whole run.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

class TickRate {
 public:
  TickRate() : tick0_(ticks()), clock0_(std::chrono::steady_clock::now()) {}

  // ns per tick from construction until now; call once the timed work is
  // done (a longer base gives a more exact rate).
  double ns_per_tick() const {
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - clock0_)
                          .count();
    const double t = static_cast<double>(ticks() - tick0_);
    return t > 0 ? ns / t : 1.0;
  }

 private:
  std::uint64_t tick0_;
  std::chrono::steady_clock::time_point clock0_;
};

// What a span's interval adds by being timed: the median of back-to-back
// ticks() pairs (about 20 ns on a 2.1 GHz Xeon VM). Span durations are
// corrected by it; see summarize() in levelbench.cpp.
inline double timer_overhead_ticks() {
  std::vector<std::uint64_t> d(20001);
  for (auto& x : d) {
    const std::uint64_t t0 = ticks();
    x = ticks() - t0;
  }
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return static_cast<double>(d[d.size() / 2]);
}

// kBench is the benchmark's own op boundary around each traced call into
// the top layer: its span is the traced op, its self time the loop's.
enum class Layer : std::uint8_t { kCore, kScale, kSvc, kBench };
enum class Op : std::uint8_t { kGet, kFree, kCollect };
inline constexpr std::size_t kLayers = 4;
inline constexpr std::size_t kOps = 3;

template <typename T>
struct LayerOf;
template <>
struct LayerOf<la::core::LevelArray> {
  static constexpr Layer value = Layer::kCore;
};
template <typename I>
struct LayerOf<la::scale::ShardedRenamer<I>> {
  static constexpr Layer value = Layer::kScale;
};
template <typename I>
struct LayerOf<la::svc::ServiceRenamer<I>> {
  static constexpr Layer value = Layer::kSvc;
};

inline constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

struct Span {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint32_t parent = kNoSpan;  // index in the same thread's log
  Layer layer = Layer::kCore;
  Op op = Op::kGet;
};

// One thread's trace. Written only by its thread; read after the run.
struct ThreadLog {
  // Odd, so a thread alternating Free and Get samples both.
  static constexpr std::uint32_t kSampleEvery = 63;
  static constexpr std::uint32_t kMaxSpans = std::uint32_t{1} << 18;

  // Pre-touched: a span is written only when it closes, so no store to
  // cold memory sits inside a measured interval (a fence in the traced
  // call would otherwise wait for it).
  std::vector<Span> spans = std::vector<Span>(kMaxSpans);
  std::uint32_t used = 0;
  std::uint64_t calls[kLayers][kOps] = {};
  // Outcomes of every core Get (GetResult), sampled or not.
  std::uint64_t core_names = 0;
  std::uint64_t probes = 0;
  std::uint64_t probes_max = 0;
  std::uint64_t deepest_batch_max = 0;
  std::uint64_t backups = 0;

  std::uint32_t depth = 0;
  std::uint32_t current = kNoSpan;
  std::uint32_t countdown = kSampleEvery;
  bool sampling = false;
};

// Process-wide: one traced pass per process. Plain inline variables (no
// function-local static guards) keep the untraced-call cost to one
// relaxed load.
class Tracer {
 public:
  static void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  static bool enabled() { return on_.load(std::memory_order_relaxed); }

  static ThreadLog& local() {
    if (log_ == nullptr) {
      std::lock_guard<std::mutex> guard(mu_);
      log_ = &logs_.emplace_back();
    }
    return *log_;
  }

  // Every thread's log. Call only once the traced threads are quiescent.
  static std::vector<const ThreadLog*> logs() {
    std::lock_guard<std::mutex> guard(mu_);
    std::vector<const ThreadLog*> out;
    for (const ThreadLog& log : logs_) out.push_back(&log);
    return out;
  }

 private:
  static inline std::atomic<bool> on_{false};
  static inline std::mutex mu_;
  static inline std::deque<ThreadLog> logs_;  // deque: addresses stay put
  static inline thread_local ThreadLog* log_ = nullptr;
};

// One call at one layer boundary: counts it, and opens a span when the
// outermost call on this thread was picked for sampling.
class Scope {
 public:
  Scope(Layer layer, Op op) : layer_(layer), op_(op) {
    if (!Tracer::enabled()) return;
    log_ = &Tracer::local();
    ++log_->calls[static_cast<int>(layer)][static_cast<int>(op)];
    if (log_->depth++ == 0) {
      log_->sampling = --log_->countdown == 0;
      if (log_->countdown == 0) log_->countdown = ThreadLog::kSampleEvery;
    }
    if (log_->sampling && log_->used < ThreadLog::kMaxSpans) {
      index_ = log_->used++;
      parent_ = log_->current;
      log_->current = index_;
      t0_ = ticks();
    }
  }

  ~Scope() {
    if (log_ == nullptr) return;
    if (index_ != kNoSpan) {
      const std::uint64_t t1 = ticks();
      log_->spans[index_] = Span{t0_, t1, parent_, layer_, op_};
      log_->current = parent_;
    }
    if (--log_->depth == 0) log_->sampling = false;
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Core Get outcomes (probe counts, depth, backup sweeps).
  void got(const la::GetResult* results, std::size_t n) {
    if (log_ == nullptr) return;
    log_->core_names += n;
    for (std::size_t i = 0; i < n; ++i) {
      const la::GetResult& r = results[i];
      log_->probes += r.probes;
      if (r.probes > log_->probes_max) log_->probes_max = r.probes;
      if (r.deepest_batch > log_->deepest_batch_max) {
        log_->deepest_batch_max = r.deepest_batch;
      }
      if (r.used_backup) ++log_->backups;
    }
  }

 private:
  Layer layer_;
  Op op_;
  ThreadLog* log_ = nullptr;
  std::uint32_t index_ = kNoSpan;
  std::uint32_t parent_ = kNoSpan;
  std::uint64_t t0_ = 0;
};

template <typename Inner>
class Timed {
  static_assert(la::api::is_renamer_v<Inner>,
                "Timed decorates the api::Renamer contract");

 public:
  static constexpr Layer kLayer = LayerOf<Inner>::value;

  explicit Timed(std::unique_ptr<Inner> inner) : inner_(std::move(inner)) {}
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  Inner& inner() { return *inner_; }
  const Inner& inner() const { return *inner_; }

  template <typename Rng>
  la::GetResult get(Rng& rng) {
    Scope scope(kLayer, Op::kGet);
    const la::GetResult r = inner_->get(rng);
    if constexpr (kLayer == Layer::kCore) scope.got(&r, 1);
    return r;
  }

  void free(std::uint64_t name) {
    Scope scope(kLayer, Op::kFree);
    inner_->free(name);
  }

  std::size_t collect(std::vector<std::uint64_t>& out) const {
    Scope scope(kLayer, Op::kCollect);
    return inner_->collect(out);
  }

  std::uint64_t capacity() const { return inner_->capacity(); }
  std::uint64_t total_slots() const { return inner_->total_slots(); }

  template <typename Rng, typename I = Inner>
  auto get_batch(Rng& rng, la::GetResult* out, std::size_t k)
      -> decltype(std::declval<I&>().get_batch(rng, out, k)) {
    Scope scope(kLayer, Op::kGet);
    const std::size_t n = inner_->get_batch(rng, out, k);
    if constexpr (kLayer == Layer::kCore) scope.got(out, n);
    return n;
  }

  template <typename I = Inner>
  auto free_batch(const std::uint64_t* names, std::size_t k)
      -> decltype(std::declval<I&>().free_batch(names, k)) {
    Scope scope(kLayer, Op::kFree);
    inner_->free_batch(names, k);
  }

  template <typename Rng, typename I = Inner>
  auto get_for(Rng& rng, la::GetResult& out, std::uint64_t deadline_ns)
      -> decltype(std::declval<I&>().get_for(rng, out, deadline_ns)) {
    Scope scope(kLayer, Op::kGet);
    const bool granted = inner_->get_for(rng, out, deadline_ns);
    if constexpr (kLayer == Layer::kCore) {
      if (granted) scope.got(&out, 1);
    }
    return granted;
  }

  template <typename Rng, typename I = Inner>
  auto get_batch_for(Rng& rng, la::GetResult* out, std::size_t k,
                     std::uint64_t deadline_ns)
      -> decltype(std::declval<I&>().get_batch_for(rng, out, k,
                                                    deadline_ns)) {
    Scope scope(kLayer, Op::kGet);
    const std::size_t n = inner_->get_batch_for(rng, out, k, deadline_ns);
    if constexpr (kLayer == Layer::kCore) scope.got(out, n);
    return n;
  }

  // Read-only surfaces, forwarded untraced.
  template <typename I = Inner>
  auto wait_stats() const -> decltype(std::declval<const I&>().wait_stats()) {
    return inner_->wait_stats();
  }
  template <typename I = Inner>
  auto stats() const -> decltype(std::declval<const I&>().stats()) {
    return inner_->stats();
  }
  template <typename I = Inner>
  auto peek_held(std::vector<std::uint64_t>& out) const
      -> decltype(std::declval<const I&>().peek_held(out)) {
    return inner_->peek_held(out);
  }
  template <typename I = Inner>
  auto batch_occupancy() const
      -> decltype(std::declval<const I&>().batch_occupancy()) {
    return inner_->batch_occupancy();
  }
  template <typename I = Inner>
  auto geometry() const -> decltype(std::declval<const I&>().geometry()) {
    return inner_->geometry();
  }

 private:
  std::unique_ptr<Inner> inner_;
};

template <typename T>
struct IsTimed : std::false_type {};
template <typename I>
struct IsTimed<Timed<I>> : std::true_type {};
template <typename T>
inline constexpr bool kIsTimed = IsTimed<T>::value;

// The decorator must be invisible to the api detection traits.
template <typename I>
inline constexpr bool kSameSurface =
    la::api::is_renamer_v<Timed<I>> &&
    la::api::has_native_get_batch_v<Timed<I>> ==
        la::api::has_native_get_batch_v<I> &&
    la::api::has_native_free_batch_v<Timed<I>> ==
        la::api::has_native_free_batch_v<I> &&
    la::api::has_native_get_for_v<Timed<I>> ==
        la::api::has_native_get_for_v<I> &&
    la::api::has_native_get_batch_for_v<Timed<I>> ==
        la::api::has_native_get_batch_for_v<I> &&
    la::api::has_wait_stats_v<Timed<I>> == la::api::has_wait_stats_v<I> &&
    la::api::has_batch_occupancy_v<Timed<I>> ==
        la::api::has_batch_occupancy_v<I> &&
    la::api::has_geometry_v<Timed<I>> == la::api::has_geometry_v<I>;

}  // namespace perfbench
