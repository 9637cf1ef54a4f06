// ShardedRenamer<Inner> — the scaling layer: partitions the name space
// into S shards, each backed by an independent instance of any structure
// satisfying the api::Renamer contract, and puts a per-thread free-name
// cache in front of the shards so steady churn runs uncontended.
//
//   * Affinity: each thread gets a home shard (round-robin over cache
//     slots, so threads spread evenly). Get tries the home shard first
//     and overflow-probes the neighbors in ring order when a shard
//     refuses.
//   * Refusal: the wrapper gates each shard with an occupancy counter at
//     the shard's own contention bound. The gate is what makes a shard
//     able to "refuse" at all — every inner structure's Get is total and
//     would otherwise spin on a full shard — and it preserves the inner
//     structure's contention precondition (holds <= capacity), so the
//     inner Get always terminates.
//   * Caching: Free parks the name in the calling thread's cache (the
//     underlying slot stays acquired, the name is logically free); Get
//     pops a recently parked name in O(cache) with no shared-state
//     traffic. The cache is bounded: overflow flushes the oldest half
//     back to their shards. Caches drain on thread exit (see
//     thread_cache.hpp), on collect(), and when every shard refuses a
//     Get (parked names are reclaimable capacity — draining restores the
//     global progress guarantee).
//   * Batching: get_batch/free_batch amortize the shared-state traffic
//     across k names — one gate fetch_add(k) per shard sweep (with an
//     exact refund on partial refusal), one cache-stack walk to pop or
//     park the whole batch, and shard-grouped direct releases taking one
//     gate fetch_sub per run. A batch may be granted partially when
//     every shard refuses (see the api batch contract); free_batch
//     validates the whole batch against the held-bitmap before touching
//     any shared state.
//   * One Get path: sweep_shards is the only shard sweep, wait_for_grant
//     the only wait ladder; a single-name Get is one cache pop, then a
//     k = 1 sweep, and a shard accepting one name runs the inner get
//     (the paper's walk).
//
// The cache is deliberately not a locked container: each entry ("bin")
// is a single std::atomic<uint64_t> holding name+1, 0 when empty. The
// owning thread is the only writer of nonzero values (single producer),
// so parking is one seq_cst exchange into a bin known to be empty;
// popping and cross-thread stealing (collect()/global-miss drains) race
// each other with exchange(0) — whoever reads the nonzero token owns the
// name. The owner's approximate stack discipline (push above, pop below a
// private top hint) keeps reuse hot without any cross-bin invariant that
// steals could break. The hot Free+Get pair therefore costs two atomic
// RMWs (the park and the pop), where a mutex-protected cache costs four
// (lock+unlock twice), and no fence: the park's exchange doubles as the
// fence of the Free's wakeup (the wake edge below).
//
// Names are globally unique: global = shard * stride + local, where
// stride is the max inner slot count rounded up to a power of two (shard
// and local are one shift/mask on the Free path). The wrapper keeps a
// dense held-bitmap of *logically* held names — marked on Get (non-RMW:
// the name's exclusivity already rides on the bin exchange or the inner
// TAS), cleared on Free — which gives exact double-free detection even
// for parked names. It is a core::SlotArray, the same object as the
// LevelArray's own slots, so its checked release is every Free's check
// and its word scan is collect().
//
// Happens-before ledger (what makes the above sound):
//   park(seq_cst exchange of the bin) ->  steal/pop(acquire exchange):
//     covers the parker's held-bitmap clear and everything before it;
//   drain's inner free(release)     ->  any later inner get(acquire RMW):
//     covers re-issue of a drained name to another thread;
//   fork/join in the harnesses      ->  reaper frees and final collect.
// And the wake edge, an order in S (see wait_queue.hpp): the release
// (park exchange, gate fetch_sub) -> wake's count_ load, against a
// parking Get's count_ increment -> probe_capacity; all seq_cst.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/renamer.hpp"
#include "core/slot_array.hpp"
#include "core/types.hpp"
#include "scale/thread_cache.hpp"
#include "sync/atomic_select.hpp"
#include "sync/cache.hpp"
#include "sync/futex.hpp"
#include "sync/spin_lock.hpp"
#include "sync/wait_queue.hpp"

namespace la::scale {

struct ShardedConfig {
  // Number of shards S; 0 is promoted to 1.
  std::uint32_t shards = 8;
  // Per-thread free-name cache bins; 0 disables caching (shard affinity
  // and overflow probing still apply). A full cache flushes its oldest
  // half (at least one name) back to the shards.
  std::uint32_t cache_capacity = 16;
  // Per-thread slots (cache bins + home shard), claimed on first touch
  // even when cache_capacity is 0. Threads beyond this run uncached
  // (correct, just slower) on a home shard hashed from their thread id.
  // Slots freed by exited threads are reused.
  std::uint32_t max_threads = 128;
};

// Running totals. Per-thread counters are owner-written (plain
// load+store on owner-only atomics) and summed racily; treat as a
// monotonic snapshot.
struct ShardedStats {
  std::uint64_t cache_hits = 0;      // Gets served from the local cache
  std::uint64_t shared_gets = 0;     // Gets that went to a shard
  std::uint64_t parked_frees = 0;    // Frees parked locally
  std::uint64_t direct_frees = 0;    // Frees released straight to a shard
  std::uint64_t shard_refusals = 0;  // overflow probes past a full shard
  std::uint64_t cache_drains = 0;    // drains for capacity (global miss,
                                     // exit flush, explicit drain_caches)
  std::uint64_t collect_drains = 0;  // drains forced by collect()'s
                                     // exactness requirement — separated
                                     // so drain-*pressure* metrics are
                                     // not inflated by observers
};

namespace detail {

// One thread's cache header: its `cache_capacity` bins start at `first`
// in the shared bin array. `top` is the owner's private stack hint;
// `hits`/`parked` are owner-written stats (single writer, so a non-RMW
// load+store increment is race-free; readers take racy snapshots).
struct CacheSlot {
  std::uint32_t home_shard = 0;
  std::uint32_t first = 0;
  std::uint32_t top = 0;  // owner-only
  la::detail::atomic<std::uint64_t> hits{0};
  la::detail::atomic<std::uint64_t> parked{0};
};

// One shard's gate + statistics, padded together: the gate RMW already
// owns this line on every shard-path op, so the stat increments ride on
// it for free instead of bouncing a separate global line (which would
// bias the very cross-thread traffic the thread-scaling sweep measures).
struct ShardCounters {
  la::detail::atomic<std::uint64_t> occupancy{0};  // the refusal gate
  la::detail::atomic<std::uint64_t> shared_gets{0};
  la::detail::atomic<std::uint64_t> direct_frees{0};
  la::detail::atomic<std::uint64_t> refusals{0};
};

inline std::uint64_t next_instance_id() {
  static la::detail::atomic<std::uint64_t> source{1};
  return source.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

template <typename Inner>
class ShardedRenamer {
 public:
  // make_shard(index) -> std::unique_ptr<Inner>, called S times. The
  // caller decides how the global contention bound splits across shards
  // (the registry gives every shard ceil(capacity / S)).
  template <typename Factory>
  ShardedRenamer(const ShardedConfig& config, Factory&& make_shard)
      : config_(sanitized(config)),
        id_(detail::next_instance_id()),
        shards_(make_shards(config_.shards, make_shard)),
        stride_shift_(stride_shift_for(shards_)),
        stride_(std::uint64_t{1} << stride_shift_),
        held_("ShardedRenamer",
              static_cast<std::uint64_t>(config_.shards) << stride_shift_,
              total_capacity(shards_)) {
    for (const auto& shard : shards_) {
      gates_.push_back(shard->capacity());
      local_bounds_.push_back(shard->total_slots());
    }
    counts_ = std::vector<sync::CachePadded<detail::ShardCounters>>(
        config_.shards);
    caches_ = std::vector<sync::CachePadded<detail::CacheSlot>>(
        config_.max_threads);
    bins_ = std::vector<la::detail::atomic<std::uint64_t>>(
        static_cast<std::size_t>(config_.max_threads) *
        config_.cache_capacity);
    for (auto& bin : bins_) bin.store(0, std::memory_order_relaxed);
    for (std::uint32_t slot = 0; slot < config_.max_threads; ++slot) {
      caches_[slot]->home_shard = slot % config_.shards;
      caches_[slot]->first = slot * config_.cache_capacity;
    }
    control_ = std::make_shared<CacheControl>();
    control_->flush = &ShardedRenamer::flush_thunk;
    control_->owner.store(this, std::memory_order_release);
  }

  ShardedRenamer(const ShardedRenamer&) = delete;
  ShardedRenamer& operator=(const ShardedRenamer&) = delete;

  ~ShardedRenamer() {
    // Threads that already exited have flushed; the current thread's (and
    // any future) exit hook sees the null owner and skips. Destroying the
    // structure while other threads still operate on it is UB, as for
    // every structure in this library.
    control_->owner.store(nullptr, std::memory_order_release);
  }

  template <typename Rng>
  GetResult get(Rng& rng) {
    GetResult out;
    // With no deadline get_for cannot refuse, only block.
    (void)get_for(rng, out, api::kNoDeadline);
    return out;
  }

  // Bounded-wait Get: park at most until the absolute CLOCK_MONOTONIC
  // deadline (api::kNoDeadline = forever), then refuse with false — the
  // timed-out refusal the api::get_for contract defines. Counted in
  // wait_stats().timeouts. A cache hit returns before the wait ladder is
  // entered, which keeps the hot Free+Get pair as cheap as one pop; a
  // miss goes straight to the shard sweep, without walking the cache a
  // second time.
  template <typename Rng>
  bool get_for(Rng& rng, GetResult& out, std::uint64_t deadline_ns) {
    detail::CacheSlot* cache = cache_slot();
    if (cache != nullptr && pop_parked_batch(*cache, &out, 1) == 1) return true;
    return wait_for_grant(rng, &out, 1, deadline_ns,
                          sweep_shards(rng, &out, 1, 0, cache)) == 1;
  }

  // Batch claim: pop parked names in one walk down the cache stack, then
  // reserve each shard's gate with a single fetch_add(k) — refunding the
  // unused remainder exactly on partial refusal — and claim the accepted
  // count through the inner structure's own batch surface (the gate
  // reservation is what lets the inner total claim run to completion).
  // May grant fewer than k (even zero) when every shard refuses after a
  // cache drain: partial batches hand the retry decision to the caller
  // instead of spinning here, which is the api batch contract.
  template <typename Rng>
  std::size_t get_batch(Rng& rng, GetResult* out, std::size_t k) {
    if (k == 0) return 0;
    detail::CacheSlot* cache = cache_slot();
    const std::size_t granted =
        cache != nullptr ? pop_parked_batch(*cache, out, k) : 0;
    if (granted == k) return granted;
    return sweep_shards(rng, out, k, granted, cache);
  }

  // Bounded-wait batch claim: retries get_batch until *something* is
  // granted or the deadline passes. Returns the granted count — a
  // partial grant returns immediately (the api batch contract hands the
  // top-up retry to the caller); 0 means the deadline expired with every
  // shard at its bound (counted in wait_stats().timeouts).
  template <typename Rng>
  std::size_t get_batch_for(Rng& rng, GetResult* out, std::size_t k,
                            std::uint64_t deadline_ns) {
    if (k == 0) return 0;
    return wait_for_grant(rng, out, k, deadline_ns, get_batch(rng, out, k));
  }

  void free(std::uint64_t name) {
    clear_held(name, "free");
    if (config_.cache_capacity != 0) {
      if (detail::CacheSlot* cache = cache_slot()) {
        park(*cache, name);
        wait_queue_.wake_one();
        return;
      }
    }
    release_to_shard(name);
    counts_[static_cast<std::size_t>(name >> stride_shift_)]
        ->direct_frees.fetch_add(1, std::memory_order_relaxed);
    wait_queue_.wake_one();
  }

  // Batch free: validate and clear every held bit first — catching
  // out-of-range names, double frees, and duplicates inside the batch —
  // then distribute the whole batch at once: one walk parks into the
  // cache with a single stats update, and the overflow releases straight
  // to the shards in shard-grouped runs so each gate takes one fetch_sub
  // per run instead of one per name. On a bad name the already-cleared
  // prefix is distributed before the throw, so a throwing batch has
  // freed exactly the names before the one it reports (the api batch
  // contract, matching the single-op fallback loop).
  void free_batch(const std::uint64_t* names, std::size_t k) {
    std::size_t cleared = 0;
    try {
      // Clearing as we validate is also the duplicate detector: the
      // second occurrence of a name inside the batch reads clear.
      for (; cleared < k; ++cleared) clear_held(names[cleared], "free_batch");
    } catch (...) {
      distribute_freed(names, cleared);
      throw;
    }
    distribute_freed(names, k);
  }

  // Logically held names: drains every cache first (so the shards' own
  // state agrees with the logical state at the audit point), then
  // word-scans the dense held-bitmap. The drain is deliberate — it is
  // what makes the scan *exact* against the shards at quiescence — but
  // it perturbs the structure (destroys cache locality for every
  // thread), so observability paths that only need the logical hold set
  // must use peek_held() instead. Collect-forced drains are counted in
  // ShardedStats::collect_drains, not cache_drains, so the
  // drain-pressure metric still measures capacity pressure alone.
  std::size_t collect(std::vector<std::uint64_t>& out) const {
    drain_bins(bins_.data(), bins_.size());
    collect_drains_.fetch_add(1, std::memory_order_relaxed);
    wait_queue_.wake_all();
    return peek_held(out);
  }

  // Non-perturbing hold-set scan: the dense held-bitmap alone, no cache
  // drain. This is still *exact* for logical holds — free() clears the
  // held bit before parking the name, so a parked (logically free) name
  // never appears here — but unlike collect() it leaves the shards' own
  // occupancy out of sync with the logical state (parked names stay
  // acquired inside their shard). Monitoring, stats, and snapshot
  // paths that tolerate racy-snapshot semantics use this.
  std::size_t peek_held(std::vector<std::uint64_t>& out) const {
    return held_.collect(out);
  }

  std::uint64_t capacity() const { return held_.capacity(); }
  std::uint64_t total_slots() const { return held_.total_slots(); }

  std::uint32_t num_shards() const { return config_.shards; }
  std::uint64_t shard_stride() const { return stride_; }
  // Shard `index`'s current gate reservation (racy snapshot). At
  // quiescence with drained caches it must equal the shard's true holds
  // — the batch tests pin the no-drift acceptance criterion on it.
  std::uint64_t gate_occupancy(std::uint32_t index) const {
    return counts_[index]->occupancy.load(std::memory_order_relaxed);
  }
  const Inner& shard(std::uint32_t index) const { return *shards_[index]; }
  const ShardedConfig& config() const { return config_; }

  // Flush every thread's parked names back to their shards. Safe against
  // concurrent owners (bins hand off by exchange); called by collect(),
  // the global-miss path, thread exit, and tests.
  void drain_caches() const {
    drain_bins(bins_.data(), bins_.size());
    drains_.fetch_add(1, std::memory_order_relaxed);
    wait_queue_.wake_all();
  }

  api::WaitStats wait_stats() const {
    api::WaitStats stats;
    stats.wait_rounds = gate_wait_rounds_.load(std::memory_order_relaxed);
    stats.parks = gate_parks_.load(std::memory_order_relaxed);
    stats.timeouts = gate_timeouts_.load(std::memory_order_relaxed);
    return stats;
  }

  ShardedStats stats() const {
    ShardedStats totals;
    for (auto& padded : caches_) {
      totals.cache_hits += padded->hits.load(std::memory_order_relaxed);
      totals.parked_frees += padded->parked.load(std::memory_order_relaxed);
    }
    for (auto& padded : counts_) {
      totals.shared_gets +=
          padded->shared_gets.load(std::memory_order_relaxed);
      totals.direct_frees +=
          padded->direct_frees.load(std::memory_order_relaxed);
      totals.shard_refusals +=
          padded->refusals.load(std::memory_order_relaxed);
    }
    totals.cache_drains = drains_.load(std::memory_order_relaxed);
    totals.collect_drains = collect_drains_.load(std::memory_order_relaxed);
    return totals;
  }

  // Checkpoint adoption (src/api/snapshot.hpp): re-seed one held name on
  // restore, decomposing the *global* name by this instance's stride —
  // which is how a restored image re-routes names into a different shard
  // count: the same numeric name lands in its new home shard. Reserves
  // the shard's gate (length_error past the bound — the image does not
  // fit this configuration), marks the logical held bit (logic_error on
  // a duplicate), and adopts the local slot inside the inner structure,
  // unwinding both on an inner throw. Available only when the Inner can
  // adopt (SFINAE on Inner::adopt_held — SplitterRenamer cannot, so
  // sharded:splitter is non-restorable by construction).
  template <typename I = Inner>
  auto adopt_held(std::uint64_t name) -> std::void_t<
      decltype(std::declval<I&>().adopt_held(std::uint64_t{}))> {
    const auto s = static_cast<std::size_t>(name >> stride_shift_);
    if (!routes(name)) {
      throw std::out_of_range(
          "ShardedRenamer::adopt_held: name does not route to any shard "
          "slot in this configuration");
    }
    held_.adopt_held(name);
    detail::ShardCounters& count = *counts_[s];
    if (count.occupancy.fetch_add(1, std::memory_order_relaxed) >=
        gates_[s]) {
      count.occupancy.fetch_sub(1, std::memory_order_relaxed);
      held_.free(name);
      throw std::length_error(
          "ShardedRenamer::adopt_held: shard gate at capacity (image does "
          "not fit this configuration)");
    }
    try {
      shards_[s]->adopt_held(name & (stride_ - 1));
    } catch (...) {
      count.occupancy.fetch_sub(1, std::memory_order_relaxed);
      held_.free(name);
      throw;
    }
  }

 private:
  static ShardedConfig sanitized(ShardedConfig config) {
    if (config.shards == 0) config.shards = 1;
    if (config.max_threads == 0) config.max_threads = 1;
    return config;
  }

  using Shards = std::vector<std::unique_ptr<Inner>>;

  template <typename Factory>
  static Shards make_shards(std::uint32_t count, Factory& make_shard) {
    Shards shards;
    shards.reserve(count);
    for (std::uint32_t s = 0; s < count; ++s) {
      shards.push_back(make_shard(s));
      if (shards.back() == nullptr) {
        throw std::invalid_argument("ShardedRenamer: null shard factory");
      }
    }
    return shards;
  }

  // log2 of the name stride: the largest shard's slot count, rounded up
  // to a power of two.
  static std::uint32_t stride_shift_for(const Shards& shards) {
    std::uint64_t max_slots = 1;
    for (const auto& shard : shards) {
      if (shard->total_slots() > max_slots) max_slots = shard->total_slots();
    }
    std::uint32_t shift = 0;
    while ((std::uint64_t{1} << shift) < max_slots) ++shift;
    if (shift >= 53) {
      throw std::invalid_argument("ShardedRenamer: shard stride overflows");
    }
    return shift;
  }

  static std::uint64_t total_capacity(const Shards& shards) {
    std::uint64_t total = 0;
    for (const auto& shard : shards) total += shard->capacity();
    return total;
  }

  // Does `name` decompose to a real slot of some shard (below
  // total_slots and outside the stride gap past the shard's own slots)?
  bool routes(std::uint64_t name) const {
    return name < held_.total_slots() &&
           (name & (stride_ - 1)) <
               local_bounds_[static_cast<std::size_t>(name >> stride_shift_)];
  }

  // Every Free path's check-and-clear of the logical held bit: the
  // routing check, then the held-bitmap's checked release. Parked names
  // have this bit clear, so a double free of a parked name fails here,
  // loudly.
  void clear_held(std::uint64_t name, const char* op) {
    if (!routes(name)) {
      throw std::out_of_range(std::string("ShardedRenamer::") + op +
                              ": name out of range");
    }
    held_.free(name, op);
  }

  // get_batch's shard sweep from `cache`'s home shard (this thread's
  // slot, or nullptr past max_threads), `granted` names already popped.
  template <typename Rng>
  std::size_t sweep_shards(Rng& rng, GetResult* out, std::size_t k,
                           std::size_t granted,
                           const detail::CacheSlot* cache) {
    const std::uint32_t home =
        cache != nullptr ? cache->home_shard : hashed_home();
    const std::size_t first_shared = granted;
    bool drained = false;
    for (;;) {
      std::uint32_t refusals = 0;
      for (std::uint32_t i = 0; i < config_.shards && granted < k; ++i) {
        const std::uint32_t s = ring(home, i);
        detail::ShardCounters& count = *counts_[s];
        const std::uint64_t want = k - granted;
        const std::uint64_t prev =
            count.occupancy.fetch_add(want, std::memory_order_relaxed);
        const std::uint64_t room = prev < gates_[s] ? gates_[s] - prev : 0;
        const std::uint64_t accepted = room < want ? room : want;
        if (accepted < want) {
          // Exact refund of the unclaimable remainder; the gate never
          // drifts past what this sweep actually takes.
          refund_gate(s, want - accepted);
          count.refusals.fetch_add(1, std::memory_order_relaxed);
          ++refusals;
        }
        if (accepted == 0) continue;
        std::size_t got = 1;
        try {
          if (accepted == 1) {
            out[granted] = shards_[s]->get(rng);  // the paper's probe walk
          } else {
            got = api::get_batch(*shards_[s], rng, out + granted,
                                 static_cast<std::size_t>(accepted));
          }
        } catch (...) {
          refund_gate(s, accepted);
          throw;
        }
        if (got < accepted) refund_gate(s, accepted - got);
        count.shared_gets.fetch_add(got, std::memory_order_relaxed);
        for (std::size_t g = 0; g < got; ++g) {
          GetResult inner = out[granted + g];
          out[granted + g] = grant(
              (static_cast<std::uint64_t>(s) << stride_shift_) | inner.name,
              inner.probes, inner);
        }
        granted += got;
      }
      if (granted > first_shared && refusals != 0) {
        // Overflow probes past full shards in this sweep ride on its
        // first shard-claimed result; refusals from earlier (fully
        // refused) sweeps are counted in shard_refusals only.
        out[first_shared].probes += refusals;
      }
      if (granted > 0) return granted;
      if (drained) return 0;
      // Every shard refused and the cache had nothing: parked names are
      // the reclaimable capacity — drain once, sweep again, and only
      // then report the refusal upward.
      drain_caches();
      drained = true;
    }
  }

  // The one wait ladder (get, get_for and get_batch_for enter it), given
  // the count its first get_batch attempt granted.
  //
  // A zero grant means every shard refused even after get_batch drained
  // the parked names. Back off first (a refusal storm can be peers'
  // transient gate reservations); once spin and yield are spent, park on
  // the FIFO wait queue. Parking is the eventcount protocol: register,
  // re-probe, only then sleep, so a Free between probe and sleep wakes
  // us (no lost wakeups; see wait_queue.hpp). A single Free wakes the
  // oldest waiter, and a woken waiter that loses the sweep re-parks at
  // the *front*, so starvation is bounded by queue position.
  template <typename Rng>
  std::size_t wait_for_grant(Rng& rng, GetResult* out, std::size_t k,
                             std::uint64_t deadline_ns, std::size_t granted) {
    sync::Backoff backoff;
    bool handoff = false;
    for (;; granted = get_batch(rng, out, k)) {
      if (granted != 0) return granted;
      gate_wait_rounds_.fetch_add(1, std::memory_order_relaxed);
      if (deadline_ns != api::kNoDeadline &&
          sync::FutexWord::monotonic_now_ns() >= deadline_ns) {
        gate_timeouts_.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
      if (!backoff.should_park()) {
        backoff.pause();
        continue;
      }
      sync::WaitQueue::Waiter waiter;
      wait_queue_.prepare_wait(waiter, handoff);
      if (probe_capacity()) {
        wait_queue_.cancel_wait(waiter);
        continue;
      }
      gate_parks_.fetch_add(1, std::memory_order_relaxed);
      if (wait_queue_.commit_wait(waiter, deadline_ns) ==
          sync::WaitResult::kTimedOut) {
        gate_timeouts_.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
      handoff = true;  // granted a wake: keep queue position on re-park
    }
  }

  std::uint32_t ring(std::uint32_t home, std::uint32_t step) const {
    const std::uint32_t s = home + step;
    return s < config_.shards ? s : s - config_.shards;
  }

  // Home shard of a thread past max_threads, which has no slot to name
  // one (every other thread, cached or not, takes its slot's).
  std::uint32_t hashed_home() const {
#if defined(LEVELARRAY_VERIFY)
    // Every fiber shares the one real thread's id; the runtime's logical
    // thread id keeps homes distinct per model-checked thread.
    return ::la::verify::current_thread_id() % config_.shards;
#else
    return static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        config_.shards);
#endif
  }

  GetResult grant(std::uint64_t name, std::uint32_t probes,
                  GetResult from_inner = GetResult{}) {
    if (held_[name].held()) {
      // Either an inner structure issued a name it already issued, or a
      // cache bin handed out a name twice — both corrupt occupancy.
      throw std::logic_error("ShardedRenamer: duplicate grant of name " +
                             std::to_string(name));
    }
    held_[name].mark_held();
    GetResult result = from_inner;
    result.name = name;
    result.probes = probes;
    return result;
  }

  // Return `n` unused gate reservations. While they sat on the gate, a
  // parking Get's probe could miss room a Free made (and woke for)
  // before that Get registered, so a refund that leaves the gate below
  // its bound is a release like any other: seq_cst RMW, then a wake.
  void refund_gate(std::uint32_t s, std::uint64_t n) const {
    const std::uint64_t before =
        counts_[s]->occupancy.fetch_sub(n, std::memory_order_seq_cst);
    if (before - n < gates_[s]) wake(n);
  }

  // A single release grants the oldest waiter; a bulk one wakes the
  // whole queue — the one case where that is the point, not a herd.
  void wake(std::uint64_t released) const {
    if (released == 1) {
      wait_queue_.wake_one();
    } else {
      wait_queue_.wake_all();
    }
  }

  // Release `name`'s underlying slot back to its shard. Gate decrement
  // strictly after the inner free: the gate must always upper-bound the
  // shard's true holds, or the inner Get termination argument breaks.
  // seq_cst: the decrement is the release the caller's wake relies on.
  void release_to_shard(std::uint64_t name) const {
    const std::uint32_t s = static_cast<std::uint32_t>(name >> stride_shift_);
    shards_[s]->free(name & (stride_ - 1));
    counts_[s]->occupancy.fetch_sub(1, std::memory_order_seq_cst);
  }

  // The one copy of the steal protocol: exchange each bin out and
  // release whatever was parked there. Used by the full drain and by the
  // thread-exit flush (a one-slot restriction of the same loop).
  void drain_bins(la::detail::atomic<std::uint64_t>* bins, std::size_t count) const {
    for (std::size_t i = 0; i < count; ++i) {
      if (bins[i].load(std::memory_order_relaxed) == 0) continue;
      const std::uint64_t token =
          bins[i].exchange(0, std::memory_order_acquire);
      if (token != 0) release_to_shard(token - 1);
    }
  }

  // Owner-only: pop up to k parked names in one walk down from the stack
  // hint, skipping bins stealers may have emptied. Each exchange races
  // concurrent steals; whoever reads nonzero owns the name. The hint and
  // the hits stat are written once per walk. After the walk every bin at
  // or above the new top is zero, so the park invariant is preserved.
  std::size_t pop_parked_batch(detail::CacheSlot& cache, GetResult* out,
                               std::size_t k) {
    la::detail::atomic<std::uint64_t>* bins = bins_.data() + cache.first;
    std::size_t popped = 0;
    std::uint32_t i = cache.top;
    while (i > 0 && popped < k) {
      --i;
      if (bins[i].load(std::memory_order_relaxed) == 0) continue;
      const std::uint64_t token =
          bins[i].exchange(0, std::memory_order_acquire);
      if (token != 0) {
        out[popped++] = grant(token - 1, /*probes=*/1);
      }
    }
    cache.top = i;
    if (popped != 0) {
      cache.hits.store(cache.hits.load(std::memory_order_relaxed) + popped,
                       std::memory_order_relaxed);
    }
    return popped;
  }

  // Distribute a batch of already-cleared names: fill the cache stack up
  // to capacity in one walk (per-name park() would re-check overflow and
  // bump the stats every time), then release the overflow straight to
  // the shards in shard-grouped runs — inner frees first, then one gate
  // fetch_sub for the whole run, so the gate keeps upper-bounding the
  // shard's true holds throughout. Precondition: the held bits for
  // names[0..count) are cleared and the caller owns the names
  // exclusively; nothing here throws short of real corruption.
  void distribute_freed(const std::uint64_t* names, std::size_t count) {
    std::size_t i = 0;
    if (config_.cache_capacity != 0) {
      if (detail::CacheSlot* cache = cache_slot()) {
        la::detail::atomic<std::uint64_t>* bins = bins_.data() + cache->first;
        std::uint32_t top = cache->top;
        while (i < count && top < config_.cache_capacity) {
          bins[top++].store(names[i++] + 1, std::memory_order_release);
        }
        cache->top = top;
        if (i != 0) {
          cache->parked.store(
              cache->parked.load(std::memory_order_relaxed) + i,
              std::memory_order_relaxed);
        }
      }
    }
    while (i < count) {
      const auto s =
          static_cast<std::uint32_t>(names[i] >> stride_shift_);
      std::size_t run = 0;
      while (i < count &&
             static_cast<std::uint32_t>(names[i] >> stride_shift_) == s) {
        shards_[s]->free(names[i] & (stride_ - 1));
        ++i;
        ++run;
      }
      counts_[s]->occupancy.fetch_sub(run, std::memory_order_relaxed);
      counts_[s]->direct_frees.fetch_add(run, std::memory_order_relaxed);
    }
    if (count == 0) return;
    // The bin stores and gate decrements above are not seq_cst; one
    // fence puts the whole batch's release before the wake's count read.
    la::detail::atomic_thread_fence(std::memory_order_seq_cst);
    wake(count);
  }

  // Park-path re-check: is there any capacity a retry could claim? Gates
  // below their bound cover true free slots; nonzero bins cover parked
  // names (gate-counted but reclaimable via a drain). seq_cst loads
  // (plain movs on x86) are the waiter's half of the wake edge.
  bool probe_capacity() const {
    for (std::uint32_t s = 0; s < config_.shards; ++s) {
      if (counts_[s]->occupancy.load(std::memory_order_seq_cst) < gates_[s]) {
        return true;
      }
    }
    for (const auto& bin : bins_) {
      if (bin.load(std::memory_order_seq_cst) != 0) return true;
    }
    return false;
  }

  // Owner-only: park `name` at the stack top. Invariant: every nonzero
  // bin sits below `top` (park stores at top, pop lowers top to the bin
  // it took, steals only zero bins), so bins[top] is known empty and the
  // fast path is a single exchange — seq_cst, as the release the Free's
  // wake relies on (an xchg on x86). A saturated stack compacts:
  // the owner sweeps its bins (exchanging out survivors — steals race
  // fairly), flushes the oldest half to the shards if the cache was
  // genuinely full, and re-lays the rest from the bottom.
  void park(detail::CacheSlot& cache, std::uint64_t name) {
    la::detail::atomic<std::uint64_t>* bins = bins_.data() + cache.first;
    if (cache.top == config_.cache_capacity) {
      // Allocation-free two-pass compact (free() has already cleared the
      // held bit, so nothing here may throw short of real corruption).
      // Pass 1 counts survivors; a racing steal can only shrink the
      // count after we read it, so "looks full" at worst flushes a batch
      // a steal had just made unnecessary — bounded and correct.
      std::uint32_t count = 0;
      for (std::uint32_t i = 0; i < config_.cache_capacity; ++i) {
        if (bins[i].load(std::memory_order_relaxed) != 0) ++count;
      }
      std::uint32_t to_flush = 0;
      if (count == config_.cache_capacity) {
        to_flush = config_.cache_capacity > 1 ? config_.cache_capacity / 2 : 1;
      }
      // Pass 2: exchange each bin out; release the oldest `to_flush`,
      // re-lay the rest from the bottom. The write cursor never passes
      // the read cursor, so it only stores into bins already emptied.
      std::uint32_t write = 0;
      for (std::uint32_t i = 0; i < config_.cache_capacity; ++i) {
        const std::uint64_t token =
            bins[i].exchange(0, std::memory_order_acquire);
        if (token == 0) continue;
        if (to_flush != 0) {
          --to_flush;
          release_to_shard(token - 1);
        } else {
          bins[write++].store(token, std::memory_order_release);
        }
      }
      cache.top = write;
    }
    bins[cache.top].exchange(name + 1, std::memory_order_seq_cst);
    ++cache.top;
    cache.parked.store(cache.parked.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  }

  // This thread's slot (claiming one on first touch), or nullptr when
  // all slots are taken. One thread_local (id, slot) pair makes the
  // steady-state lookup a single compare; instance ids are never reused,
  // so a stale pair can only miss, never alias.
  detail::CacheSlot* cache_slot() {
#if defined(LEVELARRAY_VERIFY)
    // No memo under the checker: the thread_local pair would alias
    // across fibers. The registry walk is the path being verified.
    auto& attachments = ThreadAttachments::current();
#else
    static thread_local std::uint64_t last_id = 0;
    static thread_local detail::CacheSlot* last_slot = nullptr;
    if (last_id == id_) return last_slot;
    auto& attachments = ThreadAttachments::current();
#endif
    std::uint32_t slot = attachments.find(control_.get());
    if (slot == ThreadAttachments::kNotAttached) {
      slot = claim_slot();
      attachments.attach(control_, slot);
    }
    detail::CacheSlot* resolved =
        slot == ThreadAttachments::kNoCache ? nullptr : &*caches_[slot];
#if !defined(LEVELARRAY_VERIFY)
    last_id = id_;
    last_slot = resolved;
#endif
    return resolved;
  }

  std::uint32_t claim_slot() {
    sync::SpinLockGuard guard(claim_lock_);
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    if (claimed_ < caches_.size()) {
      return static_cast<std::uint32_t>(claimed_++);
    }
    return ThreadAttachments::kNoCache;
  }

  // Thread-exit hook: flush the exiting thread's bins and recycle its
  // slot for the next thread (long-lived structures see generations of
  // short-lived threads — see run_churn's chunked callers).
  static void flush_thunk(void* owner, std::uint32_t slot) {
    auto* self = static_cast<ShardedRenamer*>(owner);
    detail::CacheSlot& cache = *self->caches_[slot];
    self->drain_bins(self->bins_.data() + cache.first,
                     self->config_.cache_capacity);
    self->wait_queue_.wake_all();  // the flush may have released capacity
    cache.top = 0;  // published to the next claimer via claim_lock_
    sync::SpinLockGuard guard(self->claim_lock_);
    self->free_slots_.push_back(slot);
  }

  ShardedConfig config_;
  std::uint64_t id_;
  Shards shards_;
  std::uint32_t stride_shift_;
  std::uint64_t stride_;
  // Logically held names (marked on grant, cleared on Free).
  core::SlotArray held_;
  std::vector<std::uint64_t> gates_;
  std::vector<std::uint64_t> local_bounds_;
  mutable std::vector<sync::CachePadded<detail::ShardCounters>> counts_;
  mutable std::vector<sync::CachePadded<detail::CacheSlot>> caches_;
  mutable std::vector<la::detail::atomic<std::uint64_t>> bins_;
  sync::SpinLock claim_lock_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t claimed_ = 0;
  std::shared_ptr<CacheControl> control_;
  mutable la::detail::atomic<std::uint64_t> drains_{0};
  mutable la::detail::atomic<std::uint64_t> collect_drains_{0};
  // The blocking tier (see get_batch_for): every release path wakes,
  // refused getters park on the ticketed FIFO queue (wake-one + handoff
  // bounds starvation by queue position). Mutable because collect()'s
  // drain releases capacity.
  mutable sync::WaitQueue wait_queue_;
  mutable la::detail::atomic<std::uint64_t> gate_wait_rounds_{0};
  mutable la::detail::atomic<std::uint64_t> gate_parks_{0};
  mutable la::detail::atomic<std::uint64_t> gate_timeouts_{0};
};

}  // namespace la::scale
