// The rename-service daemon's server side: worker threads drain the
// per-client request rings of a svc::Segment and apply the opcodes to
// one shared ckpt::AnyRenamer — the daemon's only type-erasure seam, so
// the server is one class compiled once into the library (server.cpp)
// whatever structure it fronts, and every daemon can migrate. (The
// registry fronts a scale::ShardedRenamer — its per-thread cache bins
// make the worker's Free->Get recycling a single RMW in steady state.)
//
//   * Rings are statically partitioned: ring r belongs to worker
//     r % workers (default 1 worker). No cross-worker ring state.
//   * A GetK that can grant nothing parks *server-side* on the worker's
//     pending list and is retried after every capacity release — the
//     client blocks on its response bell instead of spin-retrying
//     across the segment. (Sound because every harness keeps aggregate
//     demand within the contention bound; a request that could never be
//     satisfied would be a caller bug, answered at shutdown with
//     kShutdown.)
//   * Held names are accounted per client *process* in dense bitmaps
//     (pid-keyed): Frees validate against them, which is what turns a
//     foreign or double free into a protocol error instead of silent
//     corruption, and what makes crash reclaim exact.
//   * Crash reclaim: a claimed client slot whose owner is provably gone
//     is swept: every bitmap-held name is freed back to the structure,
//     its rings are reset empty, its pending entries dropped, and the
//     slot returns to the free pool. "Provably gone" is token-based, not
//     bare-pid-based: clients stamp (pid, kernel start time) at claim
//     (segment.hpp claim_token), and the sweep reclaims when the pid is
//     dead (kill(pid, 0) == ESRCH — the harness must waitpid first,
//     zombies still "exist") OR the pid's current start time no longer
//     matches the stamped token — a recycled pid keeps kill() happy but
//     cannot fake the original claimant's start time. Sweeps run on the
//     idle heartbeat (the doorbell park has a timeout) and on demand via
//     request_sweep().
//
// Idle waiting is the eventcount protocol on the segment's global
// doorbell: after one empty pass over its rings a worker registers,
// rescans every owned ring and sweeps dead clients, and only then sleeps
// — a request pushed between the scan and the sleep bumps the word and
// the sleep returns immediately (see sync/futex.hpp). The sleep is timed,
// so an idle worker still sweeps on the heartbeat. The worker does not
// poll before it registers: a poll holds the CPU, and a worker sharing
// a CPU with its clients then delays them instead of being woken by
// their pushes (see ROADMAP item 7).
//
// The per-request counters (requests, names granted and freed) are
// per-worker, each written only by its worker on a line of its own;
// stats() sums them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "rng/rng.hpp"
#include "svc/segment.hpp"
#include "sync/cache.hpp"
#include "sync/spin_lock.hpp"

namespace la::ckpt {
class AnyRenamer;
}  // namespace la::ckpt

namespace la::svc {

struct ServerStats {
  std::uint64_t requests = 0;        // ring slots consumed
  std::uint64_t names_granted = 0;   // names handed out by GetK
  std::uint64_t names_freed = 0;     // names released by FreeK
  std::uint64_t pending_parked = 0;  // GetKs that went to the pending list
  std::uint64_t pending_expired = 0; // pending GetKs answered kTimedOut
  std::uint64_t idle_parks = 0;      // worker doorbell parks
  std::uint64_t reclaims = 0;        // dead clients swept
  std::uint64_t reclaimed_names = 0; // names recovered from dead clients
  std::uint64_t detaches = 0;
  std::uint64_t migrations = 0;      // drain-and-migrate cycles completed
};

class Server {
 public:
  Server(SegmentView segment, ckpt::AnyRenamer& structure,
         std::uint32_t workers = 1);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Publish the structure's geometry, mark the segment ready, and launch
  // the workers. Call after fork()ing any client processes — the worker
  // threads must not exist across a fork.
  void start();

  // Stop the workers (answering any parked GetKs with kShutdown) and
  // mark the segment shut down. Idempotent.
  void stop();

  // Ask every worker to run a dead-client sweep now and wait until each
  // has (the deterministic reclaim hook for same-process harnesses; the
  // idle heartbeat sweeps on its own every ~50ms otherwise).
  void request_sweep();

  // Drain-and-migrate: quiesce every worker at its loop top (rings and
  // pending lists are *parked*, not dropped — a request pushed during
  // the pause is drained right after it), run fn(structure) with
  // exclusive access to the structure, republish the possibly changed
  // geometry, and resume. fn is where the caller swaps shape — e.g.
  // save() the current impl, rebuild a differently configured one,
  // restore(), and ckpt::AnyRenamer::replace() — and the api::restore
  // name-identity contract is what keeps the per-pid held bitmaps and
  // every client's outstanding names valid across the swap. Clients
  // observe only latency: a worker already blocked in respond() to a
  // live client finishes that push before it reaches the checkpoint.
  // Call from one coordinating thread; not concurrent with stop().
  void migrate(const std::function<void(ckpt::AnyRenamer&)>& fn);

  ServerStats stats() const;

  // First worker error, empty if none (a throwing structure poisons the
  // run; harnesses assert on this).
  std::string error() const;

 private:
  // One worker's per-request counters. Only the owning worker writes
  // them, so a bump is a relaxed load and store, not a lock-prefixed
  // RMW; the alignment keeps each worker's line its own.
  struct alignas(sync::kCacheLineSize) WorkerCounters {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> granted{0};
    std::atomic<std::uint64_t> freed{0};

    static void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
      counter.store(counter.load(std::memory_order_relaxed) + n,
                    std::memory_order_relaxed);
    }
  };
  static_assert(sizeof(WorkerCounters) == sync::kCacheLineSize);

  struct Pending {
    std::uint32_t ring = 0;
    std::uint32_t pid = 0;
    std::uint32_t want = 0;
    std::uint64_t deadline_ns = 0;  // 0 = park until capacity/shutdown
  };

  // Per-pid held bitmaps (lock-guarded; few pids, O(1) bit ops).
  struct PidHolds {
    std::uint32_t pid = 0;
    std::uint64_t count = 0;
    std::vector<std::uint64_t> words;
  };

  PidHolds& holds_for(std::uint32_t pid);
  void mark_held(std::uint32_t pid, std::uint64_t name);
  bool clear_held(std::uint32_t pid, std::uint64_t name);
  bool held_by_other(std::uint32_t pid, std::uint64_t name);
  std::vector<std::uint64_t> drain_holds(std::uint32_t pid);

  template <typename Fill>
  bool respond(std::uint32_t r, Fill&& fill);

  bool try_grant(WorkerCounters& counters, std::uint32_t r, std::uint32_t pid,
                 std::uint32_t want, rng::MarsagliaXorshift& rng);
  std::uint64_t handle_free(WorkerCounters& counters, std::uint32_t r,
                            std::uint32_t pid, const std::uint64_t* names,
                            std::uint32_t count);
  void handle_collect(std::uint32_t r, std::vector<std::uint64_t>& held);
  std::size_t drain_ring(WorkerCounters& counters, std::uint32_t r,
                         rng::MarsagliaXorshift& rng,
                         std::vector<Pending>& pending,
                         std::vector<std::uint64_t>& collect_buf,
                         bool& released);
  void retry_pending(WorkerCounters& counters, std::vector<Pending>& pending,
                     rng::MarsagliaXorshift& rng);
  void expire(std::uint32_t r);
  void expire_pending(std::vector<Pending>& pending);
  static std::uint64_t idle_park_ns(const std::vector<Pending>& pending);
  void sweep_own(std::uint32_t wid, std::vector<Pending>& pending,
                 bool& released);
  void worker_loop(std::uint32_t wid);

  SegmentView seg_;
  ckpt::AnyRenamer& structure_;
  std::uint32_t workers_;
  std::uint64_t hold_words_ = 0;
  std::vector<WorkerCounters> counters_;  // one per worker
  std::vector<std::thread> threads_;

  sync::SpinLock holds_lock_;
  std::vector<PidHolds> holds_;

  mutable sync::SpinLock error_lock_;
  std::string error_;

  std::atomic<std::uint64_t> sweep_epoch_{0};
  std::atomic<std::uint64_t> sweeps_done_{0};
  std::atomic<std::uint32_t> migrating_{0};
  std::atomic<std::uint64_t> migrate_checkins_{0};

  // The rare counters the workers bump start a cache line of their own,
  // and the alignment rounds sizeof(Server) up to whole lines: whatever
  // sits next to a Server (ServiceRenamer's client pointer, read by every
  // client op) never shares a line with the workers' fetch_adds, wherever
  // the allocator put the object.
  alignas(sync::kCacheLineSize) std::atomic<std::uint64_t> pending_parked_{0};
  std::atomic<std::uint64_t> pending_expired_{0};
  std::atomic<std::uint64_t> idle_parks_{0};
  std::atomic<std::uint64_t> reclaims_{0};
  std::atomic<std::uint64_t> reclaimed_names_{0};
  std::atomic<std::uint64_t> detaches_{0};
  std::atomic<std::uint64_t> migrations_{0};
};

static_assert(alignof(Server) == sync::kCacheLineSize);

}  // namespace la::svc
