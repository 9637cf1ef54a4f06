// The rename-service daemon's client library: a process-wide handle over
// a svc::SegmentView that satisfies the api::Renamer contract, so every
// existing harness (bench drive loops, stress scenarios, the model
// fuzzer, the contract tests) can drive the daemon unmodified.
//
// Ring discipline — the rings are SPSC, so each OS thread needs a ring
// of its own:
//   * the Client claims one ring at construction (the *shared* ring);
//   * the first time a thread issues an operation it tries to claim a
//     dedicated ring (CAS kFree -> kClaimed in the segment's slot
//     table), registered with the scale layer's ThreadAttachments so
//     thread exit pushes a kDetach and releases the slot;
//   * threads that find no free slot fall back to the shared ring under
//     a process-local SpinLock held across the whole request/response
//     exchange (degraded but correct; size max_clients for the expected
//     thread count). The shared ring is *only* used under that lock.
//     Note the lock is process-local: a multi-process deployment must
//     size max_clients so no process overflows, since two processes
//     cannot share a ring.
//
// Waiting for a response escalates spin -> yield -> park on the ring's
// resp_bell (eventcount protocol, see sync/futex.hpp); parks are timed,
// and each expiry probes the server's liveness (the shutdown flag, then
// the published server pid) so a server that dies without answering —
// SIGKILL sets no flag — turns into a distinct "server process died"
// runtime_error instead of an unbounded re-park loop.
//
// Bounded-wait Gets (get_for / get_batch_for) stamp the caller's
// absolute CLOCK_MONOTONIC deadline into the request; the *server*
// enforces it (pending-list expiry -> Status::kTimedOut), which the
// client maps back to the api::get_for timed-out refusal and counts in
// wait_stats().timeouts.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/renamer.hpp"
#include "core/slot_scan.hpp"
#include "scale/thread_cache.hpp"
#include "svc/segment.hpp"
#include "sync/cache.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/spin_lock.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace la::svc {

class Client {
 public:
  explicit Client(SegmentView segment) : seg_(segment) {
#if defined(__unix__) || defined(__APPLE__)
    pid_ = static_cast<std::uint32_t>(::getpid());
#else
    pid_ = 1;
#endif
    // Wait for the server to publish geometry (a forked child can race
    // Server::start()).
    sync::Backoff backoff;
    while (seg_.header().ready.load(std::memory_order_acquire) == 0) {
      if (seg_.header().shutdown.load(std::memory_order_acquire) != 0) {
        throw std::runtime_error("svc::Client: server shut down before ready");
      }
      backoff.pause();
    }
    shared_ring_ = claim_ring();
    if (shared_ring_ == kNoRing) {
      throw std::runtime_error(
          "svc::Client: no free client slot in segment (max_clients too "
          "small for this many processes)");
    }
    control_ = std::make_shared<scale::CacheControl>();
    control_->owner.store(this, std::memory_order_release);
    control_->flush = [](void* owner, std::uint32_t ring) {
      static_cast<Client*>(owner)->release_ring(ring);
    };
  }

  ~Client() {
    // Late thread exits must not touch a dead Client.
    control_->owner.store(nullptr, std::memory_order_release);
    release_ring(shared_ring_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // ---- api::Renamer contract ----------------------------------------
  // The Rng parameter is accepted for contract compatibility but unused:
  // the server rolls the dice.

  template <typename Rng>
  GetResult get(Rng&) {
    GetResult out[1];
    exchange_get(out, 1, 0);  // server parks zero-grant requests: never 0
    return out[0];
  }

  template <typename Rng>
  std::size_t get_batch(Rng&, GetResult* out, std::size_t k) {
    if (k == 0) return 0;
    if (k > kMaxBatch) k = kMaxBatch;  // caller retries per the contract
    return exchange_get(out, static_cast<std::uint32_t>(k), 0);
  }

  // Bounded-wait Get: the deadline travels in the request slot and the
  // server's pending list enforces it. false = Status::kTimedOut came
  // back (the server could grant nothing before the instant passed).
  template <typename Rng>
  bool get_for(Rng&, GetResult& out, std::uint64_t deadline_ns) {
    GetResult buf[1];
    if (exchange_get(buf, 1, wire_deadline(deadline_ns)) == 0) return false;
    out = buf[0];
    return true;
  }

  // Bounded-wait batch Get: up to k names, 0 on a timed-out refusal.
  template <typename Rng>
  std::size_t get_batch_for(Rng&, GetResult* out, std::size_t k,
                            std::uint64_t deadline_ns) {
    if (k == 0) return 0;
    if (k > kMaxBatch) k = kMaxBatch;
    return exchange_get(out, static_cast<std::uint32_t>(k),
                        wire_deadline(deadline_ns));
  }

  void free(std::uint64_t name) { free_batch(&name, 1); }

  void free_batch(const std::uint64_t* names, std::size_t k) {
    std::size_t done = 0;
    while (done < k) {
      const std::uint32_t chunk = static_cast<std::uint32_t>(
          k - done < kMaxBatch ? k - done : kMaxBatch);
      exchange_free(names + done, chunk, done);
      done += chunk;
    }
  }

  // Appends the held names to out, ascending, and returns how many it
  // appended — the same contract as every in-process collect.
  std::size_t collect(std::vector<std::uint64_t>& out) const {
    return const_cast<Client*>(this)->exchange_collect(out);
  }

  std::uint64_t capacity() const {
    return seg_.header().capacity.load(std::memory_order_relaxed);
  }

  std::uint64_t total_slots() const {
    return seg_.header().total_slots.load(std::memory_order_relaxed);
  }

  api::WaitStats wait_stats() const {
    api::WaitStats w;
    w.wait_rounds = wait_rounds_.load(std::memory_order_relaxed);
    w.parks = parks_.load(std::memory_order_relaxed);
    w.timeouts = timeouts_.load(std::memory_order_relaxed);
    return w;
  }

 private:
  static constexpr std::uint32_t kNoRing = 0xFFFFFFFFu;

  // api::kNoDeadline means "no deadline", which the wire encodes as 0.
  static std::uint64_t wire_deadline(std::uint64_t deadline_ns) {
    return deadline_ns == api::kNoDeadline ? 0 : deadline_ns;
  }

  // ---- ring claim / release -----------------------------------------

  std::uint32_t claim_ring() {
    for (std::uint32_t r = 0; r < seg_.config().max_clients; ++r) {
      ClientSlot& cs = seg_.client_slot(r);
      std::uint32_t expected = ClientSlot::kFree;
      if (cs.state.compare_exchange_strong(expected, ClientSlot::kClaimed,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        // Generation token before pid: the sweep reads pid first, so a
        // published pid always has its token in place.
        cs.claim_token.store(pid_start_time(pid_), std::memory_order_release);
        cs.pid.store(pid_, std::memory_order_release);
        return r;
      }
    }
    return kNoRing;
  }

  void release_ring(std::uint32_t ring) {
    if (ring == kNoRing) return;
    ClientSlot& cs = seg_.client_slot(ring);
    // Best-effort detach notice; skipped if the server is gone or the
    // ring is full (nothing downstream depends on it — slot state is
    // the source of truth).
    if (seg_.header().shutdown.load(std::memory_order_acquire) == 0) {
      auto req_ring = seg_.request_ring(ring);
      const std::uint32_t pos = cs.req_tail.load(std::memory_order_relaxed);
      if (RequestSlot* slot = req_ring.try_begin_push(pos)) {
        slot->pid = pid_;
        slot->op = Op::kDetach;
        slot->count = 0;
        req_ring.commit_push(*slot, pos);
        cs.req_tail.store(pos + 1, std::memory_order_relaxed);
        seg_.header().doorbell.signal();
      }
    }
    cs.pid.store(0, std::memory_order_relaxed);
    cs.claim_token.store(0, std::memory_order_relaxed);
    cs.state.store(ClientSlot::kFree, std::memory_order_release);
  }

  // The calling thread's ring plus whether the shared-ring lock is held.
  struct Port {
    std::uint32_t ring;
    bool locked;
  };

  Port acquire_port() {
    auto& att = scale::ThreadAttachments::current();
    std::uint32_t ring = att.find(control_.get());
    if (ring == scale::ThreadAttachments::kNotAttached) {
      ring = claim_ring();
      att.attach(control_, ring == kNoRing
                               ? scale::ThreadAttachments::kNoCache
                               : ring);
    }
    if (ring == kNoRing || ring == scale::ThreadAttachments::kNoCache) {
      shared_lock_.lock();
      return Port{shared_ring_, true};
    }
    return Port{ring, false};
  }

  void release_port(const Port& port) {
    if (port.locked) shared_lock_.unlock();
  }

  // ---- the exchange primitives --------------------------------------

  void push_request(std::uint32_t r, Op op, std::uint32_t count,
                    const std::uint64_t* names,
                    std::uint64_t deadline_ns = 0) {
    ClientSlot& cs = seg_.client_slot(r);
    auto ring = seg_.request_ring(r);
    const std::uint32_t pos = cs.req_tail.load(std::memory_order_relaxed);
    sync::Backoff backoff;
    RequestSlot* slot;
    while ((slot = ring.try_begin_push(pos)) == nullptr) {
      // A full request ring normally clears in microseconds (the server
      // drains it), so spinning briefly is the fast path. But "briefly"
      // is unbounded if the server is gone: a multi-exchange stream
      // (collect's chunked drain) can re-enter here after the server
      // died between chunks, and a loop with no liveness probe wedges
      // forever. Same escalation as await_response: once the spin/yield
      // tiers are exhausted, probe shutdown and the published server
      // pid, then keep spinning.
      wait_rounds_.fetch_add(1, std::memory_order_relaxed);
      if (backoff.should_park()) {
        if (seg_.header().shutdown.load(std::memory_order_acquire) != 0) {
          throw std::runtime_error(
              "svc::Client: server shut down mid-request");
        }
        const std::uint32_t server =
            seg_.header().server_pid.load(std::memory_order_acquire);
        if (server != 0 && !pid_alive(server)) {
          throw std::runtime_error(
              "svc::Client: server process died mid-request (request ring "
              "full and server pid " +
              std::to_string(server) + " is gone)");
        }
        backoff.reset();
      }
      backoff.pause();
    }
    slot->pid = pid_;
    slot->op = op;
    slot->count = count;
    slot->deadline_ns = deadline_ns;
    if (names != nullptr) {
      std::memcpy(slot->names, names, sizeof(std::uint64_t) * count);
    }
    ring.commit_push(*slot, pos);
    cs.req_tail.store(pos + 1, std::memory_order_relaxed);
    seg_.header().doorbell.signal();
  }

  // Block until the response at this ring's head is published, park-tier
  // included. Returns the slot; caller copies out then calls
  // finish_response().
  ResponseSlot* await_response(std::uint32_t r) {
    ClientSlot& cs = seg_.client_slot(r);
    auto ring = seg_.response_ring(r);
    const std::uint32_t pos = cs.resp_head.load(std::memory_order_relaxed);
    sync::Backoff backoff;
    for (;;) {
      if (ResponseSlot* slot = ring.try_begin_pop(pos)) return slot;
      if (!backoff.should_park()) {
        wait_rounds_.fetch_add(1, std::memory_order_relaxed);
        backoff.pause();
        continue;
      }
      const std::uint32_t seen = cs.resp_bell.prepare_wait();
      if (ring.try_begin_pop(pos) != nullptr) {
        cs.resp_bell.cancel_wait();
        continue;
      }
      if (seg_.header().shutdown.load(std::memory_order_acquire) != 0) {
        cs.resp_bell.cancel_wait();
        // One last drain chance: the server answers parked requests with
        // kShutdown before exiting.
        if (ring.try_begin_pop(pos) != nullptr) continue;
        throw std::runtime_error("svc::Client: server shut down mid-request");
      }
      parks_.fetch_add(1, std::memory_order_relaxed);
      // Timed so a dead server is *detected*, not slept through. A
      // clean stop sets the shutdown flag (caught above); a SIGKILLed
      // or crashed server sets nothing, so every expired park probes
      // the published server pid and turns its death into a distinct
      // error instead of re-parking forever.
      if (cs.resp_bell.commit_wait_for(seen, 100'000'000ull) ==
          sync::WaitResult::kTimedOut) {
        if (ring.try_begin_pop(pos) != nullptr) continue;
        if (seg_.header().shutdown.load(std::memory_order_acquire) != 0) {
          continue;  // loop into the shutdown drain/throw above
        }
        const std::uint32_t server =
            seg_.header().server_pid.load(std::memory_order_acquire);
        if (server != 0 && !pid_alive(server)) {
          throw std::runtime_error(
              "svc::Client: server process died mid-request (no response "
              "and server pid " +
              std::to_string(server) + " is gone)");
        }
      }
    }
  }

  void finish_response(std::uint32_t r, ResponseSlot* slot) {
    ClientSlot& cs = seg_.client_slot(r);
    const std::uint32_t pos = cs.resp_head.load(std::memory_order_relaxed);
    seg_.response_ring(r).commit_pop(*slot, pos);
    cs.resp_head.store(pos + 1, std::memory_order_relaxed);
  }

  std::size_t exchange_get(GetResult* out, std::uint32_t want,
                           std::uint64_t deadline_ns) {
    const Port port = acquire_port();
    std::size_t granted = 0;
    try {
      push_request(port.ring, Op::kGetK, want, nullptr, deadline_ns);
      ResponseSlot* resp = await_response(port.ring);
      const Status status = resp->status;
      granted = resp->count;
      for (std::size_t i = 0; i < granted; ++i) {
        out[i].name = resp->names[i];
        out[i].probes = resp->probes[i];
        out[i].deepest_batch = 0;
        out[i].used_backup = false;
      }
      finish_response(port.ring, resp);
      if (status == Status::kShutdown) {
        throw std::runtime_error("svc::Client: get refused, server stopping");
      }
      if (status == Status::kTimedOut) {
        // The timed-out refusal, not an error: get_for/get_batch_for
        // surface it as false/0 per the api contract.
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        granted = 0;
      }
    } catch (...) {
      release_port(port);
      throw;
    }
    release_port(port);
    return granted;
  }

  void exchange_free(const std::uint64_t* names, std::uint32_t count,
                     std::size_t base_index) {
    const Port port = acquire_port();
    Status status = Status::kOk;
    std::size_t bad = 0;
    try {
      push_request(port.ring, Op::kFreeK, count, names);
      ResponseSlot* resp = await_response(port.ring);
      status = resp->status;
      bad = base_index + resp->error_index;
      finish_response(port.ring, resp);
    } catch (...) {
      release_port(port);
      throw;
    }
    release_port(port);
    switch (status) {
      case Status::kOk:
        return;
      case Status::kOutOfRange:
        throw std::out_of_range(
            "svc::Client: free of out-of-range name (batch index " +
            std::to_string(bad) + ")");
      case Status::kNotHeld:
        throw std::logic_error(
            "svc::Client: double free (batch index " + std::to_string(bad) +
            ")");
      case Status::kForeign:
        throw std::logic_error(
            "svc::Client: free of a name held by another client (batch "
            "index " +
            std::to_string(bad) + ")");
      case Status::kShutdown:
        throw std::runtime_error("svc::Client: free refused, server stopping");
      case Status::kTimedOut:
        // Frees carry no deadline; a kTimedOut here is a server bug.
        throw std::logic_error("svc::Client: unexpected kTimedOut on free");
    }
  }

  // Decodes the kCollect stream: chunk j is the bitmap of slots
  // [j * kCollectWindow, (j + 1) * kCollectWindow), expanded straight
  // from the response slot by the bit-domain emitter.
  std::size_t exchange_collect(std::vector<std::uint64_t>& out) {
    const std::size_t before = out.size();
    const Port port = acquire_port();
    try {
      push_request(port.ring, Op::kCollect, 0, nullptr);
      for (std::uint64_t base = 0;; base += kCollectWindow) {
        ResponseSlot* resp = await_response(port.ring);
        const std::uint32_t words =
            resp->count < kMaxBatch ? resp->count : kMaxBatch;
        core::slot_scan::collect_set_bits(
            words, base, [&](std::uint64_t w) { return resp->names[w]; },
            out);
        const bool more = resp->more != 0;
        finish_response(port.ring, resp);
        if (!more) break;
      }
    } catch (...) {
      release_port(port);
      throw;
    }
    release_port(port);
    return out.size() - before;
  }

  SegmentView seg_;
  std::uint32_t pid_ = 0;
  std::uint32_t shared_ring_ = kNoRing;
  std::shared_ptr<scale::CacheControl> control_;
  sync::SpinLock shared_lock_;
  // Bumped on every spin round of a waiting thread: a line of their own,
  // so the fields every op reads (seg_, control_) never share it —
  // wherever the allocator put the Client.
  alignas(sync::kCacheLineSize) mutable std::atomic<std::uint64_t>
      wait_rounds_{0};
  mutable std::atomic<std::uint64_t> parks_{0};
  mutable std::atomic<std::uint64_t> timeouts_{0};
};

}  // namespace la::svc
