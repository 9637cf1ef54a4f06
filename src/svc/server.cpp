#include "svc/server.hpp"

#include <cstring>
#include <exception>
#include <stdexcept>

#include "ckpt/any_renamer.hpp"
#include "sync/spin_barrier.hpp"

namespace la::svc {

Server::Server(SegmentView segment, ckpt::AnyRenamer& structure,
               std::uint32_t workers)
    : seg_(segment),
      structure_(structure),
      workers_(workers == 0 ? 1 : workers) {}

Server::~Server() { stop(); }

void Server::start() {
  if (!threads_.empty()) return;
  Header& h = seg_.header();
  h.capacity.store(structure_.capacity(), std::memory_order_relaxed);
  h.total_slots.store(structure_.total_slots(), std::memory_order_relaxed);
  h.server_pid.store(this_pid(), std::memory_order_relaxed);
  hold_words_ = (structure_.total_slots() + 63) / 64;
  h.ready.store(1, std::memory_order_release);
  threads_.reserve(workers_);
  for (std::uint32_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

void Server::stop() {
  if (threads_.empty()) return;
  seg_.header().shutdown.store(1, std::memory_order_release);
  seg_.header().doorbell.signal();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void Server::request_sweep() {
  const std::uint64_t target =
      sweeps_done_.load(std::memory_order_acquire) + workers_;
  sweep_epoch_.fetch_add(1, std::memory_order_release);
  seg_.header().doorbell.signal();
  sync::Backoff backoff;
  while (sweeps_done_.load(std::memory_order_acquire) < target &&
         !threads_.empty()) {
    backoff.pause();
  }
}

void Server::migrate(const std::function<void(ckpt::AnyRenamer&)>& fn) {
  if (threads_.empty()) {
    // Not started: the caller owns the structure outright.
    fn(structure_);
    return;
  }
  const std::uint64_t target =
      migrate_checkins_.load(std::memory_order_acquire) + workers_;
  migrating_.store(1, std::memory_order_release);
  seg_.header().doorbell.signal();
  sync::Backoff backoff;
  while (migrate_checkins_.load(std::memory_order_acquire) < target &&
         !seg_.header().shutdown.load(std::memory_order_acquire)) {
    backoff.pause();
  }
  fn(structure_);
  Header& h = seg_.header();
  h.capacity.store(structure_.capacity(), std::memory_order_relaxed);
  h.total_slots.store(structure_.total_slots(), std::memory_order_relaxed);
  {
    // The held bitmaps are indexed by name; a grown name space needs
    // wider words. Never shrunk — adopted names already fit by the
    // restore contract, and stale high words are simply zero.
    sync::SpinLockGuard guard(holds_lock_);
    const std::uint64_t words = (structure_.total_slots() + 63) / 64;
    if (words > hold_words_) hold_words_ = words;
    for (auto& held : holds_) {
      if (held.words.size() < hold_words_) {
        held.words.resize(static_cast<std::size_t>(hold_words_));
      }
    }
  }
  migrations_.fetch_add(1, std::memory_order_relaxed);
  migrating_.store(0, std::memory_order_release);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.names_granted = granted_.load(std::memory_order_relaxed);
  s.names_freed = freed_.load(std::memory_order_relaxed);
  s.pending_parked = pending_parked_.load(std::memory_order_relaxed);
  s.pending_expired = pending_expired_.load(std::memory_order_relaxed);
  s.idle_parks = idle_parks_.load(std::memory_order_relaxed);
  s.reclaims = reclaims_.load(std::memory_order_relaxed);
  s.reclaimed_names = reclaimed_names_.load(std::memory_order_relaxed);
  s.detaches = detaches_.load(std::memory_order_relaxed);
  s.migrations = migrations_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::error() const {
  sync::SpinLockGuard guard(error_lock_);
  return error_;
}

// --- per-pid held bitmaps ---------------------------------------------

Server::PidHolds& Server::holds_for(std::uint32_t pid) {
  for (auto& h : holds_) {
    if (h.pid == pid) return h;
  }
  holds_.push_back(PidHolds{
      pid, 0, std::vector<std::uint64_t>(static_cast<std::size_t>(hold_words_))});
  return holds_.back();
}

void Server::mark_held(std::uint32_t pid, std::uint64_t name) {
  sync::SpinLockGuard guard(holds_lock_);
  PidHolds& h = holds_for(pid);
  h.words[name >> 6] |= (std::uint64_t{1} << (name & 63));
  ++h.count;
}

bool Server::clear_held(std::uint32_t pid, std::uint64_t name) {
  sync::SpinLockGuard guard(holds_lock_);
  PidHolds& h = holds_for(pid);
  const std::uint64_t bit = std::uint64_t{1} << (name & 63);
  if ((h.words[name >> 6] & bit) == 0) return false;
  h.words[name >> 6] &= ~bit;
  --h.count;
  return true;
}

bool Server::held_by_other(std::uint32_t pid, std::uint64_t name) {
  if (name >= structure_.total_slots()) return false;
  sync::SpinLockGuard guard(holds_lock_);
  for (const auto& h : holds_) {
    if (h.pid == pid) continue;
    if ((h.words[name >> 6] & (std::uint64_t{1} << (name & 63))) != 0) {
      return true;
    }
  }
  return false;
}

std::vector<std::uint64_t> Server::drain_holds(std::uint32_t pid) {
  sync::SpinLockGuard guard(holds_lock_);
  std::vector<std::uint64_t> names;
  for (auto& h : holds_) {
    if (h.pid != pid) continue;
    for (std::size_t w = 0; w < h.words.size(); ++w) {
      std::uint64_t word = h.words[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        word &= word - 1;
        names.push_back((static_cast<std::uint64_t>(w) << 6) |
                        static_cast<std::uint64_t>(bit));
      }
      h.words[w] = 0;
    }
    h.count = 0;
  }
  return names;
}

// --- response push ------------------------------------------------------

template <typename Fill>
bool Server::respond(std::uint32_t r, Fill&& fill) {
  ClientSlot& cs = seg_.client_slot(r);
  auto ring = seg_.response_ring(r);
  const std::uint32_t pos = cs.resp_tail.load(std::memory_order_relaxed);
  sync::Backoff backoff;
  ResponseSlot* slot;
  while ((slot = ring.try_begin_push(pos)) == nullptr) {
    // Ring full: the client is not consuming. Either it is slow (yield
    // and retry) or it died mid-exchange (drop the response; the sweep
    // will reclaim the slot).
    if (backoff.should_park()) {
      if (!pid_alive(cs.pid.load(std::memory_order_relaxed))) return false;
      backoff.reset();
    }
    backoff.pause();
  }
  fill(*slot);
  ring.commit_push(*slot, pos);
  cs.resp_tail.store(pos + 1, std::memory_order_relaxed);
  cs.resp_bell.signal();
  return true;
}

// --- opcode handlers (all run on the ring's owning worker) ------------

bool Server::try_grant(std::uint32_t r, std::uint32_t pid, std::uint32_t want,
                       rng::MarsagliaXorshift& rng) {
  GetResult got[kMaxBatch];
  const std::size_t granted =
      structure_.get_batch(rng, got, static_cast<std::size_t>(want));
  if (granted == 0) return false;
  for (std::size_t i = 0; i < granted; ++i) mark_held(pid, got[i].name);
  granted_.fetch_add(granted, std::memory_order_relaxed);
  respond(r, [&](ResponseSlot& out) {
    out.status = Status::kOk;
    out.count = static_cast<std::uint32_t>(granted);
    out.error_index = 0;
    out.more = 0;
    for (std::size_t i = 0; i < granted; ++i) {
      out.names[i] = got[i].name;
      out.probes[i] = got[i].probes;
    }
  });
  return true;
}

// Frees names[0..count) in order, stopping at the first bad name with its
// index and class. Returns how many were actually released.
std::uint64_t Server::handle_free(std::uint32_t r, std::uint32_t pid,
                                  const std::uint64_t* names,
                                  std::uint32_t count) {
  Status status = Status::kOk;
  std::uint32_t error_index = 0;
  std::uint64_t released = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t name = names[i];
    if (name >= structure_.total_slots()) {
      status = Status::kOutOfRange;
      error_index = i;
      break;
    }
    if (clear_held(pid, name)) {
      structure_.free(name);
      ++released;
      continue;
    }
    if (held_by_other(pid, name)) {
      status = Status::kForeign;
      error_index = i;
      break;
    }
    // Nobody's bitmap holds it: let the structure classify (its free is
    // guaranteed to throw — every grant marks a bitmap first).
    try {
      structure_.free(name);
      ++released;  // untracked-but-held: corruption upstream, but freed
    } catch (const std::out_of_range&) {
      status = Status::kOutOfRange;
      error_index = i;
      break;
    } catch (const std::logic_error&) {
      status = Status::kNotHeld;
      error_index = i;
      break;
    }
  }
  freed_.fetch_add(released, std::memory_order_relaxed);
  respond(r, [&](ResponseSlot& out) {
    out.status = status;
    out.count = static_cast<std::uint32_t>(released);
    out.error_index = error_index;
    out.more = 0;
  });
  return released;
}

// Streams the held set as bitmap windows (protocol.hpp, kCollect). `held`
// is the worker's own buffer, reused across requests: it grows to the
// largest held set once instead of being rebuilt from empty per request.
// The windows are packed from the collect result, which every structure
// appends ascending, so the stream ends at the window of the highest held
// name and never reads total_slots(). A name outside the current window
// ends it; one left over after the last window means the result was not
// ascending, and fails the worker rather than drop the name.
void Server::handle_collect(std::uint32_t r, std::vector<std::uint64_t>& held) {
  held.clear();
  structure_.collect(held);
  std::size_t next = 0;
  std::uint64_t base = 0;
  for (;;) {
    const bool last = held.empty() || held.back() < base + kCollectWindow;
    if (!respond(r, [&](ResponseSlot& out) {
          out.status = Status::kOk;
          out.error_index = 0;
          out.more = last ? 0 : 1;
          std::memset(out.names, 0, sizeof(out.names));
          std::uint64_t words = 0;
          for (; next < held.size(); ++next) {
            const std::uint64_t slot = held[next] - base;
            if (slot >= kCollectWindow) break;
            out.names[slot >> 6] |= std::uint64_t{1} << (slot & 63);
            words = (slot >> 6) + 1;
          }
          out.count = static_cast<std::uint32_t>(words);
        })) {
      return;  // client died mid-stream; sweep reclaims
    }
    if (last) break;
    base += kCollectWindow;
  }
  if (next != held.size()) {
    throw std::logic_error("svc::Server: collect result not ascending");
  }
}

// --- the worker loop ----------------------------------------------------

std::size_t Server::drain_ring(std::uint32_t r, rng::MarsagliaXorshift& rng,
                               std::vector<Pending>& pending,
                               std::vector<std::uint64_t>& collect_buf,
                               bool& released) {
  ClientSlot& cs = seg_.client_slot(r);
  auto ring = seg_.request_ring(r);
  std::size_t processed = 0;
  for (;;) {
    const std::uint32_t pos = cs.req_head.load(std::memory_order_relaxed);
    RequestSlot* req = ring.try_begin_pop(pos);
    if (req == nullptr) break;
    // Copy the payload out before recycling the slot back.
    const std::uint32_t pid = req->pid;
    const Op op = req->op;
    std::uint32_t count = req->count;
    const std::uint64_t deadline_ns = req->deadline_ns;
    if (count > kMaxBatch) count = kMaxBatch;
    std::uint64_t names[kMaxBatch];
    if (op == Op::kFreeK) {
      std::memcpy(names, req->names, sizeof(std::uint64_t) * count);
    }
    ring.commit_pop(*req, pos);
    cs.req_head.store(pos + 1, std::memory_order_relaxed);
    ++processed;
    requests_.fetch_add(1, std::memory_order_relaxed);
    switch (op) {
      case Op::kGetK:
        if (!try_grant(r, pid, count, rng)) {
          if (deadline_ns != 0 &&
              sync::FutexWord::monotonic_now_ns() >= deadline_ns) {
            // Already expired on arrival (e.g. queued behind a slow
            // drain): refuse immediately rather than park for nothing.
            expire(r);
          } else {
            pending.push_back(Pending{r, pid, count, deadline_ns});
            pending_parked_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        break;
      case Op::kFreeK:
        if (handle_free(r, pid, names, count) != 0) released = true;
        break;
      case Op::kCollect:
        // collect() drains the per-thread caches, which can release gate
        // capacity the pending list is waiting on.
        handle_collect(r, collect_buf);
        released = true;
        break;
      case Op::kDetach:
        detaches_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Op::kNop:
        break;
    }
  }
  return processed;
}

void Server::retry_pending(std::vector<Pending>& pending,
                           rng::MarsagliaXorshift& rng) {
  for (std::size_t i = 0; i < pending.size();) {
    if (try_grant(pending[i].ring, pending[i].pid, pending[i].want, rng)) {
      pending[i] = pending.back();
      pending.pop_back();
    } else {
      ++i;
    }
  }
}

// The timed-out refusal for one parked GetK.
void Server::expire(std::uint32_t r) {
  pending_expired_.fetch_add(1, std::memory_order_relaxed);
  respond(r, [&](ResponseSlot& out) {
    out.status = Status::kTimedOut;
    out.count = 0;
    out.error_index = 0;
    out.more = 0;
  });
}

// Answer every pending GetK whose deadline has passed with kTimedOut.
// Runs after retry_pending so a request whose capacity arrived in the
// same iteration is granted, not expired.
void Server::expire_pending(std::vector<Pending>& pending) {
  if (pending.empty()) return;
  const std::uint64_t now = sync::FutexWord::monotonic_now_ns();
  for (std::size_t i = 0; i < pending.size();) {
    if (pending[i].deadline_ns != 0 && now >= pending[i].deadline_ns) {
      expire(pending[i].ring);
      pending[i] = pending.back();
      pending.pop_back();
    } else {
      ++i;
    }
  }
}

// Nanoseconds until the earliest pending deadline, clamped to the idle
// heartbeat — so an expiry parked server-side is answered on time, not at
// the next 50ms tick.
std::uint64_t Server::idle_park_ns(const std::vector<Pending>& pending) {
  std::uint64_t park = 50'000'000ull;  // the liveness-sweep heartbeat
  if (pending.empty()) return park;
  const std::uint64_t now = sync::FutexWord::monotonic_now_ns();
  for (const auto& p : pending) {
    if (p.deadline_ns == 0) continue;
    const std::uint64_t left = p.deadline_ns > now ? p.deadline_ns - now : 1;
    if (left < park) park = left;
  }
  return park;
}

// Sweep the dead clients among this worker's rings.
void Server::sweep_own(std::uint32_t wid, std::vector<Pending>& pending,
                       bool& released) {
  const std::uint32_t self = this_pid();
  for (std::uint32_t r = wid; r < seg_.config().max_clients; r += workers_) {
    ClientSlot& cs = seg_.client_slot(r);
    if (cs.state.load(std::memory_order_acquire) != ClientSlot::kClaimed) {
      continue;
    }
    const std::uint32_t pid = cs.pid.load(std::memory_order_acquire);
    if (pid == 0 || pid == self) continue;
    // Liveness is (pid, claim token), not bare pid: kill(pid, 0) cannot
    // tell the claimant from an unrelated process that was assigned the
    // recycled pid later, but the recycled process's kernel start time
    // differs from the one the claimant stamped at claim. Token 0 (stamp
    // unavailable) degrades to pid-only.
    if (pid_alive(pid)) {
      const std::uint64_t token =
          cs.claim_token.load(std::memory_order_acquire);
      if (token == 0 || token == pid_start_time(pid)) continue;
    }
    // Dead mid-hold: recover every name its bitmap still holds, then
    // reset the rings (the producer is provably gone, so half-written
    // requests are discarded wholesale) and free the slot.
    const auto names = drain_holds(pid);
    for (const auto name : names) structure_.free(name);
    if (!names.empty()) released = true;
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].ring == r) {
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
    const std::uint32_t req_head = cs.req_head.load(std::memory_order_relaxed);
    seg_.request_ring(r).reset_empty_at(req_head);
    cs.req_tail.store(req_head, std::memory_order_relaxed);
    const std::uint32_t resp_tail =
        cs.resp_tail.load(std::memory_order_relaxed);
    seg_.response_ring(r).reset_empty_at(resp_tail);
    cs.resp_head.store(resp_tail, std::memory_order_relaxed);
    cs.pid.store(0, std::memory_order_relaxed);
    cs.claim_token.store(0, std::memory_order_relaxed);
    cs.state.store(ClientSlot::kFree, std::memory_order_release);
    reclaims_.fetch_add(1, std::memory_order_relaxed);
    reclaimed_names_.fetch_add(names.size(), std::memory_order_relaxed);
  }
}

void Server::worker_loop(std::uint32_t wid) {
  rng::MarsagliaXorshift rng(rng::mix_seed(0x53564300ull, wid + 1));
  std::vector<Pending> pending;
  // kCollect's name buffer: empty until the first collect, then reused.
  // Reserving it up front would cost every daemon ~6 MB at L = 800k.
  std::vector<std::uint64_t> collect_buf;
  std::uint64_t seen_sweep_epoch = 0;
  Header& h = seg_.header();
  try {
    for (;;) {
      bool released = false;
      if (migrating_.load(std::memory_order_acquire)) {
        // Migration checkpoint: check in once, then hold at the loop top
        // — no ring is mid-drain, no response is mid-push — until the
        // coordinator swaps the structure and releases us. The pending
        // list is parked untouched; `released` below retries it against
        // the new shape (a migration usually grows capacity, so parked
        // GetKs may now be grantable).
        migrate_checkins_.fetch_add(1, std::memory_order_release);
        sync::Backoff migrate_backoff;
        while (migrating_.load(std::memory_order_acquire) &&
               !h.shutdown.load(std::memory_order_acquire)) {
          migrate_backoff.pause();
        }
        released = true;
      }
      std::size_t processed = 0;
      for (std::uint32_t r = wid; r < seg_.config().max_clients;
           r += workers_) {
        processed += drain_ring(r, rng, pending, collect_buf, released);
      }
      const std::uint64_t epoch = sweep_epoch_.load(std::memory_order_acquire);
      if (epoch != seen_sweep_epoch) {
        seen_sweep_epoch = epoch;
        sweep_own(wid, pending, released);
        sweeps_done_.fetch_add(1, std::memory_order_release);
      }
      if (released) {
        retry_pending(pending, rng);
        // Capacity we released may satisfy another worker's pending
        // list; nudge the fleet.
        if (workers_ > 1) h.doorbell.signal();
      }
      expire_pending(pending);
      if (h.shutdown.load(std::memory_order_acquire)) break;
      if (processed != 0) continue;
      // Idle: eventcount on the doorbell. The re-check between prepare
      // and commit is a full rescan of our rings; the timed sleep doubles
      // as the liveness-sweep heartbeat.
      const std::uint32_t seen = h.doorbell.prepare_wait();
      bool nonempty = false;
      for (std::uint32_t r = wid; r < seg_.config().max_clients;
           r += workers_) {
        ClientSlot& cs = seg_.client_slot(r);
        if (seg_.request_ring(r).try_begin_pop(
                cs.req_head.load(std::memory_order_relaxed)) != nullptr) {
          nonempty = true;
          break;
        }
      }
      if (nonempty || h.shutdown.load(std::memory_order_acquire) ||
          migrating_.load(std::memory_order_acquire)) {
        // (migrating_ here keeps a worker that raced past the
        // coordinator's doorbell signal from sleeping out the whole
        // heartbeat while the migration waits on its checkin.)
        h.doorbell.cancel_wait();
        continue;
      }
      bool swept_released = false;
      sweep_own(wid, pending, swept_released);
      if (swept_released) {
        h.doorbell.cancel_wait();
        retry_pending(pending, rng);
        continue;
      }
      idle_parks_.fetch_add(1, std::memory_order_relaxed);
      // The 50ms sweep heartbeat, shortened to the nearest pending
      // deadline so expiries are answered on time.
      h.doorbell.commit_wait_for(seen, idle_park_ns(pending));
    }
  } catch (const std::exception& e) {
    {
      sync::SpinLockGuard guard(error_lock_);
      if (error_.empty()) error_ = e.what();
    }
    h.shutdown.store(1, std::memory_order_release);
    h.doorbell.signal();
  }
  // Anyone still parked server-side gets a definitive no.
  for (const auto& p : pending) {
    respond(p.ring, [&](ResponseSlot& out) {
      out.status = Status::kShutdown;
      out.count = 0;
      out.error_index = 0;
      out.more = 0;
    });
  }
}

}  // namespace la::svc
