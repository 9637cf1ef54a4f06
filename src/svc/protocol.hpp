// Wire protocol of the rename-service daemon: the opcodes and the two
// cache-padded slot layouts that travel through the shared-memory SPSC
// rings (see ring.hpp for the sequence-number handshake and segment.hpp
// for where the rings live).
//
// Design constraints, in order:
//   * one slot carries up to kMaxBatch (64) names, so the batched
//     Get-k/Free-k surface from PR 6 amortizes the ring round trip the
//     same way it amortizes the gate RMW;
//   * every field is a flat integer — slots are written in place in the
//     shared segment by one process and read by another, so the layout
//     must be trivially copyable with no pointers;
//   * each request carries the sender's pid: held-name accounting is per
//     client *process* (names legitimately migrate between the threads
//     of one process — prefill dealt to workers, reapers freeing
//     leftovers), and the pid is what the crash-reclaim sweep probes.
//
// Opcode semantics (server side):
//   kGetK    claim up to `count` names. The server answers as soon as it
//            can grant at least one; a request that can grant none parks
//            server-side on the pending list and is retried after every
//            capacity release — the client blocks, it does not spin. A
//            nonzero `deadline_ns` (absolute CLOCK_MONOTONIC, the
//            library-wide deadline clock — monotonic time is system-wide
//            on Linux, so an instant stamped by the client is meaningful
//            to the server) bounds the park: a pending request whose
//            deadline passes is answered kTimedOut with count 0.
//   kFreeK   free names[0..count). Processed in order; on the first bad
//            name the server stops and reports the index and class, with
//            the earlier names already freed (the api batch contract).
//   kCollect stream the logically-held name set as a bitmap, one
//            response slot per 4096-slot window (kCollectWindow): chunk j
//            covers slots [j*4096, (j+1)*4096), bit b of names[w] is slot
//            j*4096 + 64*w + b, and `count` is how many words it carries
//            (trailing zero words are trimmed, so an empty window carries
//            0). `more` marks every chunk but the last, and the last is
//            the window holding the highest held name — an empty set is
//            one chunk with count 0. The windows come from the collect
//            result alone, never from total_slots(), so a migration
//            that changes the geometry cannot skew them. One slot carries
//            64x the names a name list would (~196 slots at L = 800k
//            instead of one per 64 held names).
//   kDetach  the sending thread is leaving: drop any per-ring state.
//            Fire-and-forget — no response slot is produced.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sync/cache.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <errno.h>
#include <signal.h>
#include <unistd.h>
#endif

namespace la::svc {

inline constexpr std::uint32_t kMaxBatch = 64;

// Slots per kCollect chunk: names[] read as kMaxBatch 64-bit bitmap words.
inline constexpr std::uint64_t kCollectWindow = 64 * kMaxBatch;

enum class Op : std::uint32_t {
  kNop = 0,
  kGetK = 1,
  kFreeK = 2,
  kCollect = 3,
  kDetach = 4,
};

enum class Status : std::uint32_t {
  kOk = 0,
  // FreeK error classes, mapped back to the contract's exception types
  // by the client (error_index names the offending position):
  kOutOfRange = 1,  // -> std::out_of_range
  kNotHeld = 2,     // -> std::logic_error (double free)
  kForeign = 3,     // held by another client process -> std::logic_error
  kShutdown = 4,    // server is stopping; no more responses will come
  kTimedOut = 5,    // GetK deadline_ns expired before any name freed up
};

// Client -> server. `seq` is the ring handshake word (ring.hpp); the
// payload is everything after it. `deadline_ns` is the kGetK park bound
// (absolute CLOCK_MONOTONIC ns; 0 = park until capacity or shutdown).
struct alignas(sync::kCacheLineSize) RequestSlot {
  std::atomic<std::uint32_t> seq{0};
  std::uint32_t pid = 0;
  Op op = Op::kNop;
  std::uint32_t count = 0;
  std::uint64_t deadline_ns = 0;
  std::uint64_t names[kMaxBatch] = {};
};

// Server -> client. GetK fills names[] and probes[] (the per-name trial
// counts the benches record); FreeK fills status/error_index; a kCollect
// chunk fills names[0..count) with bitmap words of its 4096-slot window
// and sets `more` on every chunk but the last.
struct alignas(sync::kCacheLineSize) ResponseSlot {
  std::atomic<std::uint32_t> seq{0};
  Status status = Status::kOk;
  std::uint32_t count = 0;
  std::uint32_t error_index = 0;
  std::uint32_t more = 0;
  std::uint32_t probes[kMaxBatch] = {};
  std::uint64_t names[kMaxBatch] = {};
};

static_assert(sizeof(RequestSlot) % sync::kCacheLineSize == 0);
static_assert(sizeof(ResponseSlot) % sync::kCacheLineSize == 0);
// The wire layout is shared between processes built separately; pin it.
static_assert(sizeof(RequestSlot) == 576 && offsetof(RequestSlot, names) == 24);
static_assert(sizeof(ResponseSlot) == 832 &&
              offsetof(ResponseSlot, probes) == 20 &&
              offsetof(ResponseSlot, names) == 280);

// --- process identity helpers (shared by server sweep + client probes) --

inline std::uint32_t this_pid() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<std::uint32_t>(::getpid());
#else
  return 1;
#endif
}

inline bool pid_alive(std::uint32_t pid) {
#if defined(__unix__) || defined(__APPLE__)
  if (pid == 0) return true;  // not yet published; treat as live
  return !(::kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH);
#else
  (void)pid;
  return true;
#endif
}

// The process's kernel start time (clock ticks since boot, field 22 of
// /proc/<pid>/stat), or 0 where unavailable. pid_alive is fooled by pid
// recycling — a new process under a dead client's pid keeps its slot
// "alive" and leaks its names forever — but (pid, start_time) is unique
// for the machine's uptime, so clients stamp their own start time as a
// claim generation token and the sweep compares tokens, not bare pids.
inline std::uint64_t pid_start_time(std::uint32_t pid) {
#if defined(__linux__)
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%u/stat", pid);
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (n == 0) return 0;
  buf[n] = '\0';
  // The comm field (2) is an arbitrary parenthesized string; parse from
  // the *last* ')' so a comm like "a) 1 (b" cannot shift the fields.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  ++p;
  // After ')': fields 3..N space-separated; start time is field 22, i.e.
  // the 20th token after comm.
  for (int field = 3; field < 22; ++field) {
    p = std::strchr(p + 1, ' ');
    if (p == nullptr) return 0;
  }
  return std::strtoull(p + 1, nullptr, 10);
#else
  (void)pid;
  return 0;
#endif
}

}  // namespace la::svc
