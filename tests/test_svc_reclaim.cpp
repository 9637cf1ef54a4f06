// The daemon's crash-liveness guarantee, end to end with real processes:
// fork one client that exits cleanly (its names freed, its rings
// detached) and one that is SIGKILLed while holding names mid-protocol.
// The server's sweep must recover every name the dead client held —
// proven three ways: the reclaim counters match the victim's announced
// hold count, collect() agrees nothing is held at quiescence, and a
// fresh client can re-acquire the full contention bound afterwards (a
// leaked name would make that impossible).
//
// Fork choreography matters under ASan: every child is forked before the
// server's worker threads start (children block in the Client ctor until
// header.ready), and children leave via _exit after joining the worker
// thread that ran their traffic (the thread-exit hook is what releases
// the TLS-claimed ring).
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "ckpt/any_renamer.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "svc/client.hpp"
#include "svc/segment.hpp"
#include "svc/server.hpp"
#include "sync/spin_barrier.hpp"

namespace {

int failures = 0;
std::string current;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "FAIL [%s] %s:%d: %s\n", current.c_str(),      \
                   __FILE__, __LINE__, #cond);                            \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

constexpr std::uint64_t kCapacity = 64;
constexpr std::uint64_t kVictimHolds = 10;

// scratch[0]: victim -> parent, number of names held (nonzero = parked
// and killable). scratch[1]: clean child -> parent, ops completed.
void clean_child(la::svc::SegmentView seg) {
  la::svc::Client client(seg);
  la::rng::MarsagliaXorshift rng(7);
  std::vector<la::GetResult> got(8);
  std::uint64_t ops = 0;
  for (int round = 0; round < 16; ++round) {
    std::size_t have = 0;
    la::sync::Backoff backoff;
    while (have < got.size()) {
      have += client.get_batch(rng, got.data() + have, got.size() - have);
      if (have < got.size()) backoff.pause();
    }
    for (std::size_t i = 0; i < have; ++i) client.free(got[i].name);
    ops += 2 * have;
  }
  seg.header().scratch[1].store(ops, std::memory_order_release);
}

[[noreturn]] void victim_child(la::svc::SegmentView seg) {
  la::svc::Client client(seg);
  la::rng::MarsagliaXorshift rng(11);
  std::vector<la::GetResult> got(kVictimHolds);
  std::size_t have = 0;
  la::sync::Backoff backoff;
  while (have < kVictimHolds) {
    have += client.get_batch(rng, got.data() + have, kVictimHolds - have);
    if (have < kVictimHolds) backoff.pause();
  }
  seg.header().scratch[0].store(have, std::memory_order_release);
  for (;;) std::this_thread::yield();  // holding until SIGKILL
}

}  // namespace

int main() {
  using namespace la;
  current = "reclaim";

  svc::SegmentConfig seg_config;
  seg_config.max_clients = 8;
  svc::Segment segment(seg_config);
  svc::SegmentView seg = segment.view();

  // Fork both children before any thread exists in this process.
  const pid_t clean_pid = ::fork();
  if (clean_pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (clean_pid == 0) {
    std::thread worker([&] { clean_child(seg); });
    worker.join();
    ::_exit(0);
  }
  const pid_t victim_pid = ::fork();
  if (victim_pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (victim_pid == 0) {
    std::thread worker([&] { victim_child(seg); });
    worker.join();  // unreachable
    ::_exit(4);
  }

  scale::ShardedConfig sharded;
  sharded.shards = 4;
  core::LevelArrayConfig level;
  level.capacity = kCapacity / sharded.shards;
  ckpt::AnyRenamer structure(
      std::make_unique<scale::ShardedRenamer<core::LevelArray>>(
          sharded,
          [&level](std::uint32_t) {
            return std::make_unique<core::LevelArray>(level);
          }),
      "sharded:level");
  svc::Server server(seg, structure);
  server.start();

  // The clean child must finish green and leave nothing behind.
  int status = 0;
  CHECK(::waitpid(clean_pid, &status, 0) == clean_pid);
  CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  CHECK(seg.header().scratch[1].load(std::memory_order_acquire) > 0);

  // Wait until the victim provably holds names, then kill it mid-hold.
  {
    sync::Backoff backoff;
    while (seg.header().scratch[0].load(std::memory_order_acquire) == 0) {
      backoff.pause();
    }
  }
  const std::uint64_t announced =
      seg.header().scratch[0].load(std::memory_order_acquire);
  CHECK(announced == kVictimHolds);
  ::kill(victim_pid, SIGKILL);
  // Reap before sweeping: a zombie still "exists" to kill(pid, 0), so an
  // unreaped victim would survive the liveness probe.
  CHECK(::waitpid(victim_pid, &status, 0) == victim_pid);
  CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  server.request_sweep();
  const svc::ServerStats stats = server.stats();
  CHECK(stats.reclaims >= 1);  // the victim's rings (clean child detached)
  CHECK(stats.reclaimed_names == announced);

  // Quiescence: the structure agrees nothing is held...
  {
    std::vector<std::uint64_t> leftovers;
    CHECK(structure.collect(leftovers) == 0);
  }

  // ...and every name is re-acquirable through a fresh client in this
  // process (a leaked slot would cap this below the contention bound).
  {
    svc::Client client(seg);
    rng::MarsagliaXorshift rng(13);
    std::vector<GetResult> got(kCapacity);
    std::size_t have = 0;
    sync::Backoff backoff;
    for (int attempts = 0; have < kCapacity && attempts < 200000;
         ++attempts) {
      have += client.get_batch(rng, got.data() + have, kCapacity - have);
      if (have < kCapacity) backoff.pause();
    }
    CHECK(have == kCapacity);
    for (std::size_t i = 0; i < have; ++i) client.free(got[i].name);
    std::vector<std::uint64_t> leftovers;
    server.request_sweep();
    CHECK(structure.collect(leftovers) == 0);
  }

  CHECK(server.error().empty());
  server.stop();

  if (failures == 0) {
    std::printf("test_svc_reclaim: all checks passed\n");
    return 0;
  }
  std::printf("test_svc_reclaim: %d check(s) FAILED\n", failures);
  return 1;
}
