// Failure modes of the rename-service daemon, with real processes:
//
//   * Server death mid-request — a client whose server was SIGKILLed
//     (shutdown flag never set) must NOT re-park forever: the timed
//     response park expires, the probe of the published server pid
//     fails, and the exchange surfaces a distinct "server process died"
//     runtime_error. Before the probe existed the client wedged
//     indefinitely here.
//   * pid-reuse reclaim — the dead-client sweep compares the claim
//     generation token (the claimant's kernel start time) against the
//     pid's *current* owner, so a slot whose pid is alive but whose
//     token no longer matches is provably a recycled pid and is
//     reclaimed. Forging the token of a live holder simulates exactly
//     that; before token comparison a recycled pid kept the slot (and
//     its names) leaked forever. Negative controls: a matching token
//     and a zero token (stamp unavailable) must both keep the slot.
//
// Fork choreography (same rules as test_svc_reclaim): every child is
// forked before any thread exists in the parent; the holder child blocks
// in the Client ctor until its segment's server publishes ready.
#include <sys/types.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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
constexpr std::uint64_t kHolderHolds = 6;
// ~40k slots: the kCollect stream runs to ~10 bitmap windows of 4096
// slots, several times the 8-slot response ring, so a collect is always
// mid-stream when the server dies.
constexpr std::uint64_t kCollectCapacity = 20000;

// The death-test server child: serve segment A until SIGKILLed.
[[noreturn]] void server_child(la::svc::SegmentView seg) {
  la::core::LevelArrayConfig cfg;
  cfg.capacity = kCapacity;
  la::ckpt::AnyRenamer structure(std::make_unique<la::core::LevelArray>(cfg),
                                 "level");
  la::svc::Server server(seg, structure);
  server.start();
  for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

// The collect-test server child: seed most of the array before serving,
// so every kCollect response streams many chunks; then serve segment C
// until SIGKILLed.
[[noreturn]] void collect_server_child(la::svc::SegmentView seg) {
  la::core::LevelArrayConfig cfg;
  cfg.capacity = kCollectCapacity;
  auto level = std::make_unique<la::core::LevelArray>(cfg);
  const std::uint32_t batches = level->geometry().num_batches();
  for (std::uint32_t k = 0; k < batches; ++k) {
    (void)level->seed_batch_occupancy(
        k, level->geometry().batch(k).size() * 7 / 8);
  }
  la::ckpt::AnyRenamer structure(std::move(level), "level");
  la::svc::Server server(seg, structure);
  server.start();
  for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

// The token-test holder child: claim a ring on segment B, hold names,
// announce via scratch[0], and park until SIGKILLed. It stays *alive*
// through the sweeps — only the forged token may condemn it.
[[noreturn]] void holder_child(la::svc::SegmentView seg) {
  la::svc::Client client(seg);
  la::rng::MarsagliaXorshift rng(17);
  std::vector<la::GetResult> got(kHolderHolds);
  std::size_t have = 0;
  la::sync::Backoff backoff;
  while (have < kHolderHolds) {
    have += client.get_batch(rng, got.data() + have, kHolderHolds - have);
    if (have < kHolderHolds) backoff.pause();
  }
  seg.header().scratch[0].store(have, std::memory_order_release);
  for (;;) std::this_thread::yield();
}

void test_server_death(la::svc::SegmentView seg, pid_t server_pid) {
  current = "server_death";
  la::svc::Client client(seg);  // blocks until the child publishes ready
  la::rng::MarsagliaXorshift rng(5);

  // Round trip while the server lives: the wire works.
  la::GetResult r = client.get(rng);
  CHECK(r.name < client.total_slots());
  client.free(r.name);

  // SIGKILL sets no shutdown flag; reap so the pid probe sees ESRCH
  // (a zombie still "exists" to kill(pid, 0)).
  CHECK(::kill(server_pid, SIGKILL) == 0);
  int status = 0;
  CHECK(::waitpid(server_pid, &status, 0) == server_pid);
  CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  bool threw = false;
  try {
    (void)client.get(rng);
  } catch (const std::runtime_error& e) {
    threw = true;
    CHECK(std::string(e.what()).find("server process died") !=
          std::string::npos);
  }
  CHECK(threw);
}

// The streaming-collect regression: a server SIGKILLed between the
// chunks of a multi-chunk kCollect stream must surface as the same
// "server process died" error, not a wedge — every response wait in the
// stream (and the request push behind it) arms the liveness probe. The
// server child pre-seeds most of its array so each collect streams many
// bitmap-window chunks, widening the between-chunks window the kill
// lands in.
void test_server_death_mid_collect(la::svc::SegmentView seg,
                                   pid_t server_pid) {
  current = "server_death_mid_collect";

  std::atomic<std::uint64_t> first_collect{0};
  std::string error;
  std::thread collector([&] {
    try {
      la::svc::Client client(seg);  // blocks until the child is ready
      std::vector<std::uint64_t> names;
      const std::size_t found = client.collect(names);
      first_collect.store(found, std::memory_order_release);
      for (;;) {
        names.clear();
        (void)client.collect(names);
      }
    } catch (const std::runtime_error& e) {
      error = e.what();
      if (first_collect.load(std::memory_order_acquire) == 0) {
        first_collect.store(1, std::memory_order_release);  // unblock main
      }
    }
  });

  // Wait for one whole streamed collect, let the loop run into another
  // stream, then kill the server with no shutdown flag and reap it.
  {
    la::sync::Backoff backoff;
    while (first_collect.load(std::memory_order_acquire) == 0) {
      backoff.pause();
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  CHECK(::kill(server_pid, SIGKILL) == 0);
  int status = 0;
  CHECK(::waitpid(server_pid, &status, 0) == server_pid);
  CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  collector.join();
  // The first collect proves the stream spanned several chunks; the
  // error proves the mid-stream death surfaced instead of wedging (the
  // ctest timeout is what would catch the wedge).
  CHECK(first_collect.load(std::memory_order_acquire) >
        2 * la::svc::kMaxBatch);
  CHECK(!error.empty());
  CHECK(error.find("server process died") != std::string::npos ||
        error.find("server shut down") != std::string::npos);
}

void test_forged_token(la::svc::SegmentView seg, pid_t holder_pid) {
  current = "forged_token";

  la::scale::ShardedConfig sharded;
  sharded.shards = 4;
  la::core::LevelArrayConfig level;
  level.capacity = kCapacity / sharded.shards;
  la::ckpt::AnyRenamer structure(
      std::make_unique<la::scale::ShardedRenamer<la::core::LevelArray>>(
          sharded,
          [&level](std::uint32_t) {
            return std::make_unique<la::core::LevelArray>(level);
          }),
      "sharded:level");
  la::svc::Server server(seg, structure);
  server.start();

  // Wait until the holder provably holds names.
  {
    la::sync::Backoff backoff;
    while (seg.header().scratch[0].load(std::memory_order_acquire) == 0) {
      backoff.pause();
    }
  }
  CHECK(seg.header().scratch[0].load(std::memory_order_acquire) ==
        kHolderHolds);

  // Find the holder's claimed slot.
  la::svc::ClientSlot* slot = nullptr;
  for (std::uint32_t i = 0; i < seg.config().max_clients; ++i) {
    la::svc::ClientSlot& cs = seg.client_slot(i);
    if (cs.state.load(std::memory_order_acquire) ==
            la::svc::ClientSlot::kClaimed &&
        cs.pid.load(std::memory_order_acquire) ==
            static_cast<std::uint32_t>(holder_pid)) {
      slot = &cs;
      break;
    }
  }
  CHECK(slot != nullptr);
  if (slot == nullptr) {
    server.stop();
    return;
  }
  const std::uint64_t token =
      slot->claim_token.load(std::memory_order_acquire);
  CHECK(token != 0);  // Linux: the start-time stamp must be in place

  // Negative control 1: live pid + matching token -> kept.
  server.request_sweep();
  CHECK(server.stats().reclaims == 0);

  // Negative control 2: a zero token (stamp unavailable) degrades to
  // pid-only liveness -> a live pid is still kept.
  slot->claim_token.store(0, std::memory_order_release);
  server.request_sweep();
  CHECK(server.stats().reclaims == 0);

  // The forgery: a live pid whose current start time cannot match the
  // stamped token is exactly what a recycled pid looks like. The sweep
  // must reclaim the slot and recover every held name.
  slot->claim_token.store(token + 0x5EED, std::memory_order_release);
  server.request_sweep();
  const la::svc::ServerStats stats = server.stats();
  CHECK(stats.reclaims == 1);
  CHECK(stats.reclaimed_names == kHolderHolds);

  // Quiescence: nothing is held, and the full contention bound is
  // re-acquirable (a leaked name would cap this short).
  {
    std::vector<std::uint64_t> leftovers;
    CHECK(structure.collect(leftovers) == 0);
  }
  {
    la::svc::Client client(seg);
    la::rng::MarsagliaXorshift rng(23);
    std::vector<la::GetResult> got(kCapacity);
    std::size_t have = 0;
    la::sync::Backoff backoff;
    for (int attempts = 0; have < kCapacity && attempts < 200000;
         ++attempts) {
      have += client.get_batch(rng, got.data() + have, kCapacity - have);
      if (have < kCapacity) backoff.pause();
    }
    CHECK(have == kCapacity);
    for (std::size_t i = 0; i < have; ++i) client.free(got[i].name);
  }

  // The holder is parked on names that no longer exist for it; end it.
  CHECK(::kill(holder_pid, SIGKILL) == 0);
  int status = 0;
  CHECK(::waitpid(holder_pid, &status, 0) == holder_pid);
  CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  CHECK(server.error().empty());
  server.stop();
}

}  // namespace

int main() {
  using namespace la;

  svc::SegmentConfig seg_config;
  seg_config.max_clients = 8;
  svc::Segment segment_a(seg_config);  // server-death test
  svc::Segment segment_b(seg_config);  // forged-token test
  svc::Segment segment_c(seg_config);  // death-mid-collect test

  // Fork every child before any thread exists in this process.
  const pid_t server_pid = ::fork();
  if (server_pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (server_pid == 0) server_child(segment_a.view());

  const pid_t collect_server_pid = ::fork();
  if (collect_server_pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (collect_server_pid == 0) collect_server_child(segment_c.view());

  const pid_t holder_pid = ::fork();
  if (holder_pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (holder_pid == 0) {
    // Blocks in the Client ctor until test_forged_token starts its
    // server on segment B.
    std::thread worker([&] { holder_child(segment_b.view()); });
    worker.join();  // unreachable
    ::_exit(4);
  }

  test_server_death(segment_a.view(), server_pid);
  test_server_death_mid_collect(segment_c.view(), collect_server_pid);
  test_forged_token(segment_b.view(), holder_pid);

  if (failures == 0) {
    std::printf("test_svc_failures: all checks passed\n");
    return 0;
  }
  std::printf("test_svc_failures: %d check(s) FAILED\n", failures);
  return 1;
}
