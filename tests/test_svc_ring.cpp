// Unit tests for the svc layer's SPSC ring and the futex eventcount it
// composes with: slot-sequence handshake at capacities 2 and 64 across
// multiple laps (capacity 1 is degenerate — one slot cannot tell
// "published at p" from "free for p+1" — and must be rejected),
// free-running-cursor arithmetic straight through
// uint32 wraparound, full/empty edge conditions, dead-producer resets,
// a real producer/consumer thread pair with the consumer parked on an
// eventcount (every item must arrive, in order, with no lost wakeup),
// an eventcount ping-pong that only terminates if no signal is ever
// dropped, and the kCollect bitmap stream end to end through an
// in-process server (window edges, a slot count that is not a multiple of
// 64, the stream's chunk count, the empty set). Run under TSan by
// scripts/check.sh tsan.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arrays/id_array.hpp"
#include "ckpt/any_renamer.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/ring.hpp"
#include "svc/segment.hpp"
#include "svc/server.hpp"
#include "sync/futex.hpp"
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

// A minimal slot: the ring template only needs `seq` (protocol.hpp's
// RequestSlot/ResponseSlot are the production instantiations).
struct TestSlot {
  std::atomic<std::uint32_t> seq{0};
  std::uint64_t value = 0;
};

void check_capacity_validation() {
  current = "capacity-validation";
  CHECK(la::svc::valid_ring_capacity(2));
  CHECK(la::svc::valid_ring_capacity(64));
  CHECK(!la::svc::valid_ring_capacity(0));
  // One slot cannot distinguish "published at p" (seq == p+1) from
  // "free for p+1" (also seq == p+1): the producer would overwrite the
  // unconsumed slot and the consumer would wedge. Rejected by contract.
  CHECK(!la::svc::valid_ring_capacity(1));
  CHECK(!la::svc::valid_ring_capacity(3));
  CHECK(!la::svc::valid_ring_capacity(6));
}

// Interleaved push/pop for several laps, starting the cursors at `start`
// (reset_empty_at accepts any position, which is also how we drive the
// cursors straight through the 2^32 boundary).
void laps_at(std::uint32_t capacity, std::uint32_t start,
             std::uint64_t items) {
  std::vector<TestSlot> slots(capacity);
  la::svc::RingView<TestSlot> ring(slots.data(), capacity);
  ring.initialize();
  ring.reset_empty_at(start);

  std::uint32_t head = start;  // producer
  std::uint32_t tail = start;  // consumer
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  // Alternate a burst of pushes (until full or done) with a burst of
  // pops, so both the partially-full and full regimes recur every lap.
  // Single-threaded, so every outer round must consume at least one
  // item; a round that cannot means the handshake wedged — fail loudly
  // instead of spinning forever.
  std::uint64_t rounds = 0;
  while (consumed < items) {
    if (++rounds > 2 * items + 16) {
      CHECK(!"ring wedged: no progress in a single-threaded lap");
      return;
    }
    while (produced < items) {
      TestSlot* slot = ring.try_begin_push(head);
      if (slot == nullptr) break;  // full
      slot->value = produced;
      ring.commit_push(*slot, head);
      ++head;
      ++produced;
    }
    bool popped = false;
    while (true) {
      TestSlot* slot = ring.try_begin_pop(tail);
      if (slot == nullptr) break;  // empty
      CHECK(slot->value == consumed);
      ring.commit_pop(*slot, tail);
      ++tail;
      ++consumed;
      popped = true;
    }
    CHECK(popped || produced > consumed);  // never wedged
  }
  CHECK(produced == items && consumed == items);
  CHECK(ring.try_begin_pop(tail) == nullptr);  // drained
}

void check_wraparound_laps() {
  current = "wraparound-laps";
  for (const std::uint32_t capacity : {2u, 64u}) {
    // Several laps from zero...
    laps_at(capacity, 0, 7ull * capacity + 3);
    // ...and straight through the uint32 position wrap.
    laps_at(capacity, 0xFFFFFF80u, 7ull * capacity + 0x100);
  }
}

void check_full_empty_edges() {
  current = "full-empty-edges";
  std::vector<TestSlot> slots(2);
  la::svc::RingView<TestSlot> ring(slots.data(), 2);
  ring.initialize();

  // Empty: nothing to pop.
  CHECK(ring.try_begin_pop(0) == nullptr);
  // Fill to capacity; the next push must refuse.
  TestSlot* a = ring.try_begin_push(0);
  CHECK(a != nullptr);
  a->value = 10;
  ring.commit_push(*a, 0);
  TestSlot* b = ring.try_begin_push(1);
  CHECK(b != nullptr);
  b->value = 11;
  ring.commit_push(*b, 1);
  CHECK(ring.try_begin_push(2) == nullptr);  // full
  // One pop frees exactly one push.
  TestSlot* c = ring.try_begin_pop(0);
  CHECK(c != nullptr && c->value == 10);
  ring.commit_pop(*c, 0);
  CHECK(ring.try_begin_push(2) != nullptr);
}

void check_reset_discards_inflight() {
  current = "reset-discards-inflight";
  std::vector<TestSlot> slots(4);
  la::svc::RingView<TestSlot> ring(slots.data(), 4);
  ring.initialize();
  // A dead producer left three published entries and a half-written slot.
  for (std::uint32_t p = 0; p < 3; ++p) {
    TestSlot* slot = ring.try_begin_push(p);
    slot->value = p;
    ring.commit_push(*slot, p);
  }
  // The reclaimer resets at the consumer's cursor: everything in flight
  // is discarded and the ring is empty-but-usable from there.
  ring.reset_empty_at(7);
  CHECK(ring.try_begin_pop(7) == nullptr);
  for (std::uint32_t p = 7; p < 11; ++p) {
    TestSlot* slot = ring.try_begin_push(p);
    CHECK(slot != nullptr);
    if (slot == nullptr) return;
    slot->value = p;
    ring.commit_push(*slot, p);
  }
  CHECK(ring.try_begin_push(11) == nullptr);  // full again at the new lap
}

// Real SPSC thread pair: the producer pushes a monotone stream and rings
// a bell after each publish; the consumer verifies order and parks on
// the bell with the eventcount protocol whenever the ring is empty. If
// any wakeup were lost the consumer would sleep forever on the last
// items (no timed backstop here — that is the point of the test).
void check_threaded_spsc_eventcount() {
  current = "threaded-spsc-eventcount";
  constexpr std::uint32_t kCapacity = 8;
  constexpr std::uint64_t kItems = 200000;
  std::vector<TestSlot> slots(kCapacity);
  la::svc::RingView<TestSlot> ring(slots.data(), kCapacity);
  ring.initialize();
  la::sync::FutexWord bell;

  std::thread producer([&] {
    std::uint32_t head = 0;
    la::sync::Backoff backoff;
    for (std::uint64_t i = 0; i < kItems; ++i) {
      TestSlot* slot;
      while ((slot = ring.try_begin_push(head)) == nullptr) {
        backoff.pause();  // consumer side applies backpressure by pace
      }
      backoff.reset();
      slot->value = i;
      ring.commit_push(*slot, head);
      ++head;
      bell.signal();
    }
  });

  std::uint32_t tail = 0;
  std::uint64_t expect = 0;
  bool ordered = true;
  while (expect < kItems) {
    TestSlot* slot = ring.try_begin_pop(tail);
    if (slot == nullptr) {
      // Eventcount: register, re-check, then sleep untimed.
      const std::uint32_t seen = bell.prepare_wait();
      slot = ring.try_begin_pop(tail);
      if (slot != nullptr) {
        bell.cancel_wait();
      } else {
        bell.commit_wait(seen);
        continue;
      }
    }
    ordered = ordered && slot->value == expect;
    ring.commit_pop(*slot, tail);
    ++tail;
    ++expect;
  }
  producer.join();
  CHECK(ordered);
  CHECK(ring.try_begin_pop(tail) == nullptr);
}

// Two threads alternating strictly via two eventcounts, untimed waits:
// kRounds handoffs only complete if no signal is ever lost in either
// direction (the classic lost-wakeup shape: decide-to-sleep vs signal).
void check_eventcount_ping_pong() {
  current = "eventcount-ping-pong";
  constexpr std::uint64_t kRounds = 100000;
  std::atomic<std::uint64_t> turn{0};
  la::sync::FutexWord bell_even;  // signaled when turn becomes even
  la::sync::FutexWord bell_odd;   // signaled when turn becomes odd

  auto play = [&](std::uint64_t parity, la::sync::FutexWord& mine,
                  la::sync::FutexWord& theirs) {
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      const std::uint64_t want = 2 * round + parity;
      while (turn.load(std::memory_order_acquire) != want) {
        const std::uint32_t seen = mine.prepare_wait();
        if (turn.load(std::memory_order_acquire) == want) {
          mine.cancel_wait();
          break;
        }
        mine.commit_wait(seen);
      }
      turn.store(want + 1, std::memory_order_release);
      theirs.signal();
    }
  };

  std::thread even([&] { play(0, bell_even, bell_odd); });
  play(1, bell_odd, bell_even);
  even.join();
  CHECK(turn.load() == 2 * kRounds);
}

// Response slots consumed across every ring of the segment: how many
// chunks the server has streamed back.
std::uint64_t responses_consumed(la::svc::SegmentView seg) {
  std::uint64_t total = 0;
  for (std::uint32_t r = 0; r < seg.config().max_clients; ++r) {
    total += seg.client_slot(r).resp_head.load(std::memory_order_relaxed);
  }
  return total;
}

// The bitmap-window kCollect stream, end to end: a server over an id
// array of 12345 slots (not a multiple of 64) holding the window-edge
// names must hand the client exactly those names, ascending, appended
// after what the vector already held, in one chunk per 4096-slot window
// up to the highest name; an empty structure answers with one chunk.
void check_collect_bitmap_stream() {
  current = "collect-bitmap-stream";
  constexpr std::uint64_t kSlots = 12345;
  static_assert(kSlots % 64 != 0);
  const std::vector<std::uint64_t> names = {0,    63,   64,        4095,
                                            4096, 8191, kSlots - 1};
  auto ids = std::make_unique<la::arrays::IdIndexedArray>(kSlots, kSlots);
  for (const auto name : names) (void)ids->get_by_id(name);
  la::ckpt::AnyRenamer structure(std::move(ids), "id");
  la::svc::Segment segment(la::svc::SegmentConfig{});
  la::svc::Server server(segment.view(), structure);
  server.start();
  {
    la::svc::Client client(segment.view());
    std::vector<std::uint64_t> out = {99};
    std::uint64_t before = responses_consumed(segment.view());
    CHECK(client.collect(out) == names.size());
    CHECK(responses_consumed(segment.view()) - before ==
          (kSlots - 1) / la::svc::kCollectWindow + 1);
    CHECK(out.size() == names.size() + 1 && out[0] == 99);
    CHECK(std::equal(names.begin(), names.end(), out.begin() + 1, out.end()));

    // Without its top name the stream stops at the window of 8191.
    structure.free(kSlots - 1);
    out.clear();
    before = responses_consumed(segment.view());
    CHECK(client.collect(out) == names.size() - 1);
    CHECK(responses_consumed(segment.view()) - before == 2);
    CHECK(std::equal(names.begin(), names.end() - 1, out.begin(), out.end()));

    // Empty: one chunk, nothing appended.
    for (std::size_t i = 0; i + 1 < names.size(); ++i) structure.free(names[i]);
    out.assign(1, 5);
    before = responses_consumed(segment.view());
    CHECK(client.collect(out) == 0);
    CHECK(responses_consumed(segment.view()) - before == 1);
    CHECK(out.size() == 1 && out[0] == 5);
  }
  server.stop();
  CHECK(server.error().empty());
}

}  // namespace

int main() {
  check_capacity_validation();
  check_wraparound_laps();
  check_full_empty_edges();
  check_reset_discards_inflight();
  check_threaded_spsc_eventcount();
  check_eventcount_ping_pong();
  check_collect_bitmap_stream();
  if (failures == 0) {
    std::printf("test_svc_ring: all checks passed\n");
    return 0;
  }
  std::printf("test_svc_ring: %d check(s) FAILED\n", failures);
  return 1;
}
