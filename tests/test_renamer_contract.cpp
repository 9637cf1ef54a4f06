// Registry-driven conformance test: every registered structure must honor
// the shared api::Renamer contract — distinct names while held (up to the
// contention bound), freed names reusable, collect() appending the held
// set in ascending order, out-of-range free throwing, and double-free
// failing loudly.
// Every adoptable structure's adopt_held and every core::SlotArray-backed
// structure's collect-vs-bytewise parity are checked directly too.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "api/registry.hpp"
#include "core/level_array.hpp"
#include "core/slot_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"

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

template <typename Array>
void check_contract(Array& array, std::uint64_t capacity) {
  la::rng::MarsagliaXorshift rng(20260727);

  CHECK(array.capacity() >= capacity);
  CHECK(array.total_slots() >= capacity);

  // Distinct names while held, up to the contention bound.
  std::set<std::uint64_t> held;
  for (std::uint64_t i = 0; i < capacity; ++i) {
    const auto r = array.get(rng);
    CHECK(r.probes >= 1);
    CHECK(r.name < array.total_slots());
    CHECK(held.insert(r.name).second);
  }
  CHECK(held.size() == capacity);

  // collect() sees exactly the held set, ascending, and appends: a
  // sentinel prefix already in the vector survives, and the return value
  // counts only the names appended after it.
  const std::vector<std::uint64_t> prefix = {~0ull, 7, ~0ull};
  std::vector<std::uint64_t> collected = prefix;
  CHECK(array.collect(collected) == capacity);
  CHECK(collected.size() == prefix.size() + capacity);
  CHECK(std::equal(prefix.begin(), prefix.end(), collected.begin()));
  collected.erase(collected.begin(),
                  collected.begin() + static_cast<std::ptrdiff_t>(prefix.size()));
  CHECK(std::is_sorted(collected.begin(), collected.end()));
  CHECK(std::set<std::uint64_t>(collected.begin(), collected.end()) == held);

  // Free half; the freed names must become reusable (the next Gets
  // succeed and stay distinct from everything still held).
  std::vector<std::uint64_t> freed;
  for (auto it = held.begin();
       it != held.end() && freed.size() < capacity / 2;) {
    freed.push_back(*it);
    array.free(*it);
    it = held.erase(it);
  }
  for (std::size_t i = 0; i < freed.size(); ++i) {
    const auto r = array.get(rng);
    CHECK(held.insert(r.name).second);
  }
  CHECK(held.size() == capacity);
  collected.clear();
  CHECK(array.collect(collected) == capacity);

  // Out-of-range free throws std::out_of_range.
  bool threw_range = false;
  try {
    array.free(array.total_slots() + 17);
  } catch (const std::out_of_range&) {
    threw_range = true;
  }
  CHECK(threw_range);

  // Double-free fails loudly instead of corrupting occupancy.
  const std::uint64_t victim = *held.begin();
  held.erase(victim);
  array.free(victim);
  bool threw_double = false;
  try {
    array.free(victim);
  } catch (const std::logic_error&) {
    threw_double = true;
  }
  CHECK(threw_double);
  collected.clear();
  CHECK(array.collect(collected) == held.size());

  // Drain; the structure ends empty.
  for (const auto name : held) array.free(name);
  collected.clear();
  CHECK(array.collect(collected) == 0);
}

// Which exception fn() threw, told apart exactly (out_of_range is itself
// a logic_error), and its message.
enum class Thrown { kNone, kOutOfRange, kLogicError, kOther };

template <typename Fn>
Thrown thrown_by(Fn&& fn, std::string* what = nullptr) {
  try {
    fn();
  } catch (const std::out_of_range& e) {
    if (what != nullptr) *what = e.what();
    return Thrown::kOutOfRange;
  } catch (const std::logic_error& e) {
    if (what != nullptr) *what = e.what();
    return Thrown::kLogicError;
  } catch (...) {
    return Thrown::kOther;
  }
  return Thrown::kNone;
}

// adopt_held's own checks, which api::restore never reaches (it
// validates the image first): out_of_range past the end, logic_error on
// a held name. Then, on core::SlotArray-backed structures, random churn
// followed by the word-scan collect against its per-byte oracle.
template <typename Array>
void check_slot_surface(Array& array, std::uint64_t capacity) {
  la::rng::MarsagliaXorshift rng(20260901);
  if constexpr (la::api::has_adopt_held_v<Array>) {
    const std::uint64_t name = array.get(rng).name;
    CHECK(thrown_by([&] { array.adopt_held(array.total_slots()); }) ==
          Thrown::kOutOfRange);
    CHECK(thrown_by([&] { array.adopt_held(name); }) == Thrown::kLogicError);
    array.free(name);
  }
  if constexpr (std::is_base_of_v<la::core::SlotArray, Array>) {
    std::vector<std::uint64_t> held;
    for (std::uint64_t step = 0; step < 16 * capacity; ++step) {
      if (held.size() < capacity &&
          (held.empty() || la::rng::bounded(rng, 2) == 0)) {
        held.push_back(array.get(rng).name);
      } else {
        const std::size_t i = la::rng::bounded(rng, held.size());
        array.free(held[i]);
        held[i] = held.back();
        held.pop_back();
      }
    }
    std::vector<std::uint64_t> words, bytes;
    CHECK(array.collect(words) == array.collect_bytewise(bytes));
    CHECK(words == bytes);
    CHECK(words.size() == held.size());
    // A clear slot adopts, shows up in collect, and frees again.
    const std::set<std::uint64_t> taken(held.begin(), held.end());
    std::uint64_t clear = 0;
    while (taken.count(clear) != 0) ++clear;
    array.adopt_held(clear);
    bytes.clear();
    CHECK(array.collect_bytewise(bytes) == held.size() + 1);
    array.free(clear);
    for (const auto name : held) array.free(name);
  }
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

}  // namespace

int main() {
  using namespace la;

  const auto& infos = api::registered_structures();
  // The seven flat structures plus their seven sharded:* variants plus
  // the one daemon-backed entry, svc:sharded:level.
  CHECK(infos.size() == 15);

  for (const auto& info : infos) {
    current = std::string(info.name);
    api::RenamerConfig config;
    config.capacity = 48;  // keeps the splitter triangle small
    api::visit(current, config, [&](auto& array) {
      check_contract(array, config.capacity);
      check_slot_surface(array, config.capacity);
    });
    // Aliases resolve to the same canonical entry.
    for (const auto alias : info.aliases) {
      CHECK(api::resolve_structure(std::string(alias)) ==
            std::string(info.name));
    }
  }

  // IdIndexedArray::get_by_id registers a known id: out_of_range past
  // the id space, logic_error on an id already registered, and both
  // messages name the structure and the operation.
  {
    current = "id/get_by_id";
    arrays::IdIndexedArray ids(64, 8);
    const auto r = ids.get_by_id(5);
    CHECK(r.name == 5 && r.probes == 1);
    std::string what;
    CHECK(thrown_by([&] { ids.get_by_id(64); }, &what) == Thrown::kOutOfRange);
    CHECK(what.find("IdIndexedArray::get_by_id") != std::string::npos);
    CHECK(thrown_by([&] { ids.get_by_id(5); }, &what) == Thrown::kLogicError);
    CHECK(what.find("IdIndexedArray::get_by_id") != std::string::npos);
    ids.free(5);
    CHECK(ids.get_by_id(5).name == 5);
  }

  // SplitterRenamer edge cases: the Theta(n^2)-memory capacity cap must
  // refuse loudly through the registry path, and the recycling facade's
  // double-free / reserved-name-0 guards must fail before corrupting the
  // free list.
  {
    current = "splitter/capacity-refusal";
    api::RenamerConfig big;
    big.capacity = api::SplitterRenamer::kMaxCapacity + 1;
    bool refused = false;
    try {
      api::visit("splitter", big, [](auto& array) { (void)array; });
    } catch (const std::invalid_argument& e) {
      refused = true;
      CHECK(std::string(e.what()).find("capacity") != std::string::npos);
    }
    CHECK(refused);
  }
  {
    current = "splitter/double-free-edges";
    api::SplitterRenamer splitter(16);
    la::rng::MarsagliaXorshift rng(3);

    // Name 0 is reserved by the facade and can never be freed.
    bool threw_zero = false;
    try {
      splitter.free(0);
    } catch (const std::logic_error&) {
      threw_zero = true;
    }
    CHECK(threw_zero);

    // Double-freeing a recycled name fails both times it is not held —
    // including after the name has been through the Treiber free list.
    const auto first = splitter.get(rng);
    splitter.free(first.name);
    bool threw_double = false;
    try {
      splitter.free(first.name);
    } catch (const std::logic_error&) {
      threw_double = true;
    }
    CHECK(threw_double);

    // The recycled name comes back in O(1) and is then freeable again.
    const auto second = splitter.get(rng);
    CHECK(second.name == first.name);
    CHECK(second.probes == 1);
    splitter.free(second.name);
    bool threw_again = false;
    try {
      splitter.free(second.name);
    } catch (const std::logic_error&) {
      threw_again = true;
    }
    CHECK(threw_again);
  }

  // ShardedRenamer edge cases beyond the generic contract walk: the
  // shard math must route names back to the right shard, parked names
  // must stay double-free-safe, and collect() must drain the caches.
  {
    current = "sharded/name-routing";
    scale::ShardedConfig config;
    config.shards = 4;
    config.cache_capacity = 0;  // direct path: every name routes to inner
    scale::ShardedRenamer<core::LevelArray> array(
        config, [](std::uint32_t) {
          core::LevelArrayConfig inner;
          inner.capacity = 8;
          return std::make_unique<core::LevelArray>(inner);
        });
    CHECK(array.num_shards() == 4);
    CHECK(array.capacity() == 32);
    CHECK(array.total_slots() == 4 * array.shard_stride());
    la::rng::MarsagliaXorshift rng(11);
    std::vector<std::uint64_t> names;
    for (int i = 0; i < 32; ++i) names.push_back(array.get(rng).name);
    // Per-shard occupancy gates: exactly 8 names land in each stride
    // range, and every name frees back through the right shard.
    std::vector<std::uint64_t> per_shard(4, 0);
    for (const auto name : names) {
      CHECK(name < array.total_slots());
      ++per_shard[name / array.shard_stride()];
    }
    for (const auto count : per_shard) CHECK(count == 8);
    for (const auto name : names) array.free(name);
    std::vector<std::uint64_t> collected;
    CHECK(array.collect(collected) == 0);
  }
  {
    current = "sharded/parked-double-free";
    scale::ShardedConfig config;
    config.shards = 2;
    config.cache_capacity = 8;
    scale::ShardedRenamer<core::LevelArray> array(
        config, [](std::uint32_t) {
          core::LevelArrayConfig inner;
          inner.capacity = 8;
          return std::make_unique<core::LevelArray>(inner);
        });
    la::rng::MarsagliaXorshift rng(5);
    const auto r = array.get(rng);
    array.free(r.name);  // parks in this thread's cache
    bool threw_double = false;
    try {
      array.free(r.name);  // parked, not held — must still fail loudly
    } catch (const std::logic_error&) {
      threw_double = true;
    }
    CHECK(threw_double);
    // The parked name comes back as a cache hit...
    const auto again = array.get(rng);
    CHECK(again.name == r.name);
    CHECK(again.probes == 1);
    array.free(again.name);
    // ...and collect() drains the cache: the parked name is logically
    // free, so nothing is held and the shards get their slot back.
    std::vector<std::uint64_t> collected;
    CHECK(array.collect(collected) == 0);
    std::vector<std::uint64_t> inner_names;
    CHECK(array.shard(0).collect(inner_names) == 0);
    CHECK(array.shard(1).collect(inner_names) == 0);
    // Aliases: the '-' spelling resolves to the ':' canonical key.
    CHECK(api::resolve_structure("sharded-level") == "sharded:level");
  }

  // Unknown names throw and the message lists the registry.
  current = "(unknown)";
  bool threw = false;
  try {
    api::resolve_structure("no-such-structure");
  } catch (const std::invalid_argument& e) {
    threw = true;
    const std::string what = e.what();
    CHECK(what.find("level") != std::string::npos);
    CHECK(what.find("splitter") != std::string::npos);
  }
  CHECK(threw);

  if (failures != 0) {
    std::fprintf(stderr, "%d renamer contract check(s) failed\n", failures);
    return 1;
  }
  std::puts("test_renamer_contract: OK");
  return 0;
}
