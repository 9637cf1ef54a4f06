// Unit tests for the checkpoint/restore subsystem (src/ckpt/ +
// api::save/restore): the image wire format and its typed rejection of
// every corruption class, flat and sharded save/restore round-trips,
// the headline cross-configuration restore (sharded:level into
// sharded:linear with 2x shards — re-routed names, exactly reseeded
// gates, double-free still detected), the restore-adjacent
// seed_batch_occupancy edge (a full-capacity image must not overshoot
// the target's gates), the collect()/peek_held() split and its drain
// accounting, the AnyRenamer replace cycle that migration rides on, and
// a live migration of the registry's daemon (svc:sharded:level re-sharded
// into sharded:linear behind its server while a client holds names).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "api/registry.hpp"
#include "api/snapshot.hpp"
#include "arrays/linear_probing_array.hpp"
#include "ckpt/any_renamer.hpp"
#include "ckpt/image.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "svc/service.hpp"

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

// True iff `fn` throws ckpt::ImageError (the typed rejection contract:
// corrupt or misfit images never surface as UB or a generic exception).
template <typename Fn>
bool throws_image_error(Fn&& fn) {
  try {
    fn();
  } catch (const la::ckpt::ImageError&) {
    return true;
  } catch (...) {
    return false;
  }
  return false;
}

using Level = la::core::LevelArray;
using Linear = la::arrays::LinearProbingArray;
using ShardedLevel = la::scale::ShardedRenamer<Level>;
using ShardedLinear = la::scale::ShardedRenamer<Linear>;

ShardedLevel make_sharded_level(std::uint32_t shards,
                                std::uint64_t shard_capacity) {
  la::scale::ShardedConfig config;
  config.shards = shards;
  return ShardedLevel(config, [shard_capacity](std::uint32_t) {
    la::core::LevelArrayConfig inner;
    inner.capacity = shard_capacity;
    return std::make_unique<Level>(inner);
  });
}

ShardedLinear make_sharded_linear(std::uint32_t shards,
                                  std::uint64_t inner_slots,
                                  std::uint64_t shard_capacity) {
  la::scale::ShardedConfig config;
  config.shards = shards;
  return ShardedLinear(config, [inner_slots, shard_capacity](std::uint32_t) {
    return std::make_unique<Linear>(inner_slots, shard_capacity);
  });
}

std::vector<std::uint64_t> sorted_collect(
    const std::vector<std::uint64_t>& raw) {
  std::vector<std::uint64_t> out = raw;
  std::sort(out.begin(), out.end());
  return out;
}

void check_image_roundtrip() {
  current = "image-roundtrip";
  la::ckpt::Image image;
  image.structure = "sharded:level";
  image.capacity = 16;
  image.total_slots = 64;
  image.shards = 2;
  image.shard_stride = 32;
  image.held = {0, 3, 31, 32, 63};

  const std::vector<std::uint8_t> bytes = image.encode();
  const la::ckpt::Image back = la::ckpt::Image::decode(bytes);
  CHECK(back.version == la::ckpt::kImageVersion);
  CHECK(back.structure == image.structure);
  CHECK(back.capacity == image.capacity);
  CHECK(back.total_slots == image.total_slots);
  CHECK(back.shards == image.shards);
  CHECK(back.shard_stride == image.shard_stride);
  CHECK(back.held == image.held);

  // Empty hold set and empty tag are valid images.
  la::ckpt::Image empty;
  empty.capacity = 1;
  empty.total_slots = 2;
  const la::ckpt::Image empty_back = la::ckpt::Image::decode(empty.encode());
  CHECK(empty_back.held.empty());
  CHECK(empty_back.structure.empty());
}

void check_image_rejects_corruption() {
  current = "image-rejects-corruption";
  la::ckpt::Image image;
  image.structure = "level";
  image.capacity = 8;
  image.total_slots = 16;
  image.held = {1, 5, 9};
  const std::vector<std::uint8_t> good = image.encode();
  CHECK(!throws_image_error([&] { (void)la::ckpt::Image::decode(good); }));

  // Truncation, at the header and mid-body.
  CHECK(throws_image_error(
      [&] { (void)la::ckpt::Image::decode(good.data(), 10); }));
  CHECK(throws_image_error(
      [&] { (void)la::ckpt::Image::decode(good.data(), good.size() - 3); }));

  // Bad magic.
  {
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xFF;
    CHECK(throws_image_error([&] { (void)la::ckpt::Image::decode(bad); }));
  }
  // Unsupported version (byte 8) — the CRC is recomputed so the version
  // check, not the checksum, must reject it.
  {
    la::ckpt::Image v2 = image;
    v2.version = 2;
    std::vector<std::uint8_t> bad = v2.encode();
    CHECK(throws_image_error([&] { (void)la::ckpt::Image::decode(bad); }));
  }
  // Flipped payload bit: caught by the CRC.
  {
    std::vector<std::uint8_t> bad = good;
    bad[good.size() - 8] ^= 0x01;
    CHECK(throws_image_error([&] { (void)la::ckpt::Image::decode(bad); }));
  }
  // Flipped CRC byte.
  {
    std::vector<std::uint8_t> bad = good;
    bad[good.size() - 1] ^= 0x01;
    CHECK(throws_image_error([&] { (void)la::ckpt::Image::decode(bad); }));
  }
  // Duplicate and unsorted held names (encode() writes whatever it is
  // given; decode() must reject both).
  {
    la::ckpt::Image dup = image;
    dup.held = {3, 3};
    CHECK(throws_image_error([&] { (void)la::ckpt::Image::decode(dup.encode()); }));
    dup.held = {5, 3};
    CHECK(throws_image_error([&] { (void)la::ckpt::Image::decode(dup.encode()); }));
  }
  // Held name outside the declared geometry, and more holds than the
  // declared capacity.
  {
    la::ckpt::Image oob = image;
    oob.held = {1, 16};
    CHECK(throws_image_error([&] { (void)la::ckpt::Image::decode(oob.encode()); }));
    la::ckpt::Image over = image;
    over.capacity = 2;
    over.held = {1, 2, 3};
    CHECK(throws_image_error(
        [&] { (void)la::ckpt::Image::decode(over.encode()); }));
  }
}

void check_save_restore_flat() {
  current = "save-restore-flat";
  la::core::LevelArrayConfig config;
  config.capacity = 16;
  Level source(config);
  la::rng::MarsagliaXorshift rng(7);
  std::set<std::uint64_t> held;
  for (int i = 0; i < 10; ++i) held.insert(source.get(rng).name);

  const la::ckpt::Image image = la::api::save(source, "level");
  CHECK(image.structure == "level");
  CHECK(image.capacity == source.capacity());
  CHECK(image.total_slots == source.total_slots());
  CHECK(image.shards == 0);
  CHECK(image.held.size() == held.size());
  for (const auto name : image.held) CHECK(held.count(name) == 1);

  // Wire round-trip, then restore into a fresh instance.
  Level target(config);
  la::api::restore(target, la::ckpt::Image::decode(image.encode()));
  std::vector<std::uint64_t> names;
  CHECK(target.collect(names) == held.size());
  for (const auto name : sorted_collect(names)) CHECK(held.count(name) == 1);

  // Adopted names behave like got names: free once fine, twice throws.
  const std::uint64_t name = *held.begin();
  target.free(name);
  bool threw = false;
  try {
    target.free(name);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);

  // Freed capacity is reusable after restore.
  CHECK(target.get(rng).name < target.total_slots());
}

void check_cross_restore_resharding() {
  current = "cross-restore-resharding";
  // Source: sharded:level, 2 shards x capacity 8. Target: sharded:linear,
  // 4 shards whose inner arrays are sized to the source stride, so every
  // name keeps its numeric identity and routes to a valid slot.
  ShardedLevel source = make_sharded_level(2, 8);
  la::rng::MarsagliaXorshift rng(11);
  std::set<std::uint64_t> held;
  for (int i = 0; i < 12; ++i) held.insert(source.get(rng).name);
  const std::uint64_t stride = source.shard_stride();

  const la::ckpt::Image image = la::api::save(source, "sharded:level");
  CHECK(image.shards == 2);
  CHECK(image.shard_stride == stride);
  CHECK(image.held.size() == held.size());

  ShardedLinear target = make_sharded_linear(4, stride, 8);
  CHECK(target.shard_stride() == stride);  // geometry-preserving target
  la::api::restore(target, image);

  // Every held name is held in the target — same numeric names.
  std::vector<std::uint64_t> names;
  CHECK(target.peek_held(names) == held.size());
  for (const auto name : sorted_collect(names)) CHECK(held.count(name) == 1);

  // Gates were reseeded exactly: each shard's reservation equals the
  // count of image names routing to it, and empty shards sit at zero.
  std::vector<std::uint64_t> per_shard(4, 0);
  for (const auto name : held) ++per_shard[name / stride];
  for (std::uint32_t s = 0; s < 4; ++s) {
    CHECK(target.gate_occupancy(s) == per_shard[s]);
  }

  // Double free of an adopted name is still detected through the
  // re-routed path.
  const std::uint64_t name = *held.begin();
  target.free(name);
  bool threw = false;
  try {
    target.free(name);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);

  // The freed name parks in the cache (its gate reservation is the
  // parked capacity); a draining collect returns it to its shard and
  // releases the gate slot.
  std::vector<std::uint64_t> after;
  CHECK(target.collect(after) == held.size() - 1);
  CHECK(target.gate_occupancy(static_cast<std::uint32_t>(name / stride)) ==
        per_shard[name / stride] - 1);
}

void check_capacity_one_and_empty() {
  current = "capacity-one-and-empty";
  la::core::LevelArrayConfig config;
  config.capacity = 1;
  Level source(config);
  la::rng::MarsagliaXorshift rng(3);
  const std::uint64_t name = source.get(rng).name;
  const la::ckpt::Image image = la::api::save(source, "level");
  CHECK(image.held.size() == 1);
  CHECK(image.held[0] == name);

  Level target(config);
  la::api::restore(target, image);
  target.free(name);
  std::vector<std::uint64_t> names;
  CHECK(target.collect(names) == 0);

  // Empty image into a fresh structure: a no-op restore, then normal ops.
  Level empty_source(config);
  const la::ckpt::Image empty = la::api::save(empty_source, "level");
  CHECK(empty.held.empty());
  Level empty_target(config);
  la::api::restore(empty_target, empty);
  CHECK(empty_target.get(rng).name < empty_target.total_slots());
}

void check_restore_rejects_misfits() {
  current = "restore-rejects-misfits";
  la::core::LevelArrayConfig big;
  big.capacity = 16;
  Level source(big);
  la::rng::MarsagliaXorshift rng(5);
  for (int i = 0; i < 12; ++i) (void)source.get(rng);
  const la::ckpt::Image image = la::api::save(source, "level");

  // Too many holds for the target's capacity.
  {
    la::core::LevelArrayConfig small;
    small.capacity = 4;
    Level target(small);
    CHECK(throws_image_error([&] { la::api::restore(target, image); }));
  }
  // A name that does not route to any target slot (flat bound).
  {
    la::ckpt::Image oob = image;
    oob.held.push_back(source.total_slots() + 100);
    oob.total_slots = source.total_slots() + 200;
    Level target(big);
    CHECK(throws_image_error([&] { la::api::restore(target, oob); }));
  }
  // Duplicate name handed straight to restore (bypassing decode).
  {
    la::ckpt::Image dup = image;
    if (dup.held.size() >= 2) dup.held[1] = dup.held[0];
    Level target(big);
    CHECK(throws_image_error([&] { la::api::restore(target, dup); }));
  }
  // Restore target must be empty.
  {
    Level target(big);
    (void)target.get(rng);
    CHECK(throws_image_error([&] { la::api::restore(target, image); }));
  }
  // Per-shard gate overflow: 16 low names all route to shard 0 of a
  // 2-shard target whose gate is 8 — adoption must stop at the gate and
  // surface as ImageError, not oversubscribe the shard.
  {
    Level full_source(big);
    const auto seeded = full_source.seed_batch_occupancy(0, 16);
    CHECK(seeded.size() == 16);
    const la::ckpt::Image low = la::api::save(full_source, "level");
    ShardedLinear target = make_sharded_linear(2, full_source.total_slots(), 8);
    CHECK(throws_image_error([&] { la::api::restore(target, low); }));
  }
}

void check_seed_batch_restore_gate_exactness() {
  current = "seed-batch-restore-gate";
  // The restore-adjacent seed_batch_occupancy edge: seed a source to its
  // full contention bound, restore the image into a sharded target whose
  // gates exactly fit, and verify the gates sit exactly at the bound —
  // no overshoot — so the next Get refuses instead of oversubscribing.
  ShardedLevel source = make_sharded_level(2, 4);
  la::rng::MarsagliaXorshift rng(13);
  std::vector<std::uint64_t> held;
  while (held.size() < source.capacity()) {
    la::GetResult got[4];
    const std::size_t granted = source.get_batch(rng, got, 4);
    for (std::size_t i = 0; i < granted; ++i) held.push_back(got[i].name);
    CHECK(granted != 0);
    if (granted == 0) break;
  }
  const std::uint64_t stride = source.shard_stride();
  const la::ckpt::Image image = la::api::save(source, "sharded:level");
  CHECK(image.held.size() == source.capacity());

  ShardedLinear target = make_sharded_linear(2, stride, 4);
  la::api::restore(target, image);
  CHECK(target.gate_occupancy(0) == 4);
  CHECK(target.gate_occupancy(1) == 4);

  // Saturated: a batch Get must grant nothing, and the refusal's exact
  // refund must leave the gates untouched.
  la::GetResult got[4];
  CHECK(target.get_batch(rng, got, 4) == 0);
  CHECK(target.gate_occupancy(0) == 4);
  CHECK(target.gate_occupancy(1) == 4);

  // One free reopens exactly one slot.
  target.free(image.held[0]);
  CHECK(target.get_batch(rng, got, 4) == 1);
  std::vector<std::uint64_t> names;
  CHECK(target.peek_held(names) == source.capacity());
}

void check_peek_held_vs_collect_drains() {
  current = "peek-held-vs-collect-drains";
  ShardedLevel array = make_sharded_level(2, 8);
  la::rng::MarsagliaXorshift rng(17);
  std::vector<std::uint64_t> names;
  for (int i = 0; i < 10; ++i) names.push_back(array.get(rng).name);
  // Park some frees in the per-thread cache: logically free, so neither
  // peek_held nor collect may report them.
  for (int i = 0; i < 4; ++i) {
    array.free(names.back());
    names.pop_back();
  }

  std::vector<std::uint64_t> peeked;
  CHECK(array.peek_held(peeked) == names.size());
  CHECK(sorted_collect(peeked) == sorted_collect(names));
  auto stats = array.stats();
  CHECK(stats.collect_drains == 0);  // peek_held never drains
  const std::uint64_t drains_before = stats.cache_drains;

  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == names.size());
  CHECK(sorted_collect(collected) == sorted_collect(names));
  stats = array.stats();
  CHECK(stats.collect_drains == 1);  // the forced exactness drain
  CHECK(stats.cache_drains == drains_before);  // counted separately

  for (const auto name : names) array.free(name);
  std::vector<std::uint64_t> empty;
  CHECK(array.collect(empty) == 0);
  CHECK(array.stats().collect_drains == 2);
}

void check_any_renamer_replace_cycle() {
  current = "any-renamer-replace-cycle";
  la::core::LevelArrayConfig config;
  config.capacity = 8;
  la::ckpt::AnyRenamer any(std::make_unique<Level>(config), "level");
  CHECK(any.tag() == "level");
  la::rng::MarsagliaXorshift rng(19);
  std::set<std::uint64_t> held;
  for (int i = 0; i < 6; ++i) held.insert(any.get(rng).name);

  // save/restore through the erased surface, into a differently shaped
  // impl (flat level -> 2-shard linear), then swap it in.
  const la::ckpt::Image image = la::api::save(any, any.tag());
  CHECK(image.held.size() == held.size());
  const std::uint64_t inner_slots = any.total_slots();
  {
    la::scale::ShardedConfig sharded;
    sharded.shards = 2;
    auto target = std::make_unique<ShardedLinear>(
        sharded, [inner_slots](std::uint32_t) {
          return std::make_unique<Linear>(inner_slots, 8);
        });
    la::api::restore(*target, image);
    any.replace(std::move(target), "sharded:linear");
  }
  CHECK(any.tag() == "sharded:linear");

  // The names survive the swap with their identity; frees land.
  std::vector<std::uint64_t> names;
  CHECK(any.collect(names) == held.size());
  for (const auto name : sorted_collect(names)) CHECK(held.count(name) == 1);
  for (const auto name : held) any.free(name);
  names.clear();
  CHECK(any.collect(names) == 0);
}

// The registry's daemon fronts an AnyRenamer, so it can migrate: names
// held through the client before the swap keep their identity in the
// new shape (sharded:level, 4 shards -> sharded:linear, 8 shards at the
// same stride), collect agrees across it, and every one of them frees
// through the client afterwards.
void check_registry_daemon_migrates() {
  current = "registry-daemon-migrates";
  la::api::RenamerConfig config;
  config.capacity = 64;
  config.shards = 4;
  la::api::visit("svc:sharded:level", config, [&](auto& daemon) {
    using S = std::decay_t<decltype(daemon)>;
    if constexpr (std::is_same_v<S, la::svc::ServiceRenamer<ShardedLevel>>) {
      la::rng::MarsagliaXorshift rng(23);
      std::set<std::uint64_t> held;
      for (int i = 0; i < 24; ++i) held.insert(daemon.client().get(rng).name);
      CHECK(held.size() == 24);
      std::vector<std::uint64_t> before;
      CHECK(daemon.collect(before) == held.size());

      std::size_t carried = 0;
      daemon.server().migrate([&](la::ckpt::AnyRenamer& s) {
        const la::ckpt::Image image = la::api::save(s, "sharded:level");
        carried = image.held.size();
        la::scale::ShardedConfig target_config;
        target_config.shards = 2 * config.shards;
        // The erased surface hides the shard stride; the sharded name
        // space is shards x stride.
        const std::uint64_t stride = s.total_slots() / config.shards;
        const std::uint64_t shard_capacity = config.capacity / config.shards;
        auto target = std::make_unique<ShardedLinear>(
            target_config, [stride, shard_capacity](std::uint32_t) {
              return std::make_unique<Linear>(stride, shard_capacity);
            });
        la::api::restore(*target, image);
        s.replace(std::move(target), "sharded:linear");
      });
      CHECK(carried == held.size());
      CHECK(daemon.server_stats().migrations == 1);
      CHECK(daemon.server().error().empty());

      std::vector<std::uint64_t> after;
      CHECK(daemon.collect(after) == held.size());
      CHECK(sorted_collect(after) == sorted_collect(before));
      for (const auto name : held) daemon.client().free(name);
      after.clear();
      CHECK(daemon.collect(after) == 0);
    } else {
      CHECK(false);  // the registry key resolved to another type
    }
  });
}

}  // namespace

int main() {
  check_image_roundtrip();
  check_image_rejects_corruption();
  check_save_restore_flat();
  check_cross_restore_resharding();
  check_capacity_one_and_empty();
  check_restore_rejects_misfits();
  check_seed_batch_restore_gate_exactness();
  check_peek_held_vs_collect_drains();
  check_any_renamer_replace_cycle();
  check_registry_daemon_migrates();

  if (failures == 0) {
    std::printf("test_ckpt: OK\n");
    return 0;
  }
  std::printf("test_ckpt: %d check(s) FAILED\n", failures);
  return 1;
}
