// Shared result shape for every renaming structure's Get. Keeping the
// comparison algorithms behind the same shape is what lets the bench
// drivers template over array types.
#pragma once

#include <cstdint>

namespace la {

struct GetResult {
  std::uint64_t name = 0;          // the acquired slot index / name
  // "trials": probe attempts performed. For the LevelArray this counts
  // the randomized per-batch probes only — the paper's trials metric —
  // not the slots touched by the rare backup sweep, whose cost is
  // reported separately via used_backup / the benches' backup_gets
  // column. Scan-based structures count every slot inspected.
  std::uint32_t probes = 0;
  std::uint32_t deepest_batch = 0; // deepest LevelArray batch probed (0 else)
  bool used_backup = false;        // the walk missed: fell through to the
                                   // backup sweep (random start in batch 0)
};

}  // namespace la
