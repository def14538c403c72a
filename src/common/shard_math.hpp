// Pure integer arithmetic for sharded per-instance dispatch: how an
// instance's iteration range [1, b] is partitioned into G contiguous shard
// sub-ranges, which shard a worker calls home, and which topology group a
// shard's counters live in.  Kept dependency-free (usable from runtime/,
// audit/, tests and benches alike) so the auditor and the unit oracles can
// recompute shard geometry from first principles instead of trusting the
// runtime's copy — the same closed-form-as-oracle discipline the strategy
// helpers follow.
//
// The partition is the classic balanced split: shard g ∈ [0, G) owns
// floor(b/G) iterations plus one extra if g < b mod G, so sizes differ by at
// most one and the sub-ranges are contiguous and ascending.  Shards with
// lo > hi (possible when b < G) are *empty*: they are never granted from and
// never participate in the completion election; `live_shards(b, G)` counts
// the rest.
#pragma once

#include <algorithm>

#include "common/types.hpp"

namespace selfsched::shard {

/// Hard cap on SchedOptions::index_shards.  Generous for any plausible
/// machine topology while keeping per-ICB shard arrays small.
inline constexpr u32 kMaxIndexShards = 64;

/// First iteration (1-based, inclusive) owned by shard g of a G-way split
/// of [1, b].
constexpr i64 shard_lo(i64 b, u32 g_count, u32 g) {
  const i64 G = static_cast<i64>(g_count);
  const i64 i = static_cast<i64>(g);
  return i * (b / G) + std::min<i64>(i, b % G) + 1;
}

/// Number of iterations owned by shard g.  Zero for empty shards.
constexpr i64 shard_size(i64 b, u32 g_count, u32 g) {
  const i64 G = static_cast<i64>(g_count);
  return b / G + (static_cast<i64>(g) < b % G ? 1 : 0);
}

/// Last iteration (inclusive) owned by shard g; lo-1 when the shard is
/// empty, so empty shards satisfy lo > hi.
constexpr i64 shard_hi(i64 b, u32 g_count, u32 g) {
  return shard_lo(b, g_count, g) + shard_size(b, g_count, g) - 1;
}

/// Number of non-empty shards in a G-way split of [1, b].  Only these
/// participate in the drained-shard completion election.
constexpr u32 live_shards(i64 b, u32 g_count) {
  return static_cast<u32>(std::min<i64>(b, static_cast<i64>(g_count)));
}

/// The shard a worker probes first.  Block mapping: consecutive processors
/// share a home shard, processor 0 always homes shard 0, and every shard
/// has at least one home worker when P >= G.  (Doacross instances never
/// shard: a chain would need a worker homed on shard 0 to start it, and a
/// served namespace need not have one; docs/sharding.md.)
constexpr u32 home_shard_of(ProcId proc, u32 procs, u32 g_count) {
  if (procs == 0) return 0;
  return static_cast<u32>((static_cast<u64>(proc) * g_count) / procs);
}

/// Workers per shard under the block mapping (rounded up) — the effective
/// "P" a per-shard chunk rule sees, so e.g. GSS's remaining/P division
/// reflects the contenders on that shard rather than the whole machine.
constexpr u32 shard_procs(u32 procs, u32 g_count) {
  if (g_count == 0) return procs;
  return (procs + g_count - 1) / g_count;
}

/// Topology group (socket / NUMA node in the cost model) of a processor
/// under a T-group block mapping.
constexpr u32 topo_group_of(ProcId proc, u32 procs, u32 topo_groups) {
  if (procs == 0 || topo_groups == 0) return 0;
  return static_cast<u32>((static_cast<u64>(proc) * topo_groups) / procs);
}

/// Topology group that shard g's counters are homed in.  With G = 1 (the
/// flat index) this is group 0: the single counter lives on one node and
/// every other group pays the cross-group premium to touch it.
constexpr u32 shard_home_group(u32 g, u32 g_count, u32 topo_groups) {
  if (g_count == 0 || topo_groups == 0) return 0;
  return static_cast<u32>((static_cast<u64>(g) * topo_groups) / g_count);
}

}  // namespace selfsched::shard
