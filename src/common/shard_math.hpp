// Pure integer arithmetic for sharded per-instance dispatch: how an
// instance's iteration range [1, b] is partitioned into G contiguous shard
// sub-ranges, and which shard a worker calls home.  Kept dependency-free
// (usable from runtime/, audit/, tests and benches alike) so the auditor
// and the unit oracles can recompute shard geometry from first principles
// instead of trusting the runtime's copy — the same closed-form-as-oracle
// discipline the strategy helpers follow.
//
// The partition is the classic balanced split: shard g ∈ [0, G) owns
// floor(b/G) iterations plus one extra if g < b mod G, so sizes differ by at
// most one and the sub-ranges are contiguous and ascending.  (The runtime
// shards only instances with b >= G, so every shard it builds is non-empty;
// the formulas themselves hold for any b.)
#pragma once

#include <algorithm>

#include "common/types.hpp"

namespace selfsched::shard {

/// Hard cap on an instance's shard count (runtime::index_shards_for).
/// Generous for any plausible machine while keeping per-ICB shard arrays
/// small.
inline constexpr u32 kMaxIndexShards = 64;

/// First iteration (1-based, inclusive) owned by shard g of a G-way split
/// of [1, b].
constexpr i64 shard_lo(i64 b, u32 g_count, u32 g) {
  const i64 G = static_cast<i64>(g_count);
  const i64 i = static_cast<i64>(g);
  return i * (b / G) + std::min<i64>(i, b % G) + 1;
}

/// Number of iterations owned by shard g.
constexpr i64 shard_size(i64 b, u32 g_count, u32 g) {
  const i64 G = static_cast<i64>(g_count);
  return b / G + (static_cast<i64>(g) < b % G ? 1 : 0);
}

/// Last iteration (inclusive) owned by shard g.
constexpr i64 shard_hi(i64 b, u32 g_count, u32 g) {
  return shard_lo(b, g_count, g) + shard_size(b, g_count, g) - 1;
}

/// The shard a worker probes first.  Block mapping: consecutive processors
/// share a home shard, processor 0 always homes shard 0, and every shard
/// has at least one home worker when P >= G.
constexpr u32 home_shard_of(ProcId proc, u32 procs, u32 g_count) {
  if (procs == 0) return 0;
  return static_cast<u32>((static_cast<u64>(proc) * g_count) / procs);
}

}  // namespace selfsched::shard
