// The Instance Control Block (§III-A): one entry of a parallel linked list
// in the task pool, representing one active instance of an innermost
// parallel loop.
//
// Field roles (paper names in parentheses):
//   right/left  (right, left)   list linkage, guarded by the list lock
//   loop                        which innermost parallel loop (the paper
//                               implies it by which list the ICB is in; we
//                               store it so a worker can keep scheduling
//                               from a *deleted* ICB it still points to)
//   ivec        (ivec)          index vector of the enclosing loops
//   bound                       loop bound of THIS instance (BOUND(i)
//                               evaluated against ivec at activation time)
//   steps                       dispatch steps N that drain the instance
//   index       (index)         next unscheduled step, starts at 1 (under
//                               self a step is one iteration)
//   icount      (icount)        completed-iteration counter, starts at 0
//   pcount      (pcount)        processors attached to this ICB
//   da_flags                    Doacross post flags, one per iteration
//   step_first                  guided kinds: each step's first iteration
//   shards/sched_done           sharded low-level index — per-shard counters
//                               plus the drained-shard election (extension;
//                               docs/sharding.md)
#pragma once

#include <memory>
#include <vector>

#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "common/shard_math.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "exec/context.hpp"

namespace selfsched::runtime {

/// One shard of a sharded low-level index (runtime::index_shards_for): a
/// private `index` counter plus the contiguous sub-range [lo, hi] of the
/// instance's iteration space this shard owns.  `index` starts at `lo` and
/// is grabbed one iteration at a time ({index <= hi ; Fetch&Add(1)}).
/// lo/hi are plain values: written once in init (published by APPEND, like
/// every other ICB field) and read-only afterwards.  Cache-line aligned so
/// sibling shards — the whole point of sharding — never false-share.
template <exec::ExecutionContext C>
struct alignas(kCacheLine) IcbShard {
  typename C::Sync index;
  i64 lo = 1;
  i64 hi = 0;
};

template <exec::ExecutionContext C>
struct Icb {
  Icb* right = nullptr;
  Icb* left = nullptr;

  LoopId loop = kNoLoop;
  i64 bound = 0;
  /// Dispatch steps that drain this instance, runtime::plan_steps of its
  /// strategy (bound under self).  Plain, like bound.
  i64 steps = 0;
  /// Nesting depth of `loop` — the meaningful prefix of `ivec` (entries past
  /// it are stale scratch from the activator's cursor).  Lets diagnostics
  /// (trace events, audit reports) hash the instance identity consistently.
  Level depth = kMaxDepth;
  IndexVec ivec;

  /// Next unscheduled step, 1-based.  Invariant: once the ICB is
  /// published, index only grows, except for poison_pool's store of
  /// steps+1.  On real cores a failed ctx_claim still adds its increment,
  /// so index may pass steps+1; every reader (dispatch_flat,
  /// icb_has_unscheduled, SEARCH's post-attach re-test, poison_pool) only
  /// compares it against `steps`, so no reader can tell an overshoot from
  /// steps+1.  The same holds for each IcbShard::index against hi.
  typename C::Sync index;
  typename C::Sync icount;
  typename C::Sync pcount;
  std::unique_ptr<typename C::Sync[]> da_flags;
  i64 da_flags_cap = 0;
  /// Guided kinds only: the first iteration of every step, plus bound + 1
  /// at index `steps` (runtime::plan_steps, strategy.hpp).  Written by the
  /// activator before APPEND, read-only afterwards; its capacity survives
  /// recycling like da_flags.
  std::vector<i64> step_first;

  /// Sharded low-level index state (runtime::index_shards_for; see
  /// docs/sharding.md).  `num_shards` is the instance's G (never more than
  /// the bound, so every shard is non-empty); `sched_done` counts shards a
  /// worker has observed drained — the low level is exhausted exactly when
  /// sched_done == num_shards, which replaces the flat `{index <= bound}`
  /// SEARCH pre-test.  Empty when num_shards == 1 (the flat path never
  /// touches any of this).
  std::unique_ptr<IcbShard<C>[]> shards;
  u32 shards_cap = 0;
  u32 num_shards = 1;
  typename C::Sync sched_done;

  /// Prepare for (re)use as an instance of loop `l`.
  ///
  /// Plain writes — safe under the threaded engine because the ICB is never
  /// shared while init runs, and APPEND's list-lock release is the publish
  /// point.  The happens-before chain across a recycle is:
  ///
  ///   previous generation's attachers' last field accesses
  ///     -> their {pcount ; Decrement} detaches            (atomic RMW)
  ///     -> the releaser's successful {pcount == 1 ; Decrement}
  ///     -> IcbPool::release's lock release / acquire's lock acquire
  ///     -> init's plain writes (this function; sole owner)
  ///     -> APPEND's list-lock release                      (publish)
  ///     -> a searcher's list-lock acquire before it can see the ICB.
  ///
  /// Every edge is an acquire/release (or stronger) pair on the same
  /// synchronization variable, so no reader of the new generation can
  /// observe a stale `steps` or `da_flags` value from the previous one.
  /// The ICB-recycling stress test in test_scheduler_threads.cpp exercises
  /// this chain under TSan with both recycled fields.
  void init(LoopId l, i64 b, i64 n_steps, const IndexVec& iv,
            bool needs_da_flags, Level dep = kMaxDepth, u32 index_shards = 1) {
    SS_DCHECK(b >= 1);
    SS_DCHECK(n_steps >= 1 && n_steps <= b);
    SS_DCHECK(index_shards >= 1 && index_shards <= shard::kMaxIndexShards);
    SS_DCHECK(index_shards == 1 || static_cast<i64>(index_shards) <= b);
    right = left = nullptr;
    loop = l;
    bound = b;
    steps = n_steps;
    depth = dep;
    ivec = iv;
    index.reset(1);
    icount.reset(0);
    pcount.reset(0);
    num_shards = index_shards;
    sched_done.reset(0);
    if (index_shards > 1) {
      if (shards_cap < index_shards) {
        shards = std::make_unique<IcbShard<C>[]>(index_shards);
        shards_cap = index_shards;
      }
      for (u32 g = 0; g < index_shards; ++g) {
        IcbShard<C>& sh = shards[g];
        sh.lo = shard::shard_lo(b, index_shards, g);
        sh.hi = shard::shard_hi(b, index_shards, g);
        sh.index.reset(sh.lo);
      }
    }
    if (needs_da_flags) {
      if (da_flags_cap < b + 1) {
        da_flags = std::make_unique<typename C::Sync[]>(
            static_cast<std::size_t>(b + 1));
        da_flags_cap = b + 1;
      } else {
        for (i64 j = 0; j <= b; ++j) da_flags[j].reset(0);
      }
    }
  }
};

}  // namespace selfsched::runtime
