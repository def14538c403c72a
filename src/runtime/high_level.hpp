// High-level self-scheduling (§III-C): SEARCH (Algorithm 4), EXIT
// (Algorithm 5) and ENTER (Algorithm 6), plus the shared scheduler state
// they operate on.  All three are templated over the execution context and
// contain the complete activation semantics of general parallel nested
// loops: construct sequencing (`next`), barrier counting for enclosing
// parallel loops, serial-loop continuation, and IF-THEN-ELSE guard chains.
#pragma once

#include <algorithm>
#include <cstddef>

#include "audit/hooks.hpp"
#include "common/check.hpp"
#include "exec/context.hpp"
#include "program/tables.hpp"
#include "runtime/bar_count.hpp"
#include "runtime/ctx_sync.hpp"
#include "runtime/fault.hpp"
#include "runtime/icb_pool.hpp"
#include "runtime/options.hpp"
#include "runtime/task_pool.hpp"
#include "trace/recorder.hpp"

namespace selfsched::runtime {

/// Shared state of one scheduled program execution.
template <exec::ExecutionContext C>
struct SchedState {
  SchedState(const program::CompiledProgram& p, const SchedOptions& o)
      : prog(&p),
        opts(o),
        pool(o.central_queue ? 1u : p.num_loops()),
        bars(o.bar_buckets) {
    outstanding.reset(0);
    done.reset(0);
    cancel.claim.reset(0);
    cancel.latch.reset(0);
  }

  /// Forward the host-quiescence token (see ProgramRun): revoked while
  /// workers are live, granted once they have joined, so the host-side
  /// accessors of the three shared structures cannot silently race them.
  void set_host_quiescent(bool q) {
    pool.set_host_quiescent(q);
    icbs.set_host_quiescent(q);
    bars.set_host_quiescent(q);
  }

  /// The task-pool list that holds the instances of loop i: list i, or
  /// the single list of the central-queue ablation.
  u32 list_of(LoopId i) const { return opts.central_queue ? 0 : i; }

  const program::CompiledProgram* prog;
  SchedOptions opts;
  TaskPool<C> pool;
  IcbPool<C> icbs;
  BarCountTable<C> bars;

  /// Activated-but-not-yet-released instance count; reaching 0 after
  /// seeding is the stable all-done condition (successor ICBs are appended
  /// *before* the completed instance is released, so the count cannot dip
  /// to 0 while work remains).
  typename C::Sync outstanding;
  typename C::Sync done;

  /// Shared cancellation state (claim/latch election, failure record,
  /// deadlines); see the protocol functions below and docs/robustness.md.
  fault::CancelState<typename C::Sync> cancel;
};

/// A worker's view of the instance it is currently scheduling from
/// (Algorithm 3's local variables i, ip, b, loc_indexes), plus the
/// persistent SEARCH state that survives across dispatch cycles: the
/// rotating SW scan origin and the last list this worker attached to.
template <exec::ExecutionContext C>
struct WorkerCursor {
  /// Sentinel for search_origin ("not yet seeded") and last_list ("none").
  static constexpr u32 kNoList = CtxControlWord<C>::kEmpty;

  LoopId i = kNoLoop;
  Icb<C>* ip = nullptr;
  i64 b = 0;
  IndexVec ivec;

  /// Where this worker's leading-one-detection starts.  Seeded to the
  /// worker's home list (shard::home_shard_of over the m lists) on first
  /// SEARCH so the team fans out across the lists, then rotated past lists
  /// the worker just contended on.
  u32 search_origin = kNoList;
  /// Last list this worker attached to (or appended its instance to):
  /// probed first on the next SEARCH — its ICB and lock are likely still
  /// in this worker's cache, and distinct workers prefer distinct lists.
  u32 last_list = kNoList;
};

/// Simulated per-level cost helper.
template <exec::ExecutionContext C>
inline void charge_cost(C& ctx, Cycles vtime::CostModel::* member) {
  if constexpr (C::kIsSimulated) ctx.charge(ctx.costs().*member);
  (void)ctx;
  (void)member;
}

/// Evaluate a (possibly index-dependent) bound; charges the simulated
/// expression-evaluation cost only for non-constant bounds.  Constant
/// bounds are validated at program-compile time (program/normalize.cpp),
/// but this check stays on in release builds too: a raw CompiledProgram
/// assembled without the normalizer would otherwise feed a negative trip
/// count straight into Icb::init and BAR_COUNT, whose SS_DCHECKs vanish
/// under NDEBUG.  The branch is host-side — no charge, no sync op — so the
/// vtime replay is untouched.
template <exec::ExecutionContext C>
inline i64 eval_bound(C& ctx, const program::Bound& bound,
                      const IndexVec& ivec) {
  if (bound.is_constant()) {
    SS_CHECK_MSG(bound.constant >= 0,
                 "constant loop bound is negative (program bypassed "
                 "compile-time validation)");
    return bound.constant;
  }
  charge_cost<C>(ctx, &vtime::CostModel::bound_eval);
  const i64 b = bound.eval(ivec);
  SS_CHECK_MSG(b >= 0, "loop bound expression evaluated to a negative value");
  return b;
}

// ---------------------------------------------------------------------------
// Structured cancellation (docs/robustness.md).
//
// One failure — a throwing body, an armed fault, an expired deadline —
// quiesces the whole nest:
//   1. the failing worker claims the failure record (`cancel.claim`, an
//      engine-serialized {== 0 ; Increment} election) and initiates
//      cancellation (`cancel.latch`, same election): store done := 1 and
//      poison every pooled instance's low-level index word to steps+1;
//   2. every grab loop fails against the poisoned index (every portfolio
//      strategy grabs with the {index <= steps} claim), so workers detach
//      and fall into SEARCH, which already polls `done` each round and
//      exits;
//   3. blocking regions (Doacross post-waits, teardown pcount drains,
//      injected stalls) poll `done` per spin round — `done != 0` while the
//      polling worker still holds an unreleased instance can only mean
//      cancellation, because normal termination requires `outstanding` to
//      reach 0 first;
//   4. after the team joins, the runner's host-side drain_cancelled()
//      reclaims every orphaned ICB and BAR_COUNT chain so the auditor's
//      conservation rules hold for cancelled runs too.
// The healthy path pays nothing: no extra synchronization instructions
// outside spin rounds, and the poisoned-index encoding reuses the grab
// loop's existing bound test.  Cancellation signals exclusively through
// engine-serialized sync variables, so cancelled vtime runs replay
// bit-identically; the `cancel.cancelled` host mirror is read mid-run only
// by threaded workers (fast abort between body iterations).
// ---------------------------------------------------------------------------

/// Fast host-side cancellation probe for the threaded engine.  Constant
/// false under vtime: virtual workers observe cancellation only through
/// sync variables, keeping cancelled runs bit-replayable.
template <exec::ExecutionContext C>
inline bool cancelled_fast(C& ctx, const SchedState<C>& st) {
  (void)ctx;
  if constexpr (C::kIsSimulated) {
    (void)st;
    return false;
  } else {
    return st.cancel.cancelled.load(std::memory_order_relaxed) != 0;
  }
}

/// Engine-serialized cancellation probe for spin loops whose worker still
/// holds an unreleased instance (Doacross post-waits, teardown drains,
/// injected stalls): there, `done != 0` can only mean cancellation.
template <exec::ExecutionContext C>
inline bool cancel_requested(C& ctx, SchedState<C>& st) {
  return ctx.sync_op(st.done, Test::kNE, 0, Op::kFetch).success;
}

/// Poison every pooled instance's index word to steps+1 so all further
/// {index <= steps ; Fetch&Add} grabs fail — every flat grab is gated that
/// way.  Instances already fully scheduled (index past steps) are
/// unchanged in behavior.
/// Sharded instances get every shard's index poisoned past its own
/// sub-range the same way; `sched_done` is deliberately NOT forged — an
/// in-flight final grant may still legitimately win the completion
/// election, and post-cancel searchers that attach to a drained-looking
/// sharded instance just fail every probe and detach (bounded by the
/// `done` check SEARCH makes each round).
template <exec::ExecutionContext C>
void poison_pool(C& ctx, SchedState<C>& st) {
  for (u32 i = 0; i < st.pool.num_lists(); ++i) {
    ctx_lock(ctx, st.pool.list_lock(i));
    for (Icb<C>* ip = st.pool.list_head(i); ip != nullptr; ip = ip->right) {
      ctx.sync_op(ip->index, Test::kNone, 0, Op::kStore, ip->steps + 1);
      if (ip->num_shards > 1) {
        for (u32 g = 0; g < ip->num_shards; ++g) {
          IcbShard<C>& sh = ip->shards[g];
          ctx.sync_op(sh.index, Test::kNone, 0, Op::kStore, sh.hi + 1);
        }
      }
    }
    ctx_unlock(ctx, st.pool.list_lock(i));
  }
}

/// Claim the failure record; true iff this worker is the (deterministic,
/// under vtime) first claimant and now owns writing st.cancel.record.
template <exec::ExecutionContext C>
inline bool claim_failure_record(C& ctx, SchedState<C>& st) {
  return ctx.sync_op(st.cancel.claim, Test::kEQ, 0, Op::kIncrement).success;
}

/// Fill the failure record (call only after winning claim_failure_record).
template <exec::ExecutionContext C>
void write_failure_record(C& ctx, SchedState<C>& st,
                          fault::FailureRecord::Kind kind, LoopId loop,
                          const IndexVec& ivec, u32 depth, i64 j,
                          std::string message, std::exception_ptr eptr) {
  fault::FailureRecord& rec = st.cancel.record;
  rec.kind = kind;
  rec.loop = loop;
  rec.ivec.clear();
  for (u32 k = 0; k < depth; ++k) rec.ivec.push_back(ivec[k]);
  rec.iteration = j;
  rec.worker = ctx.proc();
  rec.message = std::move(message);
  rec.exception = std::move(eptr);
}

/// Initiate cancellation (idempotent via the latch election); true iff this
/// call won and actually cancelled the run.
template <exec::ExecutionContext C>
bool initiate_cancel(C& ctx, SchedState<C>& st) {
  if (!ctx.sync_op(st.cancel.latch, Test::kEQ, 0, Op::kIncrement).success) {
    return false;
  }
  st.cancel.cancelled.store(1, std::memory_order_release);
  trace::bump(ctx, &trace::Counters::cancellations);
  audit::on_cancel(ctx);
  // done := 1 ends SEARCH everywhere.  Deliberately NOT audit::on_terminate:
  // post-cancel completers may legitimately still publish successor ICBs.
  ctx.sync_op(st.done, Test::kNone, 0, Op::kStore, 1);
  poison_pool(ctx, st);
  return true;
}

/// Record a failure observed at a body point and cancel the run.
template <exec::ExecutionContext C>
void fail_run(C& ctx, SchedState<C>& st, fault::FailureRecord::Kind kind,
              LoopId loop, const IndexVec& ivec, u32 depth, i64 j,
              std::string message, std::exception_ptr eptr) {
  if (claim_failure_record(ctx, st)) {
    write_failure_record(ctx, st, kind, loop, ivec, depth, j,
                         std::move(message), std::move(eptr));
  }
  initiate_cancel(ctx, st);
}

/// Has the armed deadline passed?  vtime: deterministic virtual-clock
/// comparison (free — no sync op).  Threads: host steady clock.
template <exec::ExecutionContext C>
inline bool deadline_expired(C& ctx, const SchedState<C>& st) {
  if constexpr (C::kIsSimulated) {
    return st.cancel.vdeadline > 0 && ctx.now() > st.cancel.vdeadline;
  } else {
    (void)ctx;
    return st.cancel.host_deadline_armed &&
           std::chrono::steady_clock::now() > st.cancel.host_deadline;
  }
}

/// Has the stall watchdog's budget elapsed since the last progress mark?
/// Disarmed (budget 0): constant false, no reads, bit-equal to the
/// pre-watchdog path.  vtime: virtual-clock comparison against the mark.
/// Threads: host steady clock against the mark; no window is open (mark
/// 0) until seed_program opens the first one.
template <exec::ExecutionContext C>
inline bool watchdog_expired(C& ctx, const SchedState<C>& st) {
  if constexpr (C::kIsSimulated) {
    return st.cancel.stall_vcycles > 0 &&
           ctx.now() >
               st.cancel.watch_vt.load(std::memory_order_relaxed) +
                   st.cancel.stall_vcycles;
  } else {
    (void)ctx;
    if (st.cancel.stall_ns <= 0) return false;
    const i64 mark = st.cancel.watch_host.load(std::memory_order_relaxed);
    return mark != 0 && fault::host_now_ns() - mark > st.cancel.stall_ns;
  }
}

/// Mark namespace progress for the stall watchdog.  Called at chunk
/// completion (the unit the paper's overhead analysis accounts in, and the
/// only point where the namespace provably advanced) — after every chunk,
/// even on threads, where the icount update itself is deferred.
/// A disarmed watchdog skips the write entirely, and an armed one adds no
/// sync op, so the vtime trajectory is unchanged either way.
template <exec::ExecutionContext C>
inline void watchdog_progress(C& ctx, SchedState<C>& st) {
  if constexpr (C::kIsSimulated) {
    if (st.cancel.stall_vcycles > 0) {
      st.cancel.watch_vt.store(ctx.now(), std::memory_order_relaxed);
    }
  } else {
    (void)ctx;
    if (st.cancel.stall_ns > 0) {
      st.cancel.watch_host.store(fault::host_now_ns(),
                                 std::memory_order_relaxed);
    }
  }
}

/// Deadline + stall-watchdog probe for SEARCH and the blocking spin loops:
/// free until a deadline passes or the watchdog's budget runs dry; then
/// claims the record (unless a richer failure — e.g. an injected stall's —
/// already did) and cancels.  Losers keep re-running the elections until
/// `done` ends their spin, which is bounded and, under vtime,
/// deterministic.  A wedged worker polls this from its own spin loop, so a
/// watchdog rescue needs no external delivery: the namespace rescues
/// itself through the existing poison/drain machinery.
template <exec::ExecutionContext C>
void deadline_check(C& ctx, SchedState<C>& st) {
  static const IndexVec kEmpty;
  if (deadline_expired(ctx, st)) {
    if (cancelled_fast(ctx, st)) return;  // threaded fast path
    if (claim_failure_record(ctx, st)) {
      write_failure_record(ctx, st, fault::FailureRecord::Kind::kDeadline,
                           kNoLoop, kEmpty, 0, -1, "deadline expired",
                           nullptr);
    }
    if (initiate_cancel(ctx, st)) {
      trace::bump(ctx, &trace::Counters::deadline_expirations);
    }
    return;
  }
  if (watchdog_expired(ctx, st)) {
    if (cancelled_fast(ctx, st)) return;  // threaded fast path
    if (claim_failure_record(ctx, st)) {
      write_failure_record(ctx, st, fault::FailureRecord::Kind::kWatchdog,
                           kNoLoop, kEmpty, 0, -1,
                           "stall watchdog: no chunk completed within budget",
                           nullptr);
    }
    if (initiate_cancel(ctx, st)) {
      trace::bump(ctx, &trace::Counters::serve_watchdog_rescues);
    }
  }
}

/// Abort probe between body iterations: no sync ops on the healthy path.
/// Threaded workers abort on the host mirror; both engines abort on a
/// (locally detected, deterministic under vtime) expired deadline or
/// drained watchdog budget.
template <exec::ExecutionContext C>
inline bool body_cancel_point(C& ctx, SchedState<C>& st) {
  if (cancelled_fast(ctx, st)) return true;
  if (deadline_expired(ctx, st) || watchdog_expired(ctx, st)) {
    deadline_check(ctx, st);
    return true;
  }
  return false;
}

/// Host-side reclamation of everything a cancelled run left behind:
/// task-pool lists, orphaned ICBs (in-pool and removed-but-unreleased), and
/// live BAR_COUNT chains.  Call only after every worker has joined.  Feeds
/// the auditor's drain transitions so its conservation rules hold for
/// cancelled runs.  Returns the number of ICBs reclaimed (the caller
/// settles `outstanding` with it).
template <exec::ExecutionContext C>
u64 drain_cancelled(SchedState<C>& st, audit::Auditor* auditor) {
  st.pool.host_clear();
  u64 drained = 0;
  st.icbs.host_drain([&](Icb<C>* p) {
    ++drained;
    if (auditor != nullptr) auditor->on_drain_release(p);
    (void)p;
  });
  const u64 bars = st.bars.host_clear();
  if (auditor != nullptr) auditor->on_drain_bars(bars);
  st.outstanding.reset(audit::sync_peek(st.outstanding) -
                       static_cast<i64>(drained));
  return drained;
}

// ---------------------------------------------------------------------------
// EXIT — Algorithm 5, generalized to start from an arbitrary level.
//
// exit_from(st, i, from_level, ivec) treats "the construct directly inside
// the level-`from_level` loop on i's path" as completed and walks upward:
//   * not the last construct at this level  -> return the level (successor
//     is DESCRPT_i(level).next, activated by the caller via ENTER);
//   * last inside a parallel loop           -> count the barrier; if it has
//     not tripped, return 0; else continue one level up;
//   * last inside a serial loop             -> if iterations remain,
//     increment the serial index in ivec and return the level (next is the
//     body entry, cyclically); else continue one level up;
//   * level 0                               -> return 0 (whole nest done).
// The paper's EXIT(i, ivec) is exit_from(i, DEPTH(i), ivec); the arbitrary
// start level also serves skipped IF constructs and zero-trip loops.
// ---------------------------------------------------------------------------
template <exec::ExecutionContext C>
Level exit_from(C& ctx, SchedState<C>& st, LoopId i, Level from_level,
                IndexVec& ivec) {
  const program::InnermostDesc& d = st.prog->loops[i];
  SS_DCHECK(from_level <= d.depth);
  ctx.stats().exits++;
  for (Level lvl = from_level; lvl >= 1; --lvl) {
    const program::LevelDesc& row = d.at_level(lvl);
    charge_cost<C>(ctx, &vtime::CostModel::descrpt_step);
    if (!row.last) return lvl;
    const i64 bound = eval_bound(ctx, row.bound, ivec);
    if (row.parallel) {
      const bool tripped = st.bars.increment_and_check(
          ctx, row.loop_uid, /*prefix_len=*/lvl - 1, ivec, bound);
      if (!tripped) return 0;
      // Barrier tripped: the whole level-lvl loop instance completed;
      // continue the walk one level up.
    } else {
      if (ivec[lvl - 1] < bound) {
        ivec[lvl - 1] += 1;  // next iteration of the serial loop
        return lvl;          // successor: row.next (the body entry, cyclic)
      }
      // Serial loop exhausted; continue the walk one level up.
    }
  }
  return 0;  // walked past the wrapper: the whole nest is complete
}

// ---------------------------------------------------------------------------
// ENTER — Algorithm 6.
//
// enter(st, cur, level, ivec) activates instances of innermost loop `cur`,
// whose enclosing index vector is fixed through `level` levels:
//   1. evaluate cur's guard chain at `level` (IF-THEN-ELSE constructs):
//      FALSE with a FALSE branch   -> switch cur to the branch entry and
//                                     resume its chain past the shared
//                                     prefix;
//      FALSE with no FALSE branch  -> the construct completes vacuously:
//                                     run the EXIT walk from `level` and
//                                     re-enter at the successor, or stop;
//   2. level == DEPTH(cur)         -> evaluate BOUND(cur); create+publish
//                                     an ICB (or treat a zero-trip instance
//                                     as vacuously complete);
//   3. otherwise descend:          -> parallel child loop: recursively
//                                     activate all M index values (M
//                                     instances, Fig. 8(b)); zero-trip
//                                     loops complete vacuously; serial
//                                     child loop: activate index 1 only.
// ---------------------------------------------------------------------------

/// Fewest iterations per worker at which a `self` Doall instance gets one
/// index shard per worker.  Set from the crossover sweep
/// BM_EndToEnd_FlatLoopPerIteration in bench/bench_overheads.cpp (COST 100,
/// b = 256 … 65536; EXPERIMENTS.md E8): on a 4-vCPU Xeon VM at P = 4, G = P
/// beat the flat index on 9 and 8 of 10 paired runs at b = 256 in two
/// sweeps, and on 9 or 10 of 10 at every b >= 512.  512 is the smallest
/// bound that passed 9 of 10 in both, so 512 / 4 per worker.
inline constexpr i64 kShardMinItersPerWorker = 128;

/// How many index shards ENTER gives an instance of `b` iterations under
/// Doall strategy `s`.  One rule on both engines:
///   * Doacross instances keep the flat index.  Their liveness needs the
///     chain's head iteration to be grabbed first, and with shards only a
///     worker homed on shard 0 does that — a served namespace need not
///     have one (docs/sharding.md, "Doacross liveness").
///   * A `self` Doall with at least kShardMinItersPerWorker iterations per
///     worker, and P >= 2, gets G = min(P, shard::kMaxIndexShards), so each
///     grab is a fetch&add on the worker's own shard line.
///   * Every other instance keeps the flat index.  `self` is the only kind
///     the crossover sweep measured.  (The step-sized kinds must: at G = P a
///     shard has one home worker, whose first grab would take its whole
///     shard — a static block schedule.)
template <exec::ExecutionContext C>
u32 index_shards_for(C& ctx, const Strategy& s, bool doacross, i64 b) {
  const u32 procs = std::min(ctx.num_procs(), shard::kMaxIndexShards);
  if (doacross || s.kind != Strategy::Kind::kSelf || procs < 2 ||
      b < kShardMinItersPerWorker * static_cast<i64>(procs)) {
    return 1;
  }
  return procs;
}

template <exec::ExecutionContext C>
void enter(C& ctx, SchedState<C>& st, LoopId cur, Level level,
           IndexVec& ivec) {
  const program::CompiledProgram& prog = *st.prog;

  for (;;) {
    const program::InnermostDesc* d = &prog.loops[cur];
    SS_DCHECK(level <= d->depth);

    // --- 1. guard-chain evaluation at `level` ---
    if (level >= 1) {
      const program::LevelDesc* row = &d->at_level(level);
      u32 gi = 0;
      bool moved = false;  // jumped to a successor; restart the outer loop
      while (gi < row->guards.size()) {
        const program::Guard& g = row->guards[gi];
        charge_cost<C>(ctx, &vtime::CostModel::cond_eval);
        if (g.cond(ivec)) {
          ++gi;
          continue;
        }
        if (g.altern != kNoLoop) {
          cur = g.altern;
          d = &prog.loops[cur];
          row = &d->at_level(level);
          gi = g.altern_start;
          continue;
        }
        // Condition FALSE, FALSE branch empty: THIS guard's IF construct
        // completes without executing.  If further constructs follow it in
        // its enclosing chain (possibly inside an outer THEN branch),
        // activation proceeds there.
        if (!g.skip_last) {
          cur = g.skip_next;
          SS_DCHECK(cur != kNoLoop);
          moved = true;
          break;
        }
        // The skipped IF was the last construct of the level-`level` loop
        // body: one iteration of that loop completed vacuously.  This is
        // the first step of the EXIT walk, performed here explicitly
        // because cur's own DESCRPT row at `level` describes cur's (possibly
        // inner, non-last) element, not the skipped IF's position.
        {
          const program::LevelDesc& lrow = d->at_level(level);
          const i64 lbound = eval_bound(ctx, lrow.bound, ivec);
          if (lrow.parallel) {
            if (!st.bars.increment_and_check(ctx, lrow.loop_uid, level - 1,
                                             ivec, lbound)) {
              return;  // other iterations of the loop still outstanding
            }
          } else if (ivec[level - 1] < lbound) {
            ivec[level - 1] += 1;
            cur = g.skip_next;  // entry of the next serial iteration
            SS_DCHECK(cur != kNoLoop);
            moved = true;
            break;
          }
          // The level-`level` loop itself finished; resume the normal walk
          // one level up (rows above `level` are shared by the whole
          // construct chain, so exit_from applies unchanged).
          const Level lev = exit_from(ctx, st, cur, level - 1, ivec);
          if (lev == 0) return;
          cur = d->at_level(lev).next;
          SS_DCHECK(cur != kNoLoop);
          level = lev;
          moved = true;
          break;
        }
      }
      if (moved) continue;
    }

    // --- 2. reached the innermost loop: create and publish the ICB ---
    if (level == d->depth) {
      const i64 b = eval_bound(ctx, d->bound, ivec);
      if (b == 0) {
        // Zero-trip instance: vacuously complete.
        const Level lev = exit_from(ctx, st, cur, level, ivec);
        if (lev == 0) return;
        cur = d->at_level(lev).next;
        SS_DCHECK(cur != kNoLoop);
        level = lev;
        continue;
      }
      const Cycles te = trace::event_begin(ctx);
      charge_cost<C>(ctx, &vtime::CostModel::icb_alloc);
      if constexpr (C::kIsSimulated) {
        ctx.charge(ctx.costs().ivec_copy_per_level *
                   static_cast<Cycles>(d->depth));
      }
      Icb<C>* icb = st.icbs.acquire(ctx);
      const bool doacross = d->doacross.has_value();
      const Strategy& strat =
          doacross ? st.opts.doacross_strategy : st.opts.strategy;
      icb->init(cur, b, step_count(strat, b, ctx.num_procs()), ivec,
                doacross, d->depth,
                index_shards_for(ctx, st.opts.strategy, doacross, b));
      ctx.sync_op(st.outstanding, Test::kNone, 0, Op::kIncrement);
      st.pool.append(ctx, st.list_of(cur), icb);
      ctx.stats().enters++;
      trace::event_end(ctx, te, trace::EventKind::kEnter, cur,
                       trace::ivec_hash(ivec, d->depth), 1, b);
      return;
    }

    // --- 3. descend one level ---
    const Level child = level + 1;
    const program::LevelDesc& crow = d->at_level(child);
    const i64 m = eval_bound(ctx, crow.bound, ivec);
    if (m == 0) {
      // Zero-trip child loop: the construct completes vacuously at `level`.
      const Level lev = exit_from(ctx, st, cur, level, ivec);
      if (lev == 0) return;
      cur = d->at_level(lev).next;
      SS_DCHECK(cur != kNoLoop);
      level = lev;
      continue;
    }
    if (crow.parallel) {
      // Fig. 8(b): M sibling instances, one per index value.
      for (i64 k = 1; k <= m; ++k) {
        ivec[child - 1] = k;
        enter(ctx, st, cur, child, ivec);
      }
      return;
    }
    // Serial child loop: only its first iteration is activated now; EXIT
    // advances it when each iteration's body completes.
    ivec[child - 1] = 1;
    level = child;
  }
}

/// Why SEARCH ended.  kYield exists for resident services (src/serve/):
/// a detached worker may leave the namespace between probe rounds to be
/// rescheduled onto another program; the namespace's own state is unchanged
/// (a yielding searcher holds no attachment, no lock, no grabbed work).
enum class SearchOutcome : u32 {
  kAttached,  // cursor points at an instance this worker is attached to
  kDone,      // the program terminated (or was cancelled); worker drains out
  kYield,     // the yield predicate fired while detached
};

/// SEARCH's "unscheduled iterations remain" probe — one sync op either way.
/// Flat: the paper's {index <= bound ; Fetch}, with the step count as the
/// bound.  Sharded: the flat index is unused, and no single shard index can
/// answer for the whole instance, so probe the drained-shard election
/// counter instead: {sched_done < num_shards ; Fetch} is false exactly when
/// every shard's final iteration has been granted.
template <exec::ExecutionContext C>
inline bool icb_has_unscheduled(C& ctx, Icb<C>* ip) {
  if (ip->num_shards > 1) {
    return ctx
        .sync_op(ip->sched_done, Test::kLT, static_cast<i64>(ip->num_shards),
                 Op::kFetch)
        .success;
  }
  return ctx.sync_op(ip->index, Test::kLE, ip->steps, Op::kFetch).success;
}

// ---------------------------------------------------------------------------
// SEARCH — Algorithm 4, with two refinements over the paper's
// scan-from-bit-0 discipline (EXPERIMENTS.md E12 measures both on real
// cores):
//
//   * rotating cursor: each worker's leading-one-detection starts at its
//     persistent cursor.search_origin (seeded at the worker's home list
//     shard::home_shard_of(worker_id, P, m), advanced past any list the
//     worker just contended on), so P searchers spread across the
//     non-empty lists instead of convoying on the lowest bit;
//   * local-list-first: the list the worker last attached to is re-probed
//     with a single-bit test before any SW scan — consecutive dispatch
//     cycles on the same loop stay on a cache-warm list.
//
// Locking discipline per the paper: try-lock the selected list (on
// failure, re-probe SW rather than wait); re-test SW(i) under the lock;
// clear SW(i) while walking so other searchers divert to other lists;
// restore it before unlocking.
// ---------------------------------------------------------------------------
template <exec::ExecutionContext C, typename YieldFn>
SearchOutcome search_until(C& ctx, SchedState<C>& st, WorkerCursor<C>& cursor,
                           YieldFn&& should_yield) {
  exec::PhaseScope<C> phase(ctx, exec::Phase::kSearch);
  const Cycles ts = trace::event_begin(ctx);
  i64 walked = 0;  // list nodes examined, reported in the kSearch event
  const u32 m = st.pool.num_lists();
  if (cursor.search_origin >= m) {
    // First SEARCH of this worker: fan the team out across the lists.
    cursor.search_origin =
        shard::home_shard_of(ctx.proc(), ctx.num_procs(), m);
  }
  // A list we contended on (lock busy, stale bit, or saturated instances):
  // advance the cursor past it so the next probe spreads elsewhere.
  const auto rotate_past = [&](u32 i) {
    cursor.search_origin = (i + 1) % m;
    if (cursor.last_list == i) cursor.last_list = WorkerCursor<C>::kNoList;
  };
  sync::Backoff backoff(1, st.opts.idle_backoff_max);
  for (;;) {
    if (ctx.sync_op(st.done, Test::kNE, 0, Op::kFetch).success) {
      trace::event_end(ctx, ts, trace::EventKind::kSearch, kNoLoop, 0, -1,
                       walked);
      return SearchOutcome::kDone;
    }
    if (should_yield()) {
      // Detached and lock-free at every probe boundary: leaving here is
      // invisible to the namespace.
      trace::event_end(ctx, ts, trace::EventKind::kSearch, kNoLoop, 0, -2,
                       walked);
      return SearchOutcome::kYield;
    }
    deadline_check(ctx, st);  // free until a deadline actually expires
    trace::bump(ctx, &trace::Counters::search_probes);
    u32 i;
    if (cursor.last_list < m && st.pool.sw().test(ctx, cursor.last_list)) {
      i = cursor.last_list;
    } else {
      i = st.pool.sw().leading_one(ctx, cursor.search_origin);
    }
    if (i == CtxControlWord<C>::kEmpty) {
      cursor.last_list = WorkerCursor<C>::kNoList;
      exec::PhaseScope<C> idle(ctx, exec::Phase::kPoolIdle);
      trace::bump(ctx, &trace::Counters::backoff_iterations);
      ctx_pause(ctx, backoff);
      continue;
    }
    if (!ctx_try_lock(ctx, st.pool.list_lock(i))) {
      trace::bump(ctx, &trace::Counters::list_lock_failures);
      rotate_past(i);
      continue;
    }
    // Re-test under the lock: the list may have emptied since our fetch
    // (the SW bit we saw was stale).
    if (st.pool.list_head(i) == nullptr) {
      ctx_unlock(ctx, st.pool.list_lock(i));
      trace::bump(ctx, &trace::Counters::search_retries);
      rotate_past(i);
      continue;
    }
    st.pool.sw().reset(ctx, i);  // divert other searchers while we walk
    Icb<C>* ip = st.pool.list_head(i);
    bool attached = false;
    while (ip != nullptr) {
      charge_cost<C>(ctx, &vtime::CostModel::list_step);
      ctx.stats().search_steps++;
      ++walked;
      // Attach only if the instance still *needs* processors: unscheduled
      // iterations remain AND fewer processors than iterations are on it.
      // The index pre-test matters for liveness, not just efficiency: a
      // fully-scheduled ICB lingers in its list until the processor that
      // took the last iterations acquires the list lock for DELETE; if
      // searchers kept attach/detach-churning on it, their lock traffic
      // could starve that DELETE indefinitely.
      const bool has_unscheduled = icb_has_unscheduled(ctx, ip);
      if (has_unscheduled &&
          ctx.sync_op(ip->pcount, Test::kLT, ip->bound, Op::kIncrement)
              .success) {
        audit::on_attach(ctx, ip);
        // The index pre-test and the pcount increment are separate
        // synchronization instructions, so the last iterations may have
        // been dispatched in between — the attach would then be pure
        // churn: the worker's first grab fails, and until its detach
        // lands the completer's teardown spin-waits on the surplus
        // pcount.  Re-test under our attach and revoke immediately; the
        // remaining window (iterations exhausted after this re-test) is
        // benign and handled by the grab-failure detach path, which the
        // auditor's pcount/balance checks cover.
        if (icb_has_unscheduled(ctx, ip)) {
          attached = true;
          break;
        }
        ctx.sync_op(ip->pcount, Test::kNone, 0, Op::kDecrement);
        audit::on_attach_revoked(ctx, ip);
        trace::bump(ctx, &trace::Counters::search_retries);
      }
      ip = ip->right;
    }
    if (attached) {
      cursor.i = ip->loop;
      cursor.ip = ip;
      cursor.b = ip->bound;
      cursor.ivec = ip->ivec;
      if constexpr (C::kIsSimulated) {
        ctx.charge(ctx.costs().ivec_copy_per_level *
                   static_cast<Cycles>(st.prog->loops[ip->loop].depth));
      }
    }
    st.pool.sw().set(ctx, i);
    ctx_unlock(ctx, st.pool.list_lock(i));
    if (attached) {
      // Remember where we found work: the next SEARCH probes this list
      // first and scans onward from it.
      cursor.last_list = i;
      cursor.search_origin = i;
      ctx.stats().searches++;
      trace::event_end(ctx, ts, trace::EventKind::kSearch, cursor.i,
                       trace::ivec_hash(cursor.ivec,
                                        st.prog->loops[cursor.i].depth),
                       static_cast<i64>(i), walked);
      return SearchOutcome::kAttached;
    }
    trace::bump(ctx, &trace::Counters::search_retries);
    rotate_past(i);
    // Every instance of this list already has as many processors as
    // iterations: we are effectively surplus here.  Back off like an idle
    // processor — an immediate re-walk would hammer the list lock and
    // starve the owners' APPEND/DELETE operations.
    {
      exec::PhaseScope<C> idle(ctx, exec::Phase::kPoolIdle);
      trace::bump(ctx, &trace::Counters::backoff_iterations);
      ctx_pause(ctx, backoff);
    }
  }
}

/// The paper's SEARCH: run until attached or the program is done.
template <exec::ExecutionContext C>
bool search(C& ctx, SchedState<C>& st, WorkerCursor<C>& cursor) {
  return search_until(ctx, st, cursor, [] { return false; }) ==
         SearchOutcome::kAttached;
}

}  // namespace selfsched::runtime
