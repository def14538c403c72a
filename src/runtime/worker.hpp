// The low-level self-scheduling main loop — Algorithm 3, generalized to
// multi-iteration dispatches and Doacross synchronization.
//
// A processor attached to an instance runs a grant loop until it stops
// taking work from it.  What every grant shares — the loop descriptor, the
// strategy, the home shard of a sharded index — is looked up once per
// attachment.  Per grant a processor:
//   start:  grabs the next step with {index <= N ; Fetch&Add(1)} and runs
//           the iterations that step numbers (strategy.hpp, next_grant).  With a sharded index a worker whose last grant came
//           from its home shard claims the next one there directly; when the
//           home shard is drained it probes the siblings from home + 1, and
//           later grabs probe from home as before (docs/sharding.md);
//           on failure publishes its completions and detaches
//           ({pcount; Decrement}), then SEARCHes;
//           if it grabbed the final iteration (sharded: won the drained-
//           shard completion election) it DELETEs the ICB from its
//           list — the ICB stays alive for the processors still executing
//           scheduled iterations (their local `ip` keeps it reachable);
//   body:   executes the iterations (Doacross: wait on the post flag of
//           iteration j-d, execute the pre-source segment, post flag j,
//           execute the tail segment);
//   update: adds the completed count to icount; the processor whose update
//           reaches the bound is the completer (complete_instance): it
//           activates the successors (EXIT + ENTER), waits for pcount to
//           drain to 1 ({pcount == 1 ; Decrement}), releases the ICB, and
//           SEARCHes for new work.
// The loop runs in the body phase; the grab and the update each have an
// iteration-sync scope of their own.
//
// The grab and the update are the two sync ops per chunk that make up the
// paper's O1.  vtime keeps the update as written: one per chunk.  On real
// cores each is a write to a line every worker writes, so the threads
// engine defers the update: a worker counts its completions locally and
// publishes them once per attachment, at the points where it stops taking
// work from the instance (a failed grab, a yield, an aborted chunk).
// Together with the per-worker index shards that ENTER gives large `self`
// Doall instances on both engines (index_shards_for), that leaves a worker
// one uncontended fetch&add on its own shard per iteration on real cores
// (docs/scheduling.md, "Completion count").
#pragma once

#include <cmath>

#include "audit/hooks.hpp"
#include "common/shard_math.hpp"
#include "exec/context.hpp"
#include "runtime/high_level.hpp"
#include "runtime/strategy.hpp"
#include "trace/recorder.hpp"

namespace selfsched::runtime {

/// The modeled cost of one iteration: its cost function, else the default.
template <exec::ExecutionContext C>
Cycles body_cost(const SchedState<C>& st, const program::InnermostDesc& d,
                 const IndexVec& ivec, i64 j) {
  return d.cost ? d.cost(ivec, j) : st.opts.default_body_cost;
}

/// Execute one iteration's body.  vtime charges the modeled cost (and runs
/// the callback when asked to); real cores run the callback, or spin the
/// modeled cost when there is none.  The cost is computed only where it is
/// spent: a real body costs what it costs.
template <exec::ExecutionContext C>
void run_body(C& ctx, const SchedState<C>& st,
              const program::InnermostDesc& d, const IndexVec& ivec, i64 j) {
  if constexpr (C::kIsSimulated) {
    ctx.work(body_cost(st, d, ivec, j));
    if (st.opts.run_bodies_in_sim && d.body) d.body(ctx.proc(), ivec, j);
  } else if (d.body) {
    d.body(ctx.proc(), ivec, j);
  } else {
    ctx.work(body_cost(st, d, ivec, j));
  }
}

/// Backoff cap, in pause cycles, for Doacross post/wait spinning.  Kept
/// tight: the wait duration is the pipeline advance f*tau, and every cycle
/// of overshoot stretches the whole chain — SDSS's point is to keep
/// successive iterations starting with the shortest possible delay.  The
/// cap sets only how often a waiter polls; when it gives up its core is the
/// per-wait spin budget of runtime::ctx_pause, so served namespaces keep
/// this cap too.
inline constexpr Cycles kDoacrossBackoffMax = 16;

/// One Doacross iteration: wait for the dependence source of iteration
/// j-distance, run the head segment, post, run the tail segment.  The
/// post-wait polls `done` once per spin round (never on the no-spin fast
/// path) and throws fault::Cancelled on cancellation — a cancelled peer may
/// never post the awaited flag.
template <exec::ExecutionContext C>
void run_doacross_iteration(C& ctx, SchedState<C>& st,
                            const program::InnermostDesc& d, Icb<C>& icb,
                            const IndexVec& ivec, i64 j) {
  const program::DoacrossSpec& spec = *d.doacross;
  auto wait_on = [&](i64 dist) {
    if (j - dist < 1) return;
    const Cycles tw = trace::event_begin(ctx);
    exec::PhaseScope<C> wait(ctx, exec::Phase::kDoacrossWait);
    sync::Backoff backoff(1, kDoacrossBackoffMax);
    typename C::Sync& flag = icb.da_flags[j - dist];
    while (!ctx.sync_op(flag, Test::kEQ, 1, Op::kFetch).success) {
      deadline_check(ctx, st);
      if (cancel_requested(ctx, st)) throw fault::Cancelled{};
      trace::bump(ctx, &trace::Counters::backoff_iterations);
      ctx_pause(ctx, backoff);
    }
    trace::event_end(ctx, tw, trace::EventKind::kDoacrossWait, icb.loop,
                     trace::ivec_hash(ivec, d.depth), j, dist);
  };
  wait_on(spec.distance);
  for (const i64 dist : spec.extra_distances) wait_on(dist);
  const auto post = [&] {
    exec::PhaseScope<C> sync_phase(ctx, exec::Phase::kIterSync);
    ctx.sync_op(icb.da_flags[j], Test::kNone, 0, Op::kStore, 1);
    audit::on_da_post(ctx, &icb, j);
  };
  if (!C::kIsSimulated && d.body) {
    // Real bodies embed the dependence source themselves; we conservatively
    // run the whole body before posting.
    d.body(ctx.proc(), ivec, j);
    post();
    return;
  }
  const Cycles cost = body_cost(st, d, ivec, j);
  const Cycles head = static_cast<Cycles>(
      std::llround(spec.post_fraction * static_cast<double>(cost)));
  ctx.work(head);
  if (C::kIsSimulated && st.opts.run_bodies_in_sim && d.body) {
    d.body(ctx.proc(), ivec, j);
  }
  post();
  ctx.work(cost - head);
}

/// Service an armed kWorkerStall fault at a body point.  A finite stall is
/// a pure perturbation (pause and resume); an indefinite one (cycles == 0)
/// claims the failure record with the stall's position — so the run's
/// eventual failure names the wedged point — and wedges until cancellation
/// or a deadline ends the run, then unwinds via fault::Cancelled.
template <exec::ExecutionContext C>
void stall_worker(C& ctx, SchedState<C>& st, const fault::FaultSpec& f,
                  LoopId loop, const IndexVec& ivec, u32 depth, i64 j) {
  if (f.cycles > 0) {
    ctx.pause(f.cycles);
    return;
  }
  if (claim_failure_record(ctx, st)) {
    write_failure_record(ctx, st, fault::FailureRecord::Kind::kInjectedFault,
                         loop, ivec, depth, j, "injected worker stall",
                         nullptr);
  }
  sync::Backoff backoff(1, kIdleBackoffMax);
  for (;;) {
    deadline_check(ctx, st);
    if (cancel_requested(ctx, st)) throw fault::Cancelled{};
    trace::bump(ctx, &trace::Counters::backoff_iterations);
    ctx_pause(ctx, backoff);
  }
}

/// Leave an instance without releasing it: {pcount ; Decrement}.  The
/// balance hook fires first, because the decrement can let the completer
/// release the ICB and another worker re-acquire it (audit/hooks.hpp).
template <exec::ExecutionContext C>
void detach(C& ctx, Icb<C>* ip) {
  audit::on_detach(ctx, ip);
  const i64 before =
      ctx.sync_op(ip->pcount, Test::kNone, 0, Op::kDecrement).fetched;
  audit::on_detach_fetched(ctx, before);
}

/// The completion path, run by the worker whose update brought icount to
/// the bound: activate the successors (EXIT + ENTER), wait for every other
/// attached processor to detach, release the ICB and count the instance
/// out of `outstanding`.  The completer's own attachment is the pcount unit
/// its drain consumes.  Returns true when the release ended the program.
///
/// Cancellation can strand a peer's attachment (e.g. a worker wedged in a
/// body), so each drain round also polls `done`; on cancellation the
/// completer detaches without releasing — the post-join drain reclaims the
/// instance.
template <exec::ExecutionContext C>
bool complete_instance(C& ctx, SchedState<C>& st, WorkerCursor<C>& cursor) {
  const program::InnermostDesc& d = st.prog->loops[cursor.i];
  {
    const Cycles tx = trace::event_begin(ctx);
    exec::PhaseScope<C> phase(ctx, exec::Phase::kExitEnter);
    const Level lev = exit_from(ctx, st, cursor.i, d.depth, cursor.ivec);
    if (lev != 0) {
      const LoopId targ = d.at_level(lev).next;
      SS_DCHECK(targ != kNoLoop);
      enter(ctx, st, targ, lev, cursor.ivec);
    }
    trace::event_end(ctx, tx, trace::EventKind::kExit, cursor.i,
                     trace::ivec_hash(cursor.ivec, d.depth),
                     static_cast<i64>(lev), 0);
  }
  const Cycles tt = trace::event_begin(ctx);
  exec::PhaseScope<C> phase(ctx, exec::Phase::kTeardown);
  sync::Backoff backoff(1, kIdleBackoffMax);
  bool released = true;
  while (!ctx.sync_op(cursor.ip->pcount, Test::kEQ, 1, Op::kDecrement)
              .success) {
    deadline_check(ctx, st);
    if (cancel_requested(ctx, st)) {
      detach(ctx, cursor.ip);
      released = false;
      break;
    }
    trace::bump(ctx, &trace::Counters::backoff_iterations);
    ctx_pause(ctx, backoff);
  }
  bool terminated = false;
  if (released) {
    // After the decrement, unlike detach(): only this worker can release
    // the ICB now, and it has not done so yet.
    audit::on_detach(ctx, cursor.ip);
    charge_cost<C>(ctx, &vtime::CostModel::icb_release);
    st.icbs.release(ctx, cursor.ip);
    ctx.stats().icbs_released++;
    const i64 before =
        ctx.sync_op(st.outstanding, Test::kNone, 0, Op::kDecrement).fetched;
    SS_DCHECK(before >= 1);
    if (before == 1) {
      ctx.sync_op(st.done, Test::kNone, 0, Op::kStore, 1);
      audit::on_terminate(ctx);
      terminated = true;
    }
  }
  trace::event_end(ctx, tt, trace::EventKind::kTeardown, cursor.i,
                   trace::ivec_hash(cursor.ivec, d.depth), 0, 0);
  return terminated;
}

/// The update step: add the worker's `pending` completed iterations of the
/// attached instance to icount ({icount ; Fetch&Add(n)}) and zero them.
/// Returns true when this update reached the bound: the caller is then the
/// completer and must run complete_instance.  Nothing to publish costs no
/// sync op.
template <exec::ExecutionContext C>
bool publish_completions(C& ctx, WorkerCursor<C>& cursor, i64& pending) {
  if (pending == 0) return false;
  exec::PhaseScope<C> phase(ctx, exec::Phase::kIterSync);
  const i64 before =
      ctx.sync_op(cursor.ip->icount, Test::kNone, 0, Op::kFetchAdd, pending)
          .fetched;
  audit::on_complete(ctx, cursor.ip, before, pending);
  const bool completer = before + pending == cursor.b;
  pending = 0;
  return completer;
}

/// Stop taking work from the attached instance — a failed grab, a yield or
/// an aborted chunk.  A worker publishes before it detaches, and a publish
/// that reaches the bound makes it the completer, whose completion path
/// consumes its attachment.  Returns true when that path ended the program.
template <exec::ExecutionContext C>
bool leave_instance(C& ctx, SchedState<C>& st, WorkerCursor<C>& cursor,
                    i64& pending) {
  if (publish_completions(ctx, cursor, pending)) {
    return complete_instance(ctx, st, cursor);
  }
  exec::PhaseScope<C> phase(ctx, exec::Phase::kIterSync);
  detach(ctx, cursor.ip);
  return false;
}

/// How a worker_session ended.
enum class SessionExit : u32 {
  kDone,   // the program terminated (or was cancelled and drained)
  kYield,  // the yield predicate fired; the namespace still has live work
};

/// How a worker stops taking work from the instance it is attached to.
enum class GrantStop : u32 {
  kLeave,     // fully scheduled, or a chunk aborted: leave_instance
  kYield,     // the yield predicate fired: leave_instance, then yield
  kComplete,  // this worker's per-chunk update completed the instance
};

/// The grant loop of one attachment.  What every grant shares — the loop
/// descriptor, the strategy, the worker's home shard — is looked up once;
/// then each pass takes one grant (strategy.hpp, next_grant), runs its
/// iterations and counts them, until the worker stops taking work from the
/// instance.  Per grant it keeps, in this order: the yield check, the
/// cancel point, the claim with its dispatch hooks (and DELETE when the
/// grant is the instance's last), the body with its abort and fault
/// checks, the `kChunk` event, and the update: vtime's per-chunk publish
/// and the watchdog's progress mark.  The [[unlikely]] exits keep the
/// steady state (one claim, one body) laid out as straight code; without
/// them GCC places the rare branches on the hot path.
template <exec::ExecutionContext C, typename YieldFn>
GrantStop run_grants(C& ctx, SchedState<C>& st, WorkerCursor<C>& cursor,
                     i64& pending, YieldFn& should_yield) {
  const program::InnermostDesc& d = st.prog->loops[cursor.i];
  const Strategy& strat =
      d.doacross ? st.opts.doacross_strategy : st.opts.strategy;
  Icb<C>& icb = *cursor.ip;
  const u32 home =
      icb.num_shards > 1
          ? shard::home_shard_of(ctx.proc(), ctx.num_procs(), icb.num_shards)
          : 0;
  const u64 ihash = trace::ivec_hash(cursor.ivec, d.depth);

  exec::PhaseScope<C> body_phase(ctx, exec::Phase::kBody);
  Dispatch grab;
  for (;;) {
    // Leave exactly like a failed grab; the instance keeps its other
    // processors and stays findable in the pool.
    if (should_yield()) [[unlikely]] return GrantStop::kYield;

    // --- start: grab iterations ---
    // After cancellation every grab fails against the poisoned index words
    // (the threaded fast path just skips the formality), so this is the
    // cancel point of the low-level fetch&add loop: workers fall through
    // the grab-failure detach into SEARCH, which observes `done`.
    {
      exec::PhaseScope<C> phase(ctx, exec::Phase::kIterSync);
      grab = cancelled_fast(ctx, st)
                 ? Dispatch{}
                 : next_grant(ctx, icb, strat, home, grab.shard);
      if (grab.count == 0) [[unlikely]] return GrantStop::kLeave;  // drained
      ctx.stats().dispatches++;
      trace::bump(ctx, &trace::Counters::dispatches);
      audit::on_dispatch(ctx, &icb, grab.first, grab.count);
      if (grab.last_scheduled) [[unlikely]] {
        // All iterations are scheduled (not necessarily completed): remove
        // the ICB so searchers move on to other instances.
        exec::PhaseScope<C> exit_phase(ctx, exec::Phase::kExitEnter);
        st.pool.delete_icb(ctx, st.list_of(icb.loop), &icb);
      }
    }

    // --- body: execute the grabbed iterations, containing failures ---
    bool aborted = false;
    const Cycles tb = trace::event_begin(ctx);
    i64 j = grab.first;
    try {
      for (; j < grab.first + grab.count; ++j) {
        if (body_cancel_point(ctx, st)) {
          aborted = true;
          break;
        }
        if (const fault::FaultSpec* f =
                fault::match_body(ctx, cursor.i, cursor.ivec, d.depth, j)) {
          if (f->kind == fault::FaultKind::kBodyThrow) {
            throw fault::InjectedFault("injected body fault");
          }
          stall_worker(ctx, st, *f, cursor.i, cursor.ivec, d.depth, j);
        }
        if (d.doacross) {
          run_doacross_iteration(ctx, st, d, icb, cursor.ivec, j);
        } else {
          run_body(ctx, st, d, cursor.ivec, j);
        }
        ctx.stats().iterations++;
      }
    } catch (const fault::Cancelled&) {
      aborted = true;  // secondary casualty of a cancellation in flight
    } catch (...) {
      aborted = true;
      const std::exception_ptr eptr = std::current_exception();
      const bool injected = [&] {
        try {
          std::rethrow_exception(eptr);
        } catch (const fault::InjectedFault&) {
          return true;
        } catch (...) {
          return false;
        }
      }();
      fail_run(ctx, st,
               injected ? fault::FailureRecord::Kind::kInjectedFault
                        : fault::FailureRecord::Kind::kBodyException,
               cursor.i, cursor.ivec, d.depth, j,
               fault::describe_exception(eptr), eptr);
    }
    trace::event_end(ctx, tb, trace::EventKind::kChunk, cursor.i, ihash,
                     grab.first, grab.count);
    // The abandoned grab never reaches icount (this worker's earlier
    // chunks still do): the instance can no longer complete, so the
    // post-join drain reclaims it.  Leave it and head for the exit through
    // SEARCH.
    if (aborted) [[unlikely]] return GrantStop::kLeave;

    // --- update: count completions; the last completer activates ---
    pending += grab.count;
    const bool completer =
        C::kIsSimulated && publish_completions(ctx, cursor, pending);
    watchdog_progress(ctx, st);
    if (completer) [[unlikely]] return GrantStop::kComplete;
    // else: keep scheduling from the same ICB (goto start).
  }
}

/// The complete per-processor scheduler: runs until the program terminates,
/// is cancelled (a cancelled worker drains out through SEARCH's `done` exit
/// like a normal one), or `should_yield` fires.  Yield points sit only
/// where the worker is detachable without abandoning obligations: inside
/// SEARCH (already detached) and before each grant of the grant loop,
/// where leaving is exactly the failed-grab path (publish, then complete or
/// detach).  Grabbed iterations always run to completion before a yield,
/// so every Doacross dependence source that has been dispatched is posted
/// by a worker that is still executing — a yielding team cannot strand a
/// posted-on flag (see docs/serving.md for the cross-program liveness
/// argument).
template <exec::ExecutionContext C, typename YieldFn>
SessionExit worker_session(C& ctx, SchedState<C>& st,
                           YieldFn&& should_yield) {
  WorkerCursor<C> cursor;
  cursor.ivec.resize(st.prog->max_depth);
  // Iterations this worker completed in the attached instance and has not
  // yet added to icount.  vtime publishes them after every chunk; threads
  // hold them until the worker leaves the instance (leave_instance).
  i64 pending = 0;

  SearchOutcome found = search_until(ctx, st, cursor, should_yield);
  while (found == SearchOutcome::kAttached) {
    switch (run_grants(ctx, st, cursor, pending, should_yield)) {
      case GrantStop::kYield:
        // If this worker's publish completes the instance, it runs the
        // completion path first.
        return leave_instance(ctx, st, cursor, pending) ? SessionExit::kDone
                                                        : SessionExit::kYield;
      case GrantStop::kComplete:
        complete_instance(ctx, st, cursor);
        break;
      case GrantStop::kLeave:
        leave_instance(ctx, st, cursor, pending);
        break;
    }
    found = search_until(ctx, st, cursor, should_yield);
  }
  return found == SearchOutcome::kYield ? SessionExit::kYield
                                        : SessionExit::kDone;
}

/// The batch runners' worker: never yields; returns when the program is
/// done.
template <exec::ExecutionContext C>
void worker_loop(C& ctx, SchedState<C>& st) {
  worker_session(ctx, st, [] { return false; });
}

/// Seed the program's initial activation (the paper's instrumented prologue)
/// and handle the degenerate all-constructs-skipped case.
///
/// Seeding opens the threads stall watchdog's first window: batch and serve
/// both seed here once a worker is in the namespace, so neither the team's
/// start line nor an admission queue counts as a stall.  vtime's window
/// opens at virtual time 0 and is left alone.
///
/// The seeder runs while its peers already search, and ENTER counts each
/// sibling instance into `outstanding` just before appending it.  So the
/// seeder holds one unit of `outstanding` across the whole ENTER: without
/// it, peers could finish sibling k's subtree, drive the count to 0 and
/// declare the run done before sibling k+1 is appended.  Whoever drops the
/// count to 0 terminates the run — here, when every activated instance
/// already finished (or none was activated).
template <exec::ExecutionContext C>
void seed_program(C& ctx, SchedState<C>& st) {
  if constexpr (!C::kIsSimulated) watchdog_progress(ctx, st);
  exec::PhaseScope<C> phase(ctx, exec::Phase::kExitEnter);
  IndexVec ivec;
  ivec.resize(st.prog->max_depth);
  ctx.sync_op(st.outstanding, Test::kNone, 0, Op::kIncrement);
  enter(ctx, st, st.prog->entry, 0, ivec);
  if (ctx.sync_op(st.outstanding, Test::kNone, 0, Op::kDecrement).fetched ==
      1) {
    ctx.sync_op(st.done, Test::kNone, 0, Op::kStore, 1);
    audit::on_terminate(ctx);
  }
}

}  // namespace selfsched::runtime
