// Run-wide configuration of the two-level scheduler.
#pragma once

#include "common/types.hpp"
#include "runtime/strategy.hpp"
#include "vtime/costs.hpp"
#include "vtime/schedule_ctrl.hpp"

namespace selfsched::audit {
class Auditor;
}

namespace selfsched::fault {
struct FaultPlan;
}

namespace selfsched::runtime {

/// What the runner does when a run was cancelled (body exception, injected
/// fault, or deadline): rethrow the failure after the team has quiesced and
/// the pool is drained, or return normally with RunResult::failure set.
enum class OnBodyError : u32 {
  kThrow,   // rethrow the original body exception / throw fault::FailureError
  kReturn,  // return the RunResult; inspect RunResult::failure
};

struct SchedOptions {
  /// Low-level iteration dispatch policy for Doall loops.
  Strategy strategy = Strategy::self();

  /// Dispatch policy for Doacross loops.  Defaults to single-iteration
  /// (SDSS); benches override it to demonstrate why chunking Doacross
  /// loops destroys cross-iteration overlap (§I).
  Strategy doacross_strategy = Strategy::self();

  /// Body cost, in cycles, of a loop iteration whose leaf provides no cost
  /// function (virtual-time engine) / no body (threaded engine synthetic
  /// spin).
  Cycles default_body_cost = 100;

  /// Virtual-time engine: the simulated machine's cost model.
  vtime::CostModel costs = vtime::CostModel::cedar();

  /// Virtual-time engine: record the serialized op trace (determinism
  /// tests; memory-heavy).
  bool trace = false;

  /// Virtual-time engine: tie-break schedule controller (schedule
  /// exploration).  The default kCanonical spec preserves today's strict
  /// (time, id) grant order bit-for-bit; kSeededShuffle / kPct explore
  /// alternative legal interleavings; kReplay reproduces a recorded one.
  /// Results are deterministic per (program, cost model, schedule spec).
  vtime::ScheduleSpec schedule;

  /// Virtual-time engine: record the grant chosen at every multi-candidate
  /// decision point into RunResult::schedule_decisions — together with
  /// `schedule` this is a complete replayable repro of the interleaving.
  bool record_schedule = false;

  /// Virtual-time engine: record per-worker (phase, start, end) intervals
  /// into RunResult::timeline for Gantt rendering (render_gantt()).
  bool phase_timeline = false;

  /// Virtual-time engine: also invoke leaf body callbacks (host-side
  /// effects for validation) in addition to charging cycles.
  bool run_bodies_in_sim = true;

  /// Threaded engine: measure per-phase wall-clock (≈20 ns per phase
  /// switch); disable for throughput benches.
  bool measure_phases = true;

  /// Both engines: record a per-event scheduler trace (dispatched chunks,
  /// SEARCHes, EXIT/ENTER activations, Doacross stalls, teardowns) into
  /// per-worker ring buffers, folded into RunResult::trace_events.  The
  /// metric counters (RunResult::counters) are collected regardless.
  bool trace_events = false;

  /// Per-worker event-ring capacity (rounded up to a power of two); on
  /// overflow the ring wraps, keeping the newest events.
  u32 trace_ring_capacity = 1u << 14;

  /// Both engines: run the invariant auditor (audit/auditor.hpp) alongside
  /// the scheduler — ICB-lifecycle state machine, pcount/icount protocol,
  /// task-pool list integrity, BAR_COUNT reclamation, Doacross post-once.
  /// Also enabled by the SELFSCHED_AUDIT=1 environment variable (so a whole
  /// ctest run can be audited unmodified).
  bool audit = false;

  /// Throw (SS_CHECK) at end of run if the auditor recorded violations;
  /// disable to inspect RunResult::audit_report instead (fault-injection
  /// tests).
  bool audit_abort = true;

  /// External auditor to use instead of a run-internal one (implies
  /// `audit`).  Lets tests arm fault injection before the run and read the
  /// violations back after it.  Not owned.
  audit::Auditor* audit_sink = nullptr;

  /// BAR_COUNT hash-table buckets.
  u32 bar_buckets = 256;

  /// Baseline ablation: collapse the task pool to a single list under a
  /// single lock (the serial bottleneck the paper's m parallel linked
  /// lists avoid, §III-A).
  bool central_queue = false;

  /// Failure policy after a cancelled run (see OnBodyError).
  OnBodyError on_body_error = OnBodyError::kThrow;

  /// Threaded engine: wall-clock deadline in milliseconds, armed at runner
  /// entry (0 = none).  On expiry the run is cancelled and returns
  /// a structured FailureRecord::Kind::kDeadline failure with per-worker
  /// progress snapshots instead of hanging.
  i64 deadline_ms = 0;

  /// Virtual-time engine: deadline in virtual cycles (0 = none).  Checked
  /// against ctx.now(), so expiry — and the resulting cancellation — is
  /// deterministic and replayable.
  Cycles deadline_vcycles = 0;

  /// Threaded engine: stall-watchdog budget in milliseconds (0 = off).  A
  /// run that completes no chunk for this long is cancelled with a
  /// FailureRecord::Kind::kWatchdog record (unless a richer claimant — e.g.
  /// an injected stall — already named the wedged point), riding the same
  /// poison/drain machinery as deadlines.  Unlike deadline_ms, the budget
  /// is relative to the last progress mark, so long healthy runs never
  /// trip it.  See docs/robustness.md.
  i64 watchdog_stall_ms = 0;

  /// Virtual-time engine: stall-watchdog budget in virtual cycles (0 =
  /// off).  Progress marks and expiry checks are engine-serialized, so a
  /// rescue — and the whole drain it triggers — replays bit-identically.
  Cycles watchdog_stall_vcycles = 0;

  /// Fault-injection plan (runtime/fault.hpp): armed body-throw /
  /// worker-stall / lock-delay faults, fired deterministically at matching
  /// (loop, ivec, worker) points.  Not owned; FaultPlan::reset() re-arms it
  /// between runs.
  fault::FaultPlan* fault_plan = nullptr;

  /// Backoff cap, in pause cycles, for pool-idle spinning.
  Cycles idle_backoff_max = 1024;

  /// Backoff cap for Doacross post/wait spinning.  Kept tight: the wait
  /// duration is the pipeline advance f*tau, and every cycle of overshoot
  /// stretches the whole chain — SDSS's point is to keep successive
  /// iterations starting with the shortest possible delay.  The cap sets
  /// only how often a waiter polls; when it gives up its core is the
  /// per-wait spin budget of runtime::ctx_pause, so served namespaces keep
  /// this cap too.
  Cycles doacross_backoff_max = 16;
};

}  // namespace selfsched::runtime
