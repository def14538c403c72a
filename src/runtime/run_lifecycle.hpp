// The submit/drain lifecycle of one scheduled program execution, factored
// out of the batch runners (scheduler.cpp) so a resident service can keep
// many executions in flight against one worker pool.
//
// A ProgramRun<C> is one program's complete task-pool namespace: its
// SchedState (m-list + SW machinery, ICB accounting, BAR_COUNT chains,
// cancellation state), its trace recorder, its auditor, and its per-worker
// stat slots.  Nothing in it is shared with any other ProgramRun, so any
// number of them can coexist and be scheduled by the same physical workers
// without sharing a single synchronization variable — the serve subsystem's
// tenant isolation reduces to "one ProgramRun per submission".
//
// The lifecycle is: construct (submit) -> workers run worker_loop /
// worker_session against `st` (dispatch) -> finish() (drain): harvest the
// trace, reclaim cancelled leftovers, run the end-of-run conservation
// audit, and fold everything into a RunResult.
#pragma once

#include <chrono>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "audit/auditor.hpp"
#include "audit/hooks.hpp"
#include "exec/context.hpp"
#include "runtime/high_level.hpp"
#include "runtime/options.hpp"
#include "runtime/stats.hpp"
#include "trace/recorder.hpp"

namespace selfsched::runtime {

inline void harvest_trace(const trace::Recorder& rec, RunResult& r) {
  r.counters = rec.fold_counters();
  r.trace_events = rec.harvest_events();
  r.trace_events_dropped = rec.events_dropped();
}

/// SELFSCHED_AUDIT=1 in the environment audits every run in the process —
/// how the CI audit job and `check.sh --audit` audit a whole ctest suite
/// without touching any test.
inline bool audit_env_enabled() {
  const char* e = std::getenv("SELFSCHED_AUDIT");
  return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
}

/// The run's auditor: the caller-provided external one, a run-internal one
/// when auditing is requested, or none.
struct AuditSetup {
  std::unique_ptr<audit::Auditor> owned;
  audit::Auditor* sink = nullptr;
};

inline AuditSetup make_audit(const SchedOptions& opts) {
  AuditSetup s;
  s.sink = opts.audit_sink;
  if (s.sink == nullptr && (opts.audit || audit_env_enabled())) {
    s.owned = std::make_unique<audit::Auditor>();
    s.sink = s.owned.get();
  }
  return s;
}

/// End-of-run conservation checks + report harvest; call after every worker
/// has drained and RunResult::schedule_decisions is filled in.
template <typename C>
void finish_audit(audit::Auditor* auditor, SchedState<C>& st,
                  const SchedOptions& opts, RunResult& r) {
  if (auditor == nullptr) return;
  auditor->on_quiescence(st.pool.empty(), st.bars.live_counters(),
                         audit::sync_peek(st.outstanding));
  r.audit_violations = auditor->violation_count();
  r.audit_report = auditor->report(r.schedule_decisions);
  SS_CHECK_MSG(!opts.audit_abort || r.audit_violations == 0, r.audit_report);
}

/// Post-drain failure harvest for a cancelled run: copy the claimed failure
/// record (adding per-worker progress snapshots from the already-folded
/// stats) into the result, then host-drain every leftover — orphaned ICBs,
/// task-pool links, live BAR_COUNT chains — so the quiescence conservation
/// checks hold for cancelled runs too.
template <typename C>
void harvest_failure(SchedState<C>& st, audit::Auditor* auditor,
                     RunResult& r) {
  if (st.cancel.cancelled.load(std::memory_order_acquire) == 0) return;
  fault::FailureRecord rec = st.cancel.record;
  rec.progress.reserve(r.workers.size());
  for (std::size_t w = 0; w < r.workers.size(); ++w) {
    const exec::WorkerStats& s = r.workers[w];
    fault::WorkerProgress p;
    p.worker = static_cast<ProcId>(w);
    p.iterations = s.iterations;
    p.dispatches = s.dispatches;
    p.searches = s.searches;
    p.sync_ops = s.sync_ops;
    rec.progress.push_back(p);
  }
  r.failure.emplace(std::move(rec));
  drain_cancelled(st, auditor);
}

/// OnBodyError::kThrow: rethrow the contained body exception at the caller,
/// or wrap the record in a FailureError when there is none (injected
/// stalls, deadlines, external cancellation).
inline void maybe_throw_failure(const SchedOptions& opts, const RunResult& r) {
  if (!r.failure.has_value() || opts.on_body_error == OnBodyError::kReturn) {
    return;
  }
  if (r.failure->exception) std::rethrow_exception(r.failure->exception);
  throw fault::FailureError(*r.failure);
}

/// One in-flight scheduled execution: the program's private task-pool
/// namespace plus everything needed to turn worker activity into a
/// RunResult.  The CompiledProgram must outlive the ProgramRun (SchedState
/// keeps a pointer).
template <exec::ExecutionContext C>
struct ProgramRun {
  ProgramRun(const program::CompiledProgram& tables, const SchedOptions& o,
             u32 procs)
      : st(tables, o),
        rec(procs, o.trace_events, o.trace_ring_capacity),
        auditing(make_audit(o)),
        stats(procs) {
    // Revoke the host-quiescence token: from here until finish(), workers
    // may be live in `st`, so the host-side pool/bars accessors are off
    // limits (SS_DCHECK-enforced).
    st.set_host_quiescent(false);
    if constexpr (C::kIsSimulated) {
      st.cancel.vdeadline = o.deadline_vcycles;
      // Stall watchdog: the virtual clock starts at 0, which is also the
      // initial progress mark, so the first budget window opens at run
      // start.  Both the budget and the marks are engine-serialized state.
      st.cancel.stall_vcycles = o.watchdog_stall_vcycles;
    } else {
      if (o.deadline_ms > 0) {
        // Armed before any worker is dispatched (single-threaded), so the
        // workers' unsynchronized deadline_expired() reads are race-free.
        arm_deadline(std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(o.deadline_ms));
      }
      // The stall watchdog's first window opens in seed_program, not here:
      // a slow team start or a queued admission is not a stall.
      st.cancel.stall_ns = o.watchdog_stall_ms * 1'000'000;
    }
  }

  ProgramRun(const ProgramRun&) = delete;
  ProgramRun& operator=(const ProgramRun&) = delete;

  /// (Re)arm the host-clock deadline.  Call only while no worker is
  /// dispatched into `st` — the deadline fields are read unsynchronized.
  void arm_deadline(std::chrono::steady_clock::time_point when) {
    st.cancel.host_deadline_armed = true;
    st.cancel.host_deadline = when;
  }

  /// Drain the namespace into a RunResult.  Call only after every worker
  /// has left `st` (joined or yielded for good).  Engine-specific fields
  /// (engine_ops, schedule_decisions, timeline, ...) may be pre-filled in
  /// `r` by the caller; the audit report includes them.
  RunResult finish(u32 procs, Cycles makespan, RunResult r = {}) {
    st.set_host_quiescent(true);  // every worker has left st (see above)
    r.procs = procs;
    r.makespan = makespan;
    r.workers = std::move(stats);
    harvest_trace(rec, r);
    harvest_failure(st, auditing.sink, r);  // drains if cancelled
    SS_CHECK_MSG(st.pool.empty(), "task pool not drained at termination");
    finish_audit(auditing.sink, st, st.opts, r);
    finalize(r);
    return r;
  }

  SchedState<C> st;
  trace::Recorder rec;
  AuditSetup auditing;
  std::vector<exec::WorkerStats> stats;
};

}  // namespace selfsched::runtime
