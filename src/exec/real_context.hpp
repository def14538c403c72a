// Real-hardware execution context: synchronization instructions map to
// sync::SyncVar (std::atomic CAS loops), work() maps to an optimization-
// resistant spin kernel (used only by synthetic workloads — real programs
// run their body lambdas directly), and phase time is wall-clock nanoseconds
// from std::chrono::steady_clock.  One RContext per worker thread.
#pragma once

#include <chrono>

#include "common/check.hpp"
#include "common/cpu_relax.hpp"
#include "common/types.hpp"
#include "exec/context.hpp"
#include "sync/sync_var.hpp"
#include "trace/recorder.hpp"

namespace selfsched::audit {
class Auditor;
}

namespace selfsched::fault {
struct FaultPlan;
}

namespace selfsched::exec {

class RContext {
 public:
  using Sync = sync::SyncVar;
  static constexpr bool kIsSimulated = false;

  /// @param measure_phases  when false, set_phase() is a plain enum swap and
  ///   no clock is read — for throughput benches where the ~20 ns clock read
  ///   per transition would perturb the measured overheads.
  /// @param start  when the phase clock starts (kOther runs from then); a
  ///   team passes its start line so phases and makespan share one origin.
  RContext(ProcId proc, u32 num_procs, bool measure_phases = true,
           std::chrono::steady_clock::time_point start =
               std::chrono::steady_clock::now())
      : proc_(proc),
        num_procs_(num_procs),
        measure_(measure_phases),
        mark_(start) {
    SS_CHECK(proc < num_procs);
  }

  RContext(const RContext&) = delete;
  RContext& operator=(const RContext&) = delete;

  ProcId proc() const { return proc_; }
  u32 num_procs() const { return num_procs_; }

  sync::SyncResult sync_op(Sync& v, sync::Test t, i64 test_value,
                           sync::Op op, i64 operand = 0) {
    ++stats_.sync_ops;
    const sync::SyncResult r = v.try_op(t, test_value, op, operand);
    if (!r.success) ++stats_.failed_sync_ops;
    return r;
  }

  /// Spin for `c` abstract work units.  The dependent integer recurrence
  /// defeats vectorization/const-folding, so elapsed time scales linearly
  /// with c; the absolute unit is irrelevant (benches report ratios).
  void work(Cycles c) {
    u64 x = sink_ + 0x9e3779b97f4a7c15ULL;
    for (Cycles i = 0; i < c; ++i) x = x * 0xd1342543de82ef95ULL + 1;
    sink_ = x;  // keep the result live
  }

  /// Spin budget of one wait, in pause units.  A wait that has relaxed this
  /// long is far overdue — almost always because its producer thread is
  /// descheduled (oversubscribed box, sanitizer slowdown) — so from then on
  /// runtime::ctx_pause yields the core on every round instead of relaxing:
  /// on a loaded core a cpu_relax loop burns the OS quantum the producer
  /// needs.  The budget is per wait (Backoff::spent), not per pause, so a
  /// tightly capped Doacross wait keeps polling often and still yields after
  /// the same 1023 relaxed units as an idle wait capped at 1024.
  static constexpr Cycles kPauseYieldThreshold = 1024;

  /// Relax for `c` pause units (backoff rounds, finite injected stalls).
  void pause(Cycles c) {
    for (Cycles i = 0; i < c; ++i) cpu_relax();
  }

  Phase set_phase(Phase p) {
    const Phase prev = phase_;
    phase_ = p;
    if (measure_) {
      const auto now = Clock::now();
      stats_[prev] += std::chrono::duration_cast<std::chrono::nanoseconds>(
                          now - mark_)
                          .count();
      mark_ = now;
    }
    return prev;
  }

  /// Flush the open phase interval into the stats (call before reading
  /// stats at the end of a run).
  void finish() { set_phase(phase_); }

  WorkerStats& stats() { return stats_; }

  /// Install this worker's trace sink; `epoch` is the team-wide timestamp
  /// origin (trace_now() = nanoseconds since it).
  void set_trace_sink(trace::WorkerSink* sink,
                      std::chrono::steady_clock::time_point epoch) {
    trace_sink_ = sink;
    trace_epoch_ = epoch;
  }
  trace::WorkerSink* trace_sink() const { return trace_sink_; }
  Cycles trace_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - trace_epoch_)
        .count();
  }

  /// Audit hook point (audit/hooks.hpp).
  void set_audit_sink(audit::Auditor* sink) { audit_sink_ = sink; }
  audit::Auditor* audit_sink() const { return audit_sink_; }

  /// Fault-injection hook point (runtime/fault.hpp).
  void set_fault_plan(fault::FaultPlan* plan) { fault_plan_ = plan; }
  fault::FaultPlan* fault_plan() const { return fault_plan_; }

 private:
  using Clock = std::chrono::steady_clock;

  ProcId proc_;
  u32 num_procs_;
  bool measure_;
  Phase phase_ = Phase::kOther;
  Clock::time_point mark_;
  WorkerStats stats_;
  trace::WorkerSink* trace_sink_ = nullptr;
  audit::Auditor* audit_sink_ = nullptr;
  fault::FaultPlan* fault_plan_ = nullptr;
  Clock::time_point trace_epoch_{};
  u64 sink_ = 0;
};

static_assert(ExecutionContext<RContext>);

}  // namespace selfsched::exec
