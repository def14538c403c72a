// The run-wide trace recorder and the instrumentation hooks the scheduler
// templates call.
//
// A Recorder owns one cacheline-padded WorkerSink per processor: an event
// ring (populated only when SchedOptions::trace_events is set) plus the
// always-on metric counters.  Execution contexts carry a WorkerSink pointer
// (set by the runners in runtime/scheduler.cpp); the hooks below reach it
// through `ctx.trace_sink()` and timestamp events with `ctx.trace_now()` —
// virtual cycles on the vtime engine, nanoseconds since the recorder epoch
// on real threads.  The same instrumented scheduler source therefore emits
// the same event stream from both engines.
//
// Cost discipline:
//   * counters:  one predictable branch + one private-cacheline add;
//   * events off: one branch per would-be event (no clock read);
//   * events on (vtime): clock reads do not advance virtual time, so the
//     simulated run is bit-identical with tracing on or off;
//   * a context without the instrumentation accessors
//     (exec::InstrumentedContext): every hook is a constant-folded no-op.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "common/cacheline.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "exec/context.hpp"
#include "trace/counters.hpp"
#include "trace/ring.hpp"

namespace selfsched::trace {

struct alignas(kCacheLine) WorkerSink {
  Counters counters;
  EventRing ring;
  bool events_on = false;
};

class Recorder {
 public:
  /// @param events_on     gate for the event rings (counters always run)
  /// @param ring_capacity per-worker ring capacity when events are on
  Recorder(u32 procs, bool events_on, u32 ring_capacity)
      : sinks_(std::make_unique<WorkerSink[]>(procs)), procs_(procs) {
    SS_CHECK(procs > 0);
    reset(events_on, ring_capacity);
  }

  /// Zero every counter slot, empty the rings and restart the epoch, as
  /// for a fresh run (namespace reuse).  No worker may be recording.
  void reset(bool events_on, u32 ring_capacity) {
    for (u32 id = 0; id < procs_; ++id) {
      sinks_[id].counters = Counters{};
      sinks_[id].events_on = events_on;
      sinks_[id].ring.reset(events_on ? ring_capacity : 0);
    }
    epoch_ = std::chrono::steady_clock::now();
  }

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  u32 procs() const { return procs_; }

  WorkerSink& sink(ProcId id) {
    SS_DCHECK(id < procs_);
    return sinks_[id];
  }

  /// Timestamp origin for real-time contexts (construct the Recorder just
  /// before the team starts so event times ~align with the makespan clock).
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Fold the per-worker counter slots.
  Counters fold_counters() const {
    Counters total;
    for (u32 id = 0; id < procs_; ++id) total.merge(sinks_[id].counters);
    return total;
  }

  /// Merge all rings, sorted by (start, worker).  Post-run only.
  std::vector<TraceEvent> harvest_events() const {
    std::vector<TraceEvent> out;
    for (u32 id = 0; id < procs_; ++id) {
      const auto evs = sinks_[id].ring.snapshot();
      out.insert(out.end(), evs.begin(), evs.end());
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.start != b.start ? a.start < b.start
                                          : a.worker < b.worker;
              });
    return out;
  }

  u64 events_dropped() const {
    u64 d = 0;
    for (u32 id = 0; id < procs_; ++id) d += sinks_[id].ring.dropped();
    return d;
  }

 private:
  std::unique_ptr<WorkerSink[]> sinks_;
  u32 procs_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

// ---------------------------------------------------------------------------
// Hooks.  Templated on the execution context; a context without the
// instrumentation accessors (exec::InstrumentedContext) compiles every hook
// away.
// ---------------------------------------------------------------------------

/// Sentinel returned by event_begin when no event should be recorded.
inline constexpr Cycles kTraceOff = -1;

/// Add to one metric counter.
template <typename C>
inline void bump(C& ctx, u64 Counters::* m, u64 n = 1) {
  if constexpr (exec::InstrumentedContext<C>) {
    if (WorkerSink* s = ctx.trace_sink()) s->counters.*m += n;
  }
}

/// Start timestamp for an event, or kTraceOff when events are disabled.
/// Events are a debug mode, so the recording branch is marked unlikely and
/// hot loops keep the events-off path straight.
template <typename C>
inline Cycles event_begin(C& ctx) {
  if constexpr (exec::InstrumentedContext<C>) {
    if (WorkerSink* s = ctx.trace_sink(); s != nullptr && s->events_on)
        [[unlikely]] {
      return ctx.trace_now();
    }
  }
  return kTraceOff;
}

/// Record the event opened by event_begin (no-op when it returned kTraceOff).
template <typename C>
inline void event_end(C& ctx, Cycles t0, EventKind kind, LoopId loop,
                      u64 ivec_hash, i64 first, i64 count) {
  if constexpr (exec::InstrumentedContext<C>) {
    if (t0 == kTraceOff) return;
    WorkerSink* s = ctx.trace_sink();
    s->ring.push(TraceEvent{ctx.proc(), kind, loop, ivec_hash, first, count,
                            t0, ctx.trace_now()});
  }
}

/// Hash of the meaningful prefix of an instance's index vector — stable
/// across engines, lets two runs be compared instance-by-instance.
inline u64 ivec_hash(const IndexVec& ivec, Level depth) {
  return hash_prefix(ivec, std::min<std::size_t>(depth, ivec.size()));
}

}  // namespace selfsched::trace
