// Per-worker fixed-capacity event ring buffer (flight recorder).
//
// Each worker owns one EventRing and is its only producer; the harness
// harvests after the team joins (the join is the synchronization point), so
// the ring needs no per-slot synchronization.  The write index is still an
// atomic so a monitor thread may cheaply sample the event count of a live
// run.  On overflow the ring wraps and overwrites the oldest record —
// keeping the most recent window, which is the useful one when a run
// misbehaves at the end — and counts what it dropped.
//
// The rings are filled by the hooks in trace/recorder.hpp, which compile to
// nothing on a context without the instrumentation accessors
// (exec::InstrumentedContext, exec/context.hpp).
#pragma once

#include <atomic>
#include <bit>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace selfsched::trace {

/// What a TraceEvent describes.  Kinds mirror the scheduler's phase split
/// (exec::Phase) at event granularity: one record per dispatched chunk, per
/// SEARCH, per EXIT walk, per instance activation, per Doacross stall, per
/// ICB teardown.
enum class EventKind : u32 {
  kChunk,         // body execution of one dispatched chunk of iterations
  kSearch,        // SEARCH: entry to attach (or to termination)
  kExit,          // EXIT level walk + successor ENTER activations
  kEnter,         // one instance activated (ICB appended to the pool)
  kDoacrossWait,  // stall on a cross-iteration dependence flag
  kTeardown,      // pcount drain + ICB release by the last completer
};
inline constexpr std::size_t kNumEventKinds = 6;

const char* event_kind_name(EventKind k);

/// One scheduler event.  `start`/`end` are virtual cycles (vtime engine) or
/// nanoseconds since the run epoch (threaded engine).  The meaning of
/// `first`/`count` depends on the kind:
///   kChunk         first grabbed iteration / iterations in the chunk
///   kSearch        task-pool list index (-1 at termination) / list nodes
///                  walked
///   kExit          resume level returned by the walk / 0
///   kEnter         1 / instance bound (iterations activated)
///   kDoacrossWait  waiting iteration j / dependence distance
///   kTeardown      0 / 0
struct TraceEvent {
  ProcId worker = 0;
  EventKind kind = EventKind::kChunk;
  LoopId loop = kNoLoop;  // kNoLoop for events not tied to a loop
  u64 ivec_hash = 0;      // hash_prefix of the instance's index vector
  i64 first = 0;
  i64 count = 0;
  Cycles start = 0;
  Cycles end = 0;
};

class EventRing {
 public:
  /// Capacity 0 disables the ring (push becomes a counted no-op).
  EventRing() = default;

  explicit EventRing(u32 capacity) { reset(capacity); }

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// (Re)size to the next power of two >= capacity and clear.
  void reset(u32 capacity) {
    cap_ = capacity == 0 ? 0 : std::bit_ceil(capacity);
    slots_ = cap_ == 0 ? nullptr : std::make_unique<TraceEvent[]>(cap_);
    pushed_.store(0, std::memory_order_relaxed);
  }

  u32 capacity() const { return cap_; }

  void push(const TraceEvent& ev) {
    const u64 n = pushed_.load(std::memory_order_relaxed);
    if (cap_ != 0) slots_[n & (cap_ - 1)] = ev;
    pushed_.store(n + 1, std::memory_order_release);
  }

  /// Events ever pushed (including overwritten ones).
  u64 total_pushed() const { return pushed_.load(std::memory_order_acquire); }

  /// Events currently held.
  u64 size() const { return std::min<u64>(total_pushed(), cap_); }

  /// Events lost to wrap (and, for a capacity-0 ring, every push).
  u64 dropped() const { return total_pushed() - size(); }

  /// Copy out the held events, oldest first.  Call only after the producer
  /// has finished (e.g. after the worker thread joined).
  std::vector<TraceEvent> snapshot() const {
    const u64 n = total_pushed();
    const u64 held = std::min<u64>(n, cap_);
    std::vector<TraceEvent> out;
    out.reserve(static_cast<std::size_t>(held));
    for (u64 k = n - held; k < n; ++k) {
      out.push_back(slots_[k & (cap_ - 1)]);
    }
    return out;
  }

 private:
  u32 cap_ = 0;
  std::unique_ptr<TraceEvent[]> slots_;
  std::atomic<u64> pushed_{0};
};

}  // namespace selfsched::trace
