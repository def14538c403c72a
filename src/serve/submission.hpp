// One tenant submission to the resident scheduler service: the program, its
// admission metadata, and its private task-pool namespace (a ProgramRun,
// constructed at activation).  All mutable fields below the fence are
// guarded by the owning Service's mutex; the Service grants workers into
// `run->st` and the namespace machinery itself synchronizes from there.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "exec/real_context.hpp"
#include "program/tables.hpp"
#include "runtime/options.hpp"
#include "runtime/run_lifecycle.hpp"
#include "runtime/stats.hpp"
#include "serve/resilience.hpp"

namespace selfsched::serve {

/// Structured admission outcome.  Rejections are values, never exceptions:
/// under load a service refusing work is a normal result, and the caller's
/// retry/backpressure policy needs the reason, not an unwound stack.
enum class SubmitStatus : u32 {
  kAccepted,
  kQueueFull,       // queued submissions already at max_queue_depth
  kTooManyTenants,  // distinct in-flight tenants already at max_tenants
  kStopped,         // service is stopping; no new work
  kQuarantined,     // tenant's circuit breaker is open (cooldown running)
  kShed,            // overload shedding refused a lowest-tier arrival
};

inline const char* submit_status_name(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kQueueFull: return "queue-full";
    case SubmitStatus::kTooManyTenants: return "too-many-tenants";
    case SubmitStatus::kStopped: return "stopped";
    case SubmitStatus::kQuarantined: return "quarantined";
    case SubmitStatus::kShed: return "shed";
  }
  return "?";
}

/// Per-submission knobs.
struct SubmitOptions {
  /// Priority tier, 0 = highest; clamped to ServeOptions::priorities - 1.
  /// Dispatch is strict across tiers (a runnable higher tier always wins)
  /// and granted-cycle fair within a tier.
  u32 priority = 0;
  /// Tenant namespace id: fairness accounting and admission's distinct-
  /// tenant bound key on it.
  u64 tenant = 0;
  /// Deadline measured from submission (0 = none).  Expiry cancels this
  /// submission only — queued: finalized without running; active: the
  /// namespace's own deadline machinery cancels and drains it.  Ignored by
  /// the deterministic mode (host clocks are not replayable); use
  /// sched.deadline_vcycles there.
  i64 deadline_ms = 0;
  /// Scheduling options for this program's namespace.  The service forces
  /// on_body_error = kReturn and audit_abort = false (failures become
  /// structured results, never unwind a pooled worker) and manages
  /// deadline_ms itself.  audit_sink, if set, must be private to this
  /// submission — an Auditor shadows exactly one execution.
  runtime::SchedOptions sched;
  /// Per-tenant low-level dispatch strategy override.  When set it replaces
  /// sched.strategy (Doall dispatch only; sched.doacross_strategy is
  /// untouched — chunking a Doacross is a correctness-adjacent choice the
  /// tenant must make explicitly).  Lets one tenant run factoring while a
  /// latency-sensitive neighbor pins chunk:k.
  std::optional<runtime::Strategy> strategy;
  /// Per-tenant recovery policy override; unset = the service default
  /// (ServeOptions::resilience).  The arrival's effective policy governs
  /// its watchdog/retry/quarantine treatment AND the shed watermark its
  /// admission is evaluated under.
  std::optional<ResiliencePolicy> resilience;
};

/// Internal per-submission record.  Held by shared_ptr from the service
/// queues and from every Handle.
struct Submission {
  enum class State : u32 { kQueued, kActive, kFinished };

  explicit Submission(std::shared_ptr<const program::NestedLoopProgram> p)
      : prog(std::move(p)) {}

  // --- immutable after submit() ---
  u64 seq = 0;  // service-wide FIFO sequence number
  u64 tenant = 0;
  u32 priority = 0;
  /// Shared ownership (NestedLoopProgram is immutable after construction):
  /// the compiled tables outlive run->st no matter when the client lets go.
  std::shared_ptr<const program::NestedLoopProgram> prog;
  runtime::SchedOptions opts;       // sanitized by the service
  ResiliencePolicy policy;          // effective recovery policy
  i64 deadline_ms = 0;
  std::chrono::steady_clock::time_point submitted_at{};
  std::chrono::steady_clock::time_point deadline_at{};
  u64 vsubmitted = 0;  // deterministic mode: virtual clock at submit

  /// Set by Handle::cancel() under the service mutex; polled lock-free at
  /// slice starts by granted workers.
  std::atomic<bool> cancel_flag{false};

  // --- guarded by the service mutex ---
  State state = State::kQueued;
  bool seeded = false;     // a worker has claimed the seeding duty
  bool done_flag = false;  // a worker session returned kDone
  /// The namespace's last slice yielded without dispatching anything:
  /// nothing was attachable the whole session.  While a worker remains
  /// inside, granting more would only buy SEARCH spins, so dispatch skips
  /// the namespace; any productive slice clears the mark.
  bool stalled = false;
  u32 workers_in = 0;      // workers currently granted into the namespace
  u64 granted = 0;         // worker time granted (ns; vcycles when det.)
  u64 queue_wait = 0;      // total time queued, across every attempt
                           // (ns; vcycles when det.)
  u64 slices = 0;
  u64 preemptions = 0;
  // --- retry trajectory (granted/slices/queue_wait accumulate across
  //     attempts; fairness charges the tenant for retried cycles too) ---
  u32 attempts = 0;        // completed attempts that were retried
  std::chrono::steady_clock::time_point not_before{};  // backoff gate
  u64 vnot_before = 0;     // deterministic-mode backoff gate (vcycles)
  std::chrono::steady_clock::time_point queued_since{};  // (re)queue time
  u64 vqueued_since = 0;
  u64 prior_audit_violations = 0;  // violations from retried attempts
  std::chrono::steady_clock::time_point started_at{};
  std::unique_ptr<runtime::ProgramRun<exec::RContext>> run;
  std::optional<runtime::RunResult> result;
};

}  // namespace selfsched::serve
