// The resident multi-nest scheduler service ("the daemon"): one persistent
// worker pool executing many concurrent nested-loop programs, each in its
// own task-pool namespace.
//
// Shape (docs/serving.md has the full lifecycle diagram):
//
//   submit -> admit -> [priority queues] -> dispatch -> slices -> drain
//
//   * submit: admission control is bounded and structured — a full queue or
//     too many distinct tenants yields a SubmitStatus, never an exception.
//   * dispatch: free workers self-arbitrate under one service mutex.  They
//     activate queued submissions (FIFO per priority bucket) while fewer
//     than max_active are live, then pick the runnable submission by the
//     key (priority, staffed, tenant charge, resident workers, seq): the
//     highest non-empty priority tier; within it, a namespace with no
//     resident worker before any staffed one (the paper's SEARCH sends a
//     free processor only where processors are still needed); within each
//     of those classes, the one whose TENANT has been granted the least
//     worker time (async-priority-scheduler shape: pull from priority
//     heaps, prove fairness with granted-cycle counters); then the
//     namespace with the fewest resident workers; then FIFO seq.
//   * activation: a namespace comes from the service's free list of
//     drained ones when it has one (ProgramRun::reset) and is built only
//     when it is empty; see "drain".
//   * slices: a granted worker runs runtime::worker_session against the
//     submission's namespace until the program finishes or the slice budget
//     expires (SessionExit::kYield), then re-arbitrates — so one pool
//     timeshares any number of programs without sharing a single sync var
//     across namespaces.
//   * drain: the last worker out of a finished namespace folds it into a
//     RunResult (per-tenant rows included) and wakes awaiters.  A namespace
//     that drained clean goes back to the free list (at most max_active of
//     them); a failed or cancelled one is destroyed after the mutex is
//     released.
//
// Per-tenant deadlines and Handle::cancel ride the existing fault layer:
// the namespace is cancelled via fail_run/poisoned indexes and drained by
// its own drain_cancelled — neighbors never notice.
//
// Deterministic mode (ServeOptions::deterministic): no threads.  await()
// drives the same admission/arbitration loop synchronously, executing each
// granted submission to completion on the virtual-time engine; grant_log()
// plus each result's schedule_decisions make the service's scheduling
// bit-replayable.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/thread_team.hpp"
#include "runtime/worker.hpp"
#include "serve/submission.hpp"
#include "trace/counters.hpp"

namespace selfsched::serve {

struct ServeOptions {
  /// Number of priority tiers (>= 1); SubmitOptions::priority is clamped.
  u32 priorities = 2;
  /// Admission: max submissions queued (admitted, not yet activated).
  u32 max_queue_depth = 64;
  /// Admission: max distinct tenants with unfinished submissions.
  u32 max_tenants = 16;
  /// Max concurrently executing namespaces (scheduling knob, not an
  /// admission bound — excess admitted work queues).
  u32 max_active = 4;
  /// Worker slice budget in microseconds before re-arbitration.
  i64 slice_us = 500;
  /// Deterministic virtual-time mode: no worker threads; await() drives
  /// grants synchronously, each executing a whole program via run_vtime
  /// with schedule recording on.
  bool deterministic = false;
  /// Service-default recovery policy (stall watchdog, retry-with-backoff,
  /// quarantine breaker, overload shedding); SubmitOptions::resilience
  /// overrides it per submission.  Default-constructed = everything off,
  /// and the service is bit-identical to the pre-resilience daemon.
  /// Deterministic-mode note: a grant runs a whole program, so a namespace
  /// wedged by an indefinite injected stall only terminates if a watchdog
  /// (or deadline_vcycles) is armed for it.
  ResiliencePolicy resilience;
};

class Service;

/// Client-side reference to one submission.  Copyable; must not outlive
/// its Service.
class Handle {
 public:
  Handle() = default;
  bool valid() const { return sub_ != nullptr; }
  u64 id() const { return sub_ ? sub_->seq : 0; }
  u64 tenant() const { return sub_ ? sub_->tenant : 0; }

  /// Block until this submission finishes; returns its RunResult
  /// (RunResult::failure set for cancelled/deadline/failed runs — the
  /// service never throws on behalf of a program).  In deterministic mode
  /// this drives the service's grant loop.
  runtime::RunResult await();

  bool done() const;

  /// Request cancellation.  Queued: finalized immediately with a
  /// kCancelled failure.  Active: the next granted worker cancels the
  /// namespace, which drains through the fault layer.  Returns false if
  /// the submission had already finished.
  bool cancel();

 private:
  friend class Service;
  Handle(Service* svc, std::shared_ptr<Submission> sub)
      : svc_(svc), sub_(std::move(sub)) {}

  Service* svc_ = nullptr;
  std::shared_ptr<Submission> sub_;
};

struct SubmitOutcome {
  SubmitStatus status = SubmitStatus::kStopped;
  Handle handle;  // valid iff status == kAccepted
  bool accepted() const { return status == SubmitStatus::kAccepted; }
};

class Service {
 public:
  /// @param procs  size of the resident worker pool (threads mode) /
  ///   simulated processors per granted run (deterministic mode).
  explicit Service(u32 procs, ServeOptions opts = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admit a program.  The service shares ownership (NestedLoopProgram is
  /// immutable after construction), so one program may back many
  /// submissions.  Never throws on rejection — inspect
  /// SubmitOutcome::status.
  SubmitOutcome submit(std::shared_ptr<const program::NestedLoopProgram> prog,
                       SubmitOptions s = {});

  /// Convenience: move a freshly built program into the service.
  SubmitOutcome submit(program::NestedLoopProgram&& prog,
                       SubmitOptions s = {}) {
    return submit(std::make_shared<const program::NestedLoopProgram>(
                      std::move(prog)),
                  s);
  }

  /// Stop accepting work, drain everything already admitted, park the
  /// pool.  Idempotent; the destructor calls it.
  void stop();

  u32 procs() const { return procs_; }
  const ServeOptions& options() const { return opts_; }

  /// Aggregated per-tenant fairness rows: finished totals plus the granted
  /// time of still-active submissions — so a snapshot taken mid-load
  /// reflects cycles granted up to this instant.
  std::vector<runtime::TenantStats> tenant_snapshot() const;

  /// Service-level counters (serve_submissions / serve_rejections /
  /// serve_preemptions / serve_retries / serve_watchdog_rescues /
  /// serve_quarantines / serve_sheds / serve_reuses).
  trace::Counters counters() const;

  /// Per-tenant resilience health rows: breaker state, retry/failure/
  /// completion tallies, whether anything is in flight or mid-retry.
  std::vector<TenantHealthRow> health_snapshot() const;

  /// Deterministic mode: submission seqs in grant order.  Together with
  /// each result's schedule_decisions this is the complete, bit-replayable
  /// scheduling history.
  std::vector<u64> grant_log() const;

 private:
  friend class Handle;

  using Namespace = runtime::ProgramRun<exec::RContext>;

  struct SliceResult {
    runtime::SessionExit exit;
    u64 charged_ns;  // thread CPU time consumed (fairness accounting)
    u64 iterations;  // dispatched by this session (stall detection)
  };

  runtime::RunResult await(const std::shared_ptr<Submission>& sub);
  bool await_poll(const std::shared_ptr<Submission>& sub) const;
  bool cancel(const std::shared_ptr<Submission>& sub);

  void worker_main(ProcId id);
  SliceResult run_slice(ProcId id, Submission& sub, bool do_seed);

  // All *_locked members require mu_.
  bool grantable_locked() const;
  bool ready_locked(const Submission& sub) const;  // past its backoff gate
  u64 now_stamp_locked() const;  // ns since epoch_ (threads) / vnow_ (det)
  std::shared_ptr<Submission> pop_queued_locked();
  void activate_locked(const std::shared_ptr<Submission>& sub);
  std::shared_ptr<Submission> admit_and_pick_locked();
  u64 tenant_charge_locked(u64 tenant) const;
  void finalize_unrun_locked(Submission& sub,
                             fault::FailureRecord::Kind kind,
                             const char* message);
  /// Returns the finished namespace when it was not kept for reuse; the
  /// caller destroys it after releasing mu_.
  std::unique_ptr<Namespace> finalize_run_locked(
      const std::shared_ptr<Submission>& sub);
  bool should_retry_locked(const Submission& sub,
                           const runtime::RunResult& r) const;
  void schedule_retry_locked(const std::shared_ptr<Submission>& sub,
                             const runtime::RunResult& r);
  void record_terminal_locked(Submission& sub, const runtime::RunResult& r);
  void retire_locked(Submission& sub, const runtime::TenantStats& row);
  void drive_one_locked(std::unique_lock<std::mutex>& lk);

  const u32 procs_;
  const ServeOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: runnable work or stop
  std::condition_variable done_cv_;  // awaiters: results / driver turnover
  bool stopping_ = false;
  u64 next_seq_ = 1;
  u32 queued_ = 0;  // entries in queues_ still in State::kQueued
  std::vector<std::deque<std::shared_ptr<Submission>>> queues_;
  std::vector<std::shared_ptr<Submission>> active_;
  /// Drained namespaces that finished clean, reset in place by the next
  /// activation instead of being rebuilt (at most max_active).
  std::vector<std::unique_ptr<Namespace>> spare_;
  std::unordered_map<u64, u32> tenants_inflight_;
  std::unordered_map<u64, runtime::TenantStats> tenant_totals_;
  std::unordered_map<u64, TenantHealth> health_;
  std::chrono::steady_clock::time_point epoch_;  // threads health time base
  trace::Counters counters_;
  std::vector<u64> grant_log_;
  u64 vnow_ = 0;          // deterministic mode: virtual clock
  bool driving_ = false;  // deterministic mode: one driver at a time

  std::unique_ptr<exec::ThreadTeam> team_;
  std::thread pump_;  // hosts worker 0 and ThreadTeam::run's barrier
  std::once_flag pump_join_;
};

}  // namespace selfsched::serve
