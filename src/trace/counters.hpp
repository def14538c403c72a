// Scheduler metric counters: cheap always-on tallies of the events the
// paper's overhead analysis cares about but WorkerStats' phase buckets
// cannot resolve — SW scan and list-lock traffic in SEARCH, backoff
// pressure.  Each worker increments a
// private cacheline-padded slot (trace/recorder.hpp); the runner folds the
// slots into RunResult::counters.
#pragma once

#include "common/types.hpp"

namespace selfsched::trace {

struct Counters {
  u64 dispatches = 0;          // successful low-level grabs (chunks)
  u64 cas_retries = 0;         // always 0: no dispatch retries since every
                               // strategy grabs with one claim; kept for
                               // perfbench's cas_retries_per_dispatch
  u64 sw_scans = 0;            // SW leading-one-detection invocations
  u64 sw_summary_repairs = 0;  // hierarchical-SW fallback scans that healed
                               // a stale summary bit
  u64 search_probes = 0;       // SEARCH list-selection probes (local-list
                               // test or leading-one scan)
  u64 search_retries = 0;      // SEARCH rounds that selected a list but
                               // came away without attaching (stale bit or
                               // every instance saturated), plus attaches
                               // revoked by the post-attach index re-test
  u64 list_lock_failures = 0;  // failed try-locks on task-pool list locks
  u64 lock_acquisitions = 0;   // paper-lock acquisitions (list locks et al.)
  u64 backoff_iterations = 0;  // pause() calls across all spin loops
  u64 pool_appends = 0;        // ICBs appended to the task pool
  u64 pool_deletes = 0;        // ICBs unlinked from the task pool
  u64 audit_events = 0;        // invariant-auditor hooks delivered
  u64 audit_violations = 0;    // invariant violations the auditor recorded
  u64 cancellations = 0;       // runs cancelled (0 or 1 per run)
  u64 faults_injected = 0;     // armed fault-injection specs that fired
  u64 deadline_expirations = 0;  // deadlines that triggered cancellation
  u64 serve_submissions = 0;   // programs admitted by a serve::Service
  u64 serve_rejections = 0;    // submissions refused by admission control
  u64 serve_preemptions = 0;   // worker slices ended by the slice budget
                               // (SessionExit::kYield), not by completion
  u64 adapt_seeds = 0;         // adaptive-strategy seeding elections won
                               // (one per kAdaptive instance)
  u64 adapt_feedbacks = 0;     // per-chunk timing samples folded into an
                               // instance's body-time EWMA
  u64 adapt_retunes = 0;       // feedbacks that moved the tuned chunk size
  u64 shard_grants = 0;        // successful grabs from a sharded index
                               // (subset of dispatches; 0 on the flat path)
  u64 shard_steals = 0;        // shard grants taken from a non-home shard
                               // after the worker's home drained
  u64 cross_shard_ops = 0;     // sibling-shard probes (each steal attempt,
                               // successful or not)
  u64 serve_retries = 0;       // transient failures resubmitted into a
                               // fresh ProgramRun namespace
  u64 serve_watchdog_rescues = 0;  // stall-watchdog cancellations (the
                                   // rescue that classified a hang as
                                   // transient)
  u64 serve_quarantines = 0;   // tenant quarantine-breaker trips (including
                               // probation relapses)
  u64 serve_sheds = 0;         // pending submissions dropped (or arrivals
                               // refused) by overload shedding

  /// Visit (name, member pointer) of every counter — single source of truth
  /// for merge(), reports and exporters.
  template <typename Fn>
  static void for_each_field(Fn&& fn) {
    fn("dispatches", &Counters::dispatches);
    fn("cas_retries", &Counters::cas_retries);
    fn("sw_scans", &Counters::sw_scans);
    fn("sw_summary_repairs", &Counters::sw_summary_repairs);
    fn("search_probes", &Counters::search_probes);
    fn("search_retries", &Counters::search_retries);
    fn("list_lock_failures", &Counters::list_lock_failures);
    fn("lock_acquisitions", &Counters::lock_acquisitions);
    fn("backoff_iterations", &Counters::backoff_iterations);
    fn("pool_appends", &Counters::pool_appends);
    fn("pool_deletes", &Counters::pool_deletes);
    fn("audit_events", &Counters::audit_events);
    fn("audit_violations", &Counters::audit_violations);
    fn("cancellations", &Counters::cancellations);
    fn("faults_injected", &Counters::faults_injected);
    fn("deadline_expirations", &Counters::deadline_expirations);
    fn("serve_submissions", &Counters::serve_submissions);
    fn("serve_rejections", &Counters::serve_rejections);
    fn("serve_preemptions", &Counters::serve_preemptions);
    fn("adapt_seeds", &Counters::adapt_seeds);
    fn("adapt_feedbacks", &Counters::adapt_feedbacks);
    fn("adapt_retunes", &Counters::adapt_retunes);
    fn("shard_grants", &Counters::shard_grants);
    fn("shard_steals", &Counters::shard_steals);
    fn("cross_shard_ops", &Counters::cross_shard_ops);
    fn("serve_retries", &Counters::serve_retries);
    fn("serve_watchdog_rescues", &Counters::serve_watchdog_rescues);
    fn("serve_quarantines", &Counters::serve_quarantines);
    fn("serve_sheds", &Counters::serve_sheds);
  }

  void merge(const Counters& o) {
    for_each_field([&](const char*, u64 Counters::* m) { this->*m += o.*m; });
  }
};

}  // namespace selfsched::trace
