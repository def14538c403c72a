// Scheduler metric counters: cheap always-on tallies of the events the
// paper's overhead analysis cares about but WorkerStats' phase buckets
// cannot resolve — SW scan and list-lock traffic in SEARCH, backoff
// pressure.  Each worker increments a
// private cacheline-padded slot (trace/recorder.hpp); the runner folds the
// slots into RunResult::counters.
#pragma once

#include "common/types.hpp"

namespace selfsched::trace {

// The counter list, one X(name) per field with its meaning.  The struct's
// fields and for_each_field (which merge(), the reports and the exporters
// iterate) are both generated from it, so a counter added here is merged
// and exported with no second list to keep in step.  The order is the
// struct's layout and the exporters' column order: append at the end.
// clang-format off
#define SELFSCHED_COUNTERS(X)                                                 \
  X(dispatches)             /* successful low-level grabs (chunks) */         \
  X(cas_retries)            /* always 0: no dispatch retries since every      \
                               strategy grabs with one claim; kept for        \
                               perfbench's cas_retries_per_dispatch */        \
  X(sw_scans)               /* SW leading-one-detection invocations */        \
  X(search_probes)          /* SEARCH list-selection probes (local-list       \
                               test or leading-one scan) */                   \
  X(search_retries)         /* SEARCH rounds that selected a list but came    \
                               away without attaching (stale bit or every     \
                               instance saturated), plus attaches revoked     \
                               by the post-attach index re-test */            \
  X(list_lock_failures)     /* failed try-locks on task-pool list locks */    \
  X(lock_acquisitions)      /* paper-lock acquisitions (list locks et al.) */ \
  X(backoff_iterations)     /* pause() calls across all spin loops */         \
  X(pool_appends)           /* ICBs appended to the task pool */              \
  X(pool_deletes)           /* ICBs unlinked from the task pool */            \
  X(audit_events)           /* invariant-auditor hooks delivered */           \
  X(audit_violations)       /* invariant violations the auditor recorded */   \
  X(cancellations)          /* runs cancelled (0 or 1 per run) */             \
  X(faults_injected)        /* armed fault-injection specs that fired */      \
  X(deadline_expirations)   /* deadlines that triggered cancellation */       \
  X(serve_submissions)      /* programs admitted by a serve::Service */       \
  X(serve_rejections)       /* submissions refused by admission control */    \
  X(serve_preemptions)      /* worker slices ended by the slice budget        \
                               (SessionExit::kYield), not by completion */    \
  X(shard_grants)           /* successful grabs from a sharded index          \
                               (subset of dispatches; 0 on the flat path) */  \
  X(shard_steals)           /* shard grants taken from a non-home shard       \
                               after the worker's home drained */             \
  X(cross_shard_ops)        /* sibling-shard probes (each steal attempt,      \
                               successful or not) */                          \
  X(serve_retries)          /* transient failures resubmitted into a fresh    \
                               ProgramRun namespace */                        \
  X(serve_watchdog_rescues) /* stall-watchdog cancellations (the rescue       \
                               that classified a hang as transient) */        \
  X(serve_quarantines)      /* tenant quarantine-breaker trips (including     \
                               probation relapses) */                         \
  X(serve_sheds)            /* pending submissions dropped (or arrivals       \
                               refused) by overload shedding */               \
  X(serve_reuses)           /* activations that reset a drained namespace     \
                               from the service's free list instead of        \
                               building one */
// clang-format on

struct Counters {
#define SELFSCHED_COUNTER_FIELD(name) u64 name = 0;
  SELFSCHED_COUNTERS(SELFSCHED_COUNTER_FIELD)
#undef SELFSCHED_COUNTER_FIELD

  /// Visit (name, member pointer) of every counter — single source of truth
  /// for merge(), reports and exporters.
  template <typename Fn>
  static void for_each_field(Fn&& fn) {
#define SELFSCHED_COUNTER_VISIT(name) fn(#name, &Counters::name);
    SELFSCHED_COUNTERS(SELFSCHED_COUNTER_VISIT)
#undef SELFSCHED_COUNTER_VISIT
  }

  void merge(const Counters& o) {
    for_each_field([&](const char*, u64 Counters::* m) { this->*m += o.*m; });
  }
};

#undef SELFSCHED_COUNTERS

}  // namespace selfsched::trace
