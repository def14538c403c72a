// Invariant-auditor instrumentation hooks, mirroring trace/recorder.hpp's
// pattern: the scheduler templates call the named wrappers below; they reach
// the auditor through
//
//     audit::Auditor* audit_sink()
//
// one of the exec::InstrumentedContext accessors (both RContext and
// VContext provide them).  A context without the accessors compiles every
// hook away to nothing; bench_hook_overhead measures that bare build against
// a null and a live auditor.
//
// Ordering rule: a hook that updates an ICB's shadow fires BEFORE the sync
// op that can make that ICB reclaimable.  A detach's {pcount ; Decrement}
// is such an op: once it lands, the completer may release the ICB and
// another worker may re-acquire it, and a hook delivered after that would
// be charged to the next generation.  A check that needs the op's fetched
// value fires after it and must not touch the ICB's shadow
// (on_detach_fetched).
//
// Layering: this header depends only on audit/auditor.hpp, exec/context.hpp
// (for the concept) and trace/ (for counter folding); the runtime headers
// include it, never the reverse.
#pragma once

#include <cstddef>
#include <string>

#include "audit/auditor.hpp"
#include "common/types.hpp"
#include "exec/context.hpp"
#include "trace/recorder.hpp"

namespace selfsched::audit {

/// Host-side read of a context synchronization variable — no sync_op, so no
/// virtual-time charge and no schedule perturbation.  Sound only where the
/// caller already owns the ordering (inside the lock protecting the value,
/// or at quiescence after every worker has joined).
template <typename S>
inline i64 sync_peek(S& s) {
  return s.load();
}

namespace detail {

/// Fold one hook delivery (and any violations it recorded) into the trace
/// counters so audited runs report audit_* next to the protocol counters.
template <typename C>
inline void account(C& ctx, u32 violations) {
  trace::bump(ctx, &trace::Counters::audit_events);
  if (violations != 0) {
    trace::bump(ctx, &trace::Counters::audit_violations, violations);
  }
}

}  // namespace detail

// Every wrapper has the same shape: instrumented context + installed sink,
// else a constant-folded no-op.
#define SS_AUDIT_HOOK_BODY(call)                \
  if constexpr (exec::InstrumentedContext<C>) { \
    if (Auditor* a = ctx.audit_sink()) {        \
      detail::account(ctx, a->call);            \
    }                                           \
  }

template <typename C>
inline void on_acquire(C& ctx, const void* icb) {
  SS_AUDIT_HOOK_BODY(on_acquire(ctx.proc(), icb))
}

template <typename C>
inline void on_publish(C& ctx, const void* icb, LoopId loop, u64 ivec_hash,
                       i64 bound, u32 list, u32 shards = 1) {
  SS_AUDIT_HOOK_BODY(
      on_publish(ctx.proc(), icb, loop, ivec_hash, bound, list, shards))
}

/// Convenience wrapper over on_publish for call sites holding the ICB
/// itself: derives (loop, ivec hash, bound) from its fields, and — unlike
/// spelling the arguments at the call site — only computes the ivec hash
/// when the hook is live.
template <typename C, typename IcbT>
inline void on_publish_icb(C& ctx, const IcbT* ip, u32 list) {
  if constexpr (exec::InstrumentedContext<C>) {
    if (Auditor* a = ctx.audit_sink()) {
      detail::account(
          ctx, a->on_publish(ctx.proc(), ip, ip->loop,
                             trace::ivec_hash(ip->ivec, ip->depth), ip->bound,
                             list, ip->num_shards));
    }
  }
}

template <typename C>
inline void on_attach(C& ctx, const void* icb) {
  SS_AUDIT_HOOK_BODY(on_attach(ctx.proc(), icb))
}

template <typename C>
inline void on_attach_revoked(C& ctx, const void* icb) {
  SS_AUDIT_HOOK_BODY(on_attach_revoked(ctx.proc(), icb))
}

/// Detach balance of `icb`.  Fires before the {pcount ; Decrement} (see
/// the ordering rule at the top of this file).
template <typename C>
inline void on_detach(C& ctx, const void* icb) {
  SS_AUDIT_HOOK_BODY(on_detach(ctx.proc(), icb))
}

/// The fetched value of a detach's {pcount ; Decrement}.  Fires after the
/// decrement and touches no per-ICB state, so it is safe even when the ICB
/// has been released and recycled in between.
template <typename C>
inline void on_detach_fetched(C& ctx, i64 pcount_before) {
  SS_AUDIT_HOOK_BODY(on_detach_fetched(ctx.proc(), pcount_before))
}

template <typename C>
inline void on_dispatch(C& ctx, const void* icb, i64 first, i64 count) {
  SS_AUDIT_HOOK_BODY(on_dispatch(ctx.proc(), icb, first, count))
}

template <typename C>
inline void on_complete(C& ctx, const void* icb, i64 icount_before,
                        i64 count) {
  SS_AUDIT_HOOK_BODY(on_complete(ctx.proc(), icb, icount_before, count))
}

/// Successful grab of [first, first+count) from shard `shard` of a sharded
/// index; `stolen` marks a grant from a non-home shard.
template <typename C>
inline void on_shard_grant(C& ctx, const void* icb, u32 shard, i64 first,
                           i64 count, bool stolen) {
  SS_AUDIT_HOOK_BODY(
      on_shard_grant(ctx.proc(), icb, shard, first, count, stolen))
}

/// The grab above took shard `shard`'s final iteration; `elected` marks the
/// sched_done increment that won the instance-wide completion election.
template <typename C>
inline void on_shard_exhaust(C& ctx, const void* icb, u32 shard,
                             bool elected) {
  SS_AUDIT_HOOK_BODY(on_shard_exhaust(ctx.proc(), icb, shard, elected))
}

template <typename C>
inline void on_unlink(C& ctx, const void* icb) {
  SS_AUDIT_HOOK_BODY(on_unlink(ctx.proc(), icb))
}

template <typename C>
inline void on_release(C& ctx, const void* icb) {
  SS_AUDIT_HOOK_BODY(on_release(ctx.proc(), icb))
}

template <typename C>
inline void on_da_post(C& ctx, const void* icb, i64 j) {
  SS_AUDIT_HOOK_BODY(on_da_post(ctx.proc(), icb, j))
}

template <typename C>
inline void on_bar_count(C& ctx, u32 loop_uid, bool created, i64 count,
                         i64 bound, bool tripped) {
  SS_AUDIT_HOOK_BODY(
      on_bar_count(ctx.proc(), loop_uid, created, count, bound, tripped))
}

template <typename C>
inline void on_terminate(C& ctx) {
  SS_AUDIT_HOOK_BODY(on_terminate(ctx.proc()))
}

template <typename C>
inline void on_cancel(C& ctx) {
  SS_AUDIT_HOOK_BODY(on_cancel(ctx.proc()))
}

#undef SS_AUDIT_HOOK_BODY

/// Structural check of one task-pool list, called while its lock is still
/// held (so the walk is race-free) right after a lock region restored the
/// control word: head/tail agreement, left/right back-link consistency,
/// cycle boundedness, and SW-bit/list-emptiness agreement.  `sw_bit_fn` is
/// invoked (only when the hook is live) to host-side-peek SW(list) — all
/// SW(list) mutations happen under list `list`'s lock, so the peek is exact
/// here.
template <typename C, typename Node, typename SwBitFn>
inline void check_list(C& ctx, u32 list, const Node* head, const Node* tail,
                       SwBitFn&& sw_bit_fn) {
  if constexpr (exec::InstrumentedContext<C>) {
    Auditor* a = ctx.audit_sink();
    if (a == nullptr) return;
    const bool sw_bit = sw_bit_fn();
    std::string problem;
    if ((head == nullptr) != (tail == nullptr)) {
      problem = "one of head/tail null, the other not";
    } else if (sw_bit != (head != nullptr)) {
      problem = head != nullptr ? "SW bit clear on a non-empty list"
                                : "SW bit set on an empty list";
    } else {
      constexpr std::size_t kMaxSteps = std::size_t{1} << 22;
      const Node* prev = nullptr;
      const Node* p = head;
      std::size_t steps = 0;
      while (p != nullptr) {
        if (p->left != prev) {
          problem = "left back-link does not match the predecessor";
          break;
        }
        if (++steps > kMaxSteps) {
          problem = "walk exceeded the step bound (cycle?)";
          break;
        }
        prev = p;
        p = p->right;
      }
      if (problem.empty() && prev != tail) {
        problem = "forward walk did not end at tail";
      }
    }
    if (!problem.empty()) {
      detail::account(ctx, a->on_list_violation(ctx.proc(), list, problem));
    } else {
      detail::account(ctx, 0);
    }
  }
}

}  // namespace selfsched::audit
