// Low-level self-scheduling strategies (§II-C, §IV): how many iterations a
// processor grabs from an instance's shared `index` variable per dispatch.
//
//   kSelf        one iteration per fetch&increment — the original HEP-style
//                self-scheduling [7]; also the SDSS discipline for Doacross
//                loops [16] (chunking a Doacross serializes k-1 of every k
//                iterations, §I).
//   kChunk       fixed chunk of k iterations per fetch&add(k) — Eq. (7)'s
//                parameter k.
//   kGSS         guided self-scheduling [14]: grab ceil(remaining / P).
//   kFactoring   grab ceil(remaining / (2P)) — a batch-free rendition of
//                Hummel/Schonberg/Flynn factoring (extension).
//   kTrapezoid   trapezoid self-scheduling (Tzen/Ni): linearly decreasing
//                chunks from `first` to `last` (extension).
//
// The step number is the grab.  Every strategy numbers its grabs 0..N-1,
// and the number alone fixes where a grant starts and how long it is
// (step_at) — Eleliemy & Ciorba's distributed chunk calculation.  The
// guided kinds' starts follow a recurrence, which ENTER walks once per
// instance into a table on the ICB, so every grab is O(1).
// ENTER stores N (plan_steps) in Icb::steps, and a grab is one claim on the
// step counter `index`: ctx_claim(index, N, 1) (runtime/ctx_sync.hpp), the
// paper's {index <= N ; Fetch&Add(1)}.  Steps 0..N-1 are each granted once
// in any interleaving, so a contended run hands out exactly a serial
// drain's grants.
//
// vtime runs the claim as the tested instruction; real cores run it as one
// unconditional fetch&add that succeeds iff the fetched value is <= N, so a
// failed claim leaves index somewhere past N+1.  That overshoot is
// invisible: index only grows once published (the poison store writes
// N+1), and every reader only compares it against N (Icb::index).
//
// Cancellation containment: every flat grab is gated on {index <= N}
// through ctx_claim's fetched value, so poisoning index to N+1 stops all of
// them — see poison_pool in high_level.hpp.
#pragma once

#include <algorithm>

#include "audit/hooks.hpp"
#include "common/check.hpp"
#include "common/shard_math.hpp"
#include "exec/context.hpp"
#include "runtime/ctx_sync.hpp"
#include "runtime/icb.hpp"
#include "trace/recorder.hpp"

namespace selfsched::runtime {

struct Strategy {
  // Values are pinned: fuzz repro files store them.  5, 6, 7, 8 and 9 were
  // the deleted batched-factoring, weighted-factoring, tuned-trapezoid,
  // random-steal and online-tuned (kAdaptive) kinds; do not reuse them.
  enum class Kind : u32 {
    kSelf = 0,
    kChunk = 1,
    kGSS = 2,
    kFactoring = 3,
    kTrapezoid = 4,
  };

  Kind kind = Kind::kSelf;
  i64 chunk = 1;      // kChunk: fixed size; kGSS/kFactoring: minimum chunk
  i64 tss_first = 0;  // kTrapezoid: first chunk (0 = auto)
  i64 tss_last = 1;   // kTrapezoid: final chunk

  static Strategy self() { return {Kind::kSelf}; }
  static Strategy chunked(i64 k) {
    SS_CHECK(k >= 1);
    return {Kind::kChunk, k};
  }
  static Strategy gss(i64 min_chunk = 1) {
    SS_CHECK(min_chunk >= 1);
    return {Kind::kGSS, min_chunk};
  }
  static Strategy factoring(i64 min_chunk = 1) {
    SS_CHECK(min_chunk >= 1);
    return {Kind::kFactoring, min_chunk};
  }
  static Strategy trapezoid(i64 first = 0, i64 last = 1) {
    SS_CHECK(last >= 1 && (first == 0 || first >= last));
    return {Kind::kTrapezoid, 1, first, last};
  }
  const char* name() const {
    switch (kind) {
      case Kind::kSelf: return "self(1)";
      case Kind::kChunk: return "chunk";
      case Kind::kGSS: return "gss";
      case Kind::kFactoring: return "factoring";
      case Kind::kTrapezoid: return "trapezoid";
    }
    return "?";
  }
};

/// Result of one low-level dispatch attempt on an ICB.
struct Dispatch {
  /// Shard of a grant that came from no shard: a flat grab, or no grant.
  static constexpr u32 kNoShard = ~u32{0};

  i64 first = 0;  // first grabbed iteration (1-based); valid if count > 0
  i64 count = 0;  // 0 => instance fully scheduled, detach and SEARCH
  bool last_scheduled = false;  // this grab took the final iteration =>
                                // caller must DELETE the ICB from its list
  u32 shard = kNoShard;  // sharded instance: the shard the grant came from
};

/// Trapezoid step `seq` over `span` iterations: chunk c(n) = max(last,
/// first - n*delta), delta = (first-last)/(N-1) where N is the number of
/// dispatches that consume the loop at the average chunk.  The chunks above
/// `last` form an arithmetic series, so the step's start is closed-form.
inline Dispatch trapezoid_step_at(i64 span, u32 procs, i64 seq,
                                  i64 tss_first, i64 last) {
  const i64 first =
      tss_first > 0 ? tss_first
                    : std::max<i64>(1, span / (2 * static_cast<i64>(procs)));
  const i64 avg = std::max<i64>(1, (first + last) / 2);
  const i64 n_dispatch = std::max<i64>(1, (span + avg - 1) / avg);
  const i64 delta =
      n_dispatch > 1 ? std::max<i64>(0, (first - last) / (n_dispatch - 1))
                     : 0;
  i64 m = 0;  // steps before seq whose chunk is above `last`
  if (first > last) {
    m = delta > 0 ? std::min(seq, (first - last + delta - 1) / delta) : seq;
  }
  const i64 done = m * first - delta * (m * (m - 1) / 2) + (seq - m) * last;
  return {done + 1, std::min(std::max(last, first - seq * delta), span - done)};
}

/// Plan the steps of an instance of `b` >= 1 iterations under `s` on
/// `procs` workers and return their number N, which the caller passes to
/// Icb::init.  The guided kinds (GSS, factoring) also get `icb`'s step
/// table: their step starts follow a recurrence rather than a closed form,
/// so it is walked here once, O(N), and every grab reads its grant from
/// the table.  ENTER calls this while it still owns the ICB, so APPEND
/// publishes the table with the rest of the ICB.  A test that builds an
/// ICB by hand must call it too, or a guided grab reads an empty table.
template <exec::ExecutionContext C>
i64 plan_steps(Icb<C>& icb, const Strategy& s, i64 b, u32 procs) {
  switch (s.kind) {
    case Strategy::Kind::kSelf:
      return b;
    case Strategy::Kind::kChunk:
      return 1 + (b - 1) / s.chunk;
    case Strategy::Kind::kGSS:
    case Strategy::Kind::kFactoring: {
      // R_0 = b, k_i = max(min_chunk, ceil(R_i/div)), R_{i+1} = R_i -
      // min(k_i, R_i); step i starts at b - R_i + 1.  div = P gives GSS,
      // 2P factoring.  N is O(P log(b/P)).
      const i64 div = static_cast<i64>(procs) *
                      (s.kind == Strategy::Kind::kFactoring ? 2 : 1);
      icb.step_first.clear();
      for (i64 first = 1; first <= b;) {
        icb.step_first.push_back(first);
        const i64 r = b - first + 1;
        first += std::min(r, std::max(s.chunk, (r + div - 1) / div));
      }
      icb.step_first.push_back(b + 1);
      return static_cast<i64>(icb.step_first.size()) - 1;
    }
    case Strategy::Kind::kTrapezoid:
      break;
  }
  // Trapezoid: every step grants at least one iteration and starts where
  // the last ended, so N in [1, b] is the first step that starts past b.
  i64 lo = 1;
  i64 hi = b;
  while (lo < hi) {
    const i64 mid = lo + (hi - lo) / 2;
    if (trapezoid_step_at(b, procs, mid, s.tss_first, s.tss_last).first > b) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// The grant of step `seq` (0-based, below Icb::steps) of `icb` on `procs`
/// workers.  The step number alone decides the grant, whoever draws it:
/// self, chunk and trapezoid compute it in closed form, the guided kinds
/// read it from the table plan_steps filled at ENTER.  O(1) either way.
template <exec::ExecutionContext C>
inline Dispatch step_at(const Strategy& s, const Icb<C>& icb, u32 procs,
                        i64 seq) {
  const i64 b = icb.bound;
  switch (s.kind) {
    case Strategy::Kind::kSelf:
      return {seq + 1, 1};
    case Strategy::Kind::kChunk:
      return {1 + seq * s.chunk, std::min(s.chunk, b - seq * s.chunk)};
    case Strategy::Kind::kGSS:
    case Strategy::Kind::kFactoring: {
      SS_DCHECK(static_cast<std::size_t>(seq) + 1 < icb.step_first.size());
      const auto k = static_cast<std::size_t>(seq);
      return {icb.step_first[k], icb.step_first[k + 1] - icb.step_first[k]};
    }
    case Strategy::Kind::kTrapezoid:
      return trapezoid_step_at(b, procs, seq, s.tss_first, s.tss_last);
  }
  return {};
}

/// Grab the next block of iterations from the instance's flat index,
/// according to `s`.  This is the paper's "start:" step generalized to
/// multi-iteration chunks: take the next step, {index <= steps ;
/// Fetch&Add(1)}, and grant that step's block.  The grab of the last step
/// took iteration b.
template <exec::ExecutionContext C>
Dispatch dispatch_flat(C& ctx, Icb<C>& icb, const Strategy& s) {
  if constexpr (C::kIsSimulated) {
    // The step-sized kinds compute their grant; self and chunk index it.
    if (s.kind != Strategy::Kind::kSelf && s.kind != Strategy::Kind::kChunk) {
      ctx.charge(ctx.costs().dispatch_arith);
    }
  }
  const auto r = ctx_claim(ctx, icb.index, icb.steps, 1);
  if (!r.success) return {};
  Dispatch d = step_at(s, icb, ctx.num_procs(), r.fetched - 1);
  d.last_scheduled = r.fetched == icb.steps;
  return d;
}

/// Claim one iteration of shard g of a sharded instance, {index <= hi ;
/// Fetch&Add(1)}.  The grab that takes the shard's last iteration joins the
/// instance-wide exactly-once completion election, which generalizes "the
/// grab that took iteration b" to "the grab that took the last iteration of
/// the last shard to drain": each shard's final iteration is granted
/// exactly once (same monotone-index argument as the flat gate), that grab
/// increments `sched_done`, and the increment that observes num_shards - 1
/// wins.  `cross` marks a steal, a grant from a shard other than home.
template <exec::ExecutionContext C>
inline Dispatch claim_shard(C& ctx, Icb<C>& icb, u32 g, bool cross) {
  IcbShard<C>& sh = icb.shards[g];
  const auto r = ctx_claim(ctx, sh.index, sh.hi, 1);
  if (!r.success) [[unlikely]] return {};  // shard drained
  Dispatch d;
  d.first = r.fetched;
  d.count = 1;
  d.shard = g;
  trace::bump(ctx, &trace::Counters::shard_grants);
  if (cross) trace::bump(ctx, &trace::Counters::shard_steals);
  audit::on_shard_grant(ctx, &icb, g, d.first, d.count, cross);
  if (d.first == sh.hi) [[unlikely]] {
    const auto done = ctx.sync_op(icb.sched_done, sync::Test::kNone, 0,
                                  sync::Op::kIncrement);
    d.last_scheduled = done.fetched + 1 == static_cast<i64>(icb.num_shards);
    audit::on_shard_exhaust(ctx, &icb, g, d.last_scheduled);
  }
  return d;
}

/// Sharded low-level dispatch (runtime::index_shards_for; see
/// docs/sharding.md).  Only `self` instances shard, so a shard grab is one
/// iteration (claim_shard).  A worker's shards are probed in one fixed
/// order: its home shard (block mapping by processor id, computed once per
/// attachment by the caller), then the siblings in ascending rotation —
/// steal-on-exhaustion: a cross-shard probe only happens once the previous
/// shard was observed drained.  `from` is where this probe joins that
/// order.  A worker whose last grant came from its home shard claims the
/// next one there directly, without a probe (run_grants, the grant loop);
/// when that claim fails it continues here from home + 1, so every grab
/// walks the same order and every steal keeps it.
///
/// On real cores a probe first reads the shard's index and skips the shard
/// when it is already past hi, so probing a drained shard writes nothing.
/// All decisions are functions of engine-serialized sync ops, so sharded
/// vtime runs — including which shard a worker stole from — record and
/// replay bit-identically.
template <exec::ExecutionContext C>
Dispatch dispatch_sharded(C& ctx, Icb<C>& icb, u32 home, u32 from) {
  const u32 g_count = icb.num_shards;
  u32 g = from;
  do {
    const bool cross = g != home;
    if (cross) trace::bump(ctx, &trace::Counters::cross_shard_ops);
    bool drained = false;
    if constexpr (!C::kIsSimulated) {
      // Drained (the index only grows): skip it with a read.  A failed
      // claim would still write the line, and late in an instance every
      // stealer probes the same drained shards on every grab.
      drained = icb.shards[g].index.load() > icb.shards[g].hi;
    }
    if (!drained) {
      const Dispatch d = claim_shard(ctx, icb, g, cross);
      if (d.count > 0) return d;
    }
    if (++g == g_count) g = 0;
  } while (g != home);
  return {};  // every shard drained: instance fully scheduled
}

/// The next grant of an attachment.  `home` is the worker's home shard
/// (shard::home_shard_of; unused for a flat index) and `prev_shard` the
/// shard of the attachment's previous grant (Dispatch::kNoShard before its
/// first).  A flat instance grabs by its strategy.  A sharded one claims
/// directly on the home shard while the previous grant came from there,
/// and otherwise probes from home.  This and claim_shard are declared
/// inline so that GCC folds the direct claim into the grant loop.
template <exec::ExecutionContext C>
inline Dispatch next_grant(C& ctx, Icb<C>& icb, const Strategy& s, u32 home,
                           u32 prev_shard) {
  if (icb.num_shards <= 1) return dispatch_flat(ctx, icb, s);
  if (prev_shard != home) return dispatch_sharded(ctx, icb, home, home);
  const Dispatch d = claim_shard(ctx, icb, home, false);
  if (d.count > 0) return d;
  return dispatch_sharded(ctx, icb, home,
                          home + 1 == icb.num_shards ? 0 : home + 1);
}

/// Grab the next block of iterations from `icb` according to `s` — the flat
/// paper path when the instance's index is unsharded, the distributed path
/// otherwise — as a first grant would.
template <exec::ExecutionContext C>
Dispatch dispatch_iterations(C& ctx, Icb<C>& icb, const Strategy& s) {
  if (icb.num_shards <= 1) return dispatch_flat(ctx, icb, s);
  const u32 home =
      shard::home_shard_of(ctx.proc(), ctx.num_procs(), icb.num_shards);
  return dispatch_sharded(ctx, icb, home, home);
}

}  // namespace selfsched::runtime
