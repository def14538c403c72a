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
//   kAdaptive    meta-strategy: seeds the chunk size from the §IV analytical
//                optimum (analysis::optimal_adaptive_chunk, Eq. 7 extended
//                with a tail-imbalance term) and retunes it per instance
//                from per-chunk timing feedback (adaptive_feedback below).
//
// The step number is the grab.  Every strategy but adaptive numbers its
// grabs 0..N-1, and the number alone fixes where a grant starts and how
// long it is (step_at) — Eleliemy & Ciorba's distributed chunk calculation.
// ENTER stores N (step_count) in Icb::steps, and a grab is one claim on the
// step counter `index`: ctx_claim(index, N, 1) (runtime/ctx_sync.hpp), the
// paper's {index <= N ; Fetch&Add(1)}.  Steps 0..N-1 are each granted once
// in any interleaving, so a contended run hands out exactly a serial
// drain's grants.  adaptive retunes k during the run, so it keeps the
// iteration-valued claim ctx_claim(index, b, k), with N = b.
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
#include <ctime>

#include "analysis/model.hpp"
#include "audit/hooks.hpp"
#include "common/check.hpp"
#include "common/shard_math.hpp"
#include "exec/context.hpp"
#include "runtime/ctx_sync.hpp"
#include "runtime/icb.hpp"
#include "trace/recorder.hpp"

namespace selfsched::runtime {

/// Ceiling on the adaptive tuner's chunk search (bounds the argmin scan in
/// analysis::optimal_adaptive_chunk and keeps retunes O(cap)).
inline constexpr i64 kAdaptiveChunkCap = 1024;

/// Linear contention slope fed to the Eq. 7 O2(k) model by the tuner.
inline constexpr double kAdaptiveContentionSlope = 0.25;

/// Prior per-iteration body time (engine ticks) used to seed kAdaptive when
/// the caller supplies none.  Matches SchedOptions::default_body_cost so the
/// vtime seed chunk is the model optimum for the default workload.
inline constexpr i64 kAdaptiveDefaultTau = 100;

/// Calibrated per-dispatch (O1) and per-SEARCH (O2) overheads, in
/// nanoseconds, for the threaded engine's tuner inputs.  Rough uncontended
/// x86 figures: one fetch&add ~20ns hot, a SEARCH walks SW + a list lock.
inline constexpr double kAdaptiveThreadO1 = 60.0;
inline constexpr double kAdaptiveThreadO2 = 400.0;

struct Strategy {
  // Values are pinned: fuzz repro files store them.  5, 6, 7 and 8 were
  // the deleted batched-factoring, weighted-factoring, tuned-trapezoid and
  // random-steal kinds; do not reuse them.
  enum class Kind : u32 {
    kSelf = 0,
    kChunk = 1,
    kGSS = 2,
    kFactoring = 3,
    kTrapezoid = 4,
    kAdaptive = 9,
  };

  Kind kind = Kind::kSelf;
  i64 chunk = 1;      // kChunk: fixed size; kGSS/kFactoring: minimum
                      // chunk; kAdaptive: minimum chunk clamp
  i64 tss_first = 0;  // kTrapezoid: first chunk (0 = auto)
  i64 tss_last = 1;   // kTrapezoid: final chunk
  i64 adapt_tau = 0;  // kAdaptive: prior body ticks (0 = kAdaptiveDefaultTau)
  i64 adapt_max = 0;  // kAdaptive: chunk ceiling (0 = auto min(b/P, cap))

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
  static Strategy adaptive(i64 tau_prior = 0, i64 min_chunk = 1,
                           i64 max_chunk = 0) {
    SS_CHECK(tau_prior >= 0 && min_chunk >= 1 && max_chunk >= 0);
    Strategy s{Kind::kAdaptive, min_chunk};
    s.adapt_tau = tau_prior;
    s.adapt_max = max_chunk;
    return s;
  }

  const char* name() const {
    switch (kind) {
      case Kind::kSelf: return "self(1)";
      case Kind::kChunk: return "chunk";
      case Kind::kGSS: return "gss";
      case Kind::kFactoring: return "factoring";
      case Kind::kTrapezoid: return "trapezoid";
      case Kind::kAdaptive: return "adaptive";
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

/// Guided step `seq` (0-based) over `span` iterations: walks the serial
/// recurrence R_0 = span, k_i = max(min_chunk, ceil(R_i/div)), R_{i+1} =
/// R_i - min(k_i, R_i) to R_seq and grants the next min(k_seq, R_seq)
/// iterations.  div = P gives GSS, 2P factoring.  O(seq) per call, over the
/// O(P log(span/P)) steps of an instance.
inline Dispatch guided_step_at(i64 span, i64 div, i64 seq, i64 min_chunk) {
  const auto chunk = [&](i64 r) {
    return std::min(r, std::max(min_chunk, (r + div - 1) / div));
  };
  i64 remaining = span;
  for (i64 i = 0; i < seq && remaining > 0; ++i) remaining -= chunk(remaining);
  return {span - remaining + 1, chunk(remaining)};
}

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

/// The grant of step `seq` (0-based, below step_count) of an instance of
/// `b` iterations on `procs` workers, under any strategy but adaptive.
/// Pure in its arguments: the step number alone decides the grant, whoever
/// draws it.
inline Dispatch step_at(const Strategy& s, i64 b, u32 procs, i64 seq) {
  const i64 p = static_cast<i64>(procs);
  switch (s.kind) {
    case Strategy::Kind::kSelf:
      return {seq + 1, 1};
    case Strategy::Kind::kChunk:
      return {1 + seq * s.chunk, std::min(s.chunk, b - seq * s.chunk)};
    case Strategy::Kind::kGSS:
      return guided_step_at(b, p, seq, s.chunk);
    case Strategy::Kind::kFactoring:
      return guided_step_at(b, 2 * p, seq, s.chunk);
    case Strategy::Kind::kTrapezoid:
      return trapezoid_step_at(b, procs, seq, s.tss_first, s.tss_last);
    case Strategy::Kind::kAdaptive:
      break;
  }
  SS_CHECK_MSG(false, "step_at: adaptive grabs by iteration, not by step");
  return {};
}

/// Number of steps N that drain an instance of `b` >= 1 iterations under
/// `s` on `procs` workers, stored in Icb::steps at ENTER.  adaptive's claim
/// counts iterations, so its N is b.
inline i64 step_count(const Strategy& s, i64 b, u32 procs) {
  if (s.kind == Strategy::Kind::kSelf || s.kind == Strategy::Kind::kAdaptive) {
    return b;
  }
  if (s.kind == Strategy::Kind::kChunk) return 1 + (b - 1) / s.chunk;
  // Every step grants at least one iteration and starts where the last
  // ended, so N in [1, b] is the first step that starts past b.
  i64 lo = 1;
  i64 hi = b;
  while (lo < hi) {
    const i64 mid = lo + (hi - lo) / 2;
    if (step_at(s, b, procs, mid).first > b) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Pure core of the adaptive tuner: the completion-time-optimal chunk for an
/// instance of `b` iterations on `procs` workers given a body-time estimate
/// `tau` and engine overheads (o1 per dispatch, o2 per SEARCH), clamped to
/// [min_chunk, min(max_chunk or b/P, kAdaptiveChunkCap)].  Exposed
/// non-templated so tests can assert the seed matches the analysis model
/// exactly.
inline i64 adaptive_chunk_for(double tau, double o1, double o2, i64 b,
                              u32 procs, i64 min_chunk = 1, i64 max_chunk = 0) {
  if (b < 1) b = 1;
  const u32 p = std::max<u32>(1, procs);
  analysis::UtilizationParams up;
  up.tau = std::max(tau, 0.0);
  up.o1 = o1;
  up.o2 = o2;
  up.n = std::max(1.0, static_cast<double>(b) / static_cast<double>(p));
  up.o3 = 0;
  up.big_n = static_cast<double>(b);
  i64 k_max = max_chunk > 0 ? max_chunk
                            : std::max<i64>(1, b / static_cast<i64>(p));
  k_max = std::min(k_max, kAdaptiveChunkCap);
  const i64 k = analysis::optimal_adaptive_chunk(up, p, b, k_max,
                                                 kAdaptiveContentionSlope);
  const i64 lo = std::max<i64>(1, min_chunk);
  return std::clamp(k, lo, std::max(lo, k_max));
}

/// Engine-specific tuner inputs: body-time prior plus O1/O2 in the engine's
/// native tick (vcycles from the cost model; calibrated ns on threads).
struct AdaptiveInputs {
  double tau = 0;
  double o1 = 0;
  double o2 = 0;
};

template <exec::ExecutionContext C>
AdaptiveInputs adaptive_inputs(C& ctx, const Strategy& s) {
  AdaptiveInputs in;
  in.tau = static_cast<double>(s.adapt_tau > 0 ? s.adapt_tau
                                               : kAdaptiveDefaultTau);
  if constexpr (C::kIsSimulated) {
    // One dispatch = the {index <= b ; Fetch&Add} plus its arithmetic; one
    // SEARCH ≈ SW probe + list lock/unlock + a couple of list steps.
    const auto& c = ctx.costs();
    in.o1 = 2.0 * static_cast<double>(c.sync_op);
    in.o2 = 3.0 * static_cast<double>(c.sync_op) +
            4.0 * static_cast<double>(c.list_step);
  } else {
    in.o1 = kAdaptiveThreadO1;
    in.o2 = kAdaptiveThreadO2;
  }
  return in;
}

/// Seed chunk for one instance: the model optimum under the prior tau.
template <exec::ExecutionContext C>
i64 adaptive_seed_chunk(C& ctx, const Strategy& s, i64 b, u32 procs) {
  const AdaptiveInputs in = adaptive_inputs(ctx, s);
  return adaptive_chunk_for(in.tau, in.o1, in.o2, b, procs, s.chunk,
                            s.adapt_max);
}

/// Per-chunk clock for adaptive feedback: virtual cycles on the vtime
/// engine (deterministic, replayable), thread-CPU nanoseconds on threads
/// (immune to other tenants' wall time).
template <exec::ExecutionContext C>
Cycles adaptive_clock(C& ctx) {
  if constexpr (C::kIsSimulated) {
    return ctx.now();
  } else {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<Cycles>(ts.tv_sec) * 1'000'000'000 +
           static_cast<Cycles>(ts.tv_nsec);
  }
}

/// adaptive's grab: read the instance's current tuned chunk k, then claim
/// k iterations, {index <= b ; Fetch&Add(k)}.  The first arrival runs a
/// seeding election ({adapt == 0 ; Store k0}) so exactly one worker pays
/// the model evaluation and every loser adopts the winner's k0.
template <exec::ExecutionContext C>
Dispatch dispatch_adaptive(C& ctx, Icb<C>& icb, const Strategy& s) {
  const i64 b = icb.bound;
  i64 k = ctx.sync_op(icb.adapt, sync::Test::kNone, 0, sync::Op::kFetch)
              .fetched;
  if (k <= 0) {
    if constexpr (C::kIsSimulated) ctx.charge(ctx.costs().dispatch_arith);
    const i64 k0 = adaptive_seed_chunk(ctx, s, b, ctx.num_procs());
    if (ctx.sync_op(icb.adapt, sync::Test::kEQ, 0, sync::Op::kStore, k0)
            .success) {
      k = k0;
      trace::bump(ctx, &trace::Counters::adapt_seeds);
    } else {
      k = std::max<i64>(
          1, ctx.sync_op(icb.adapt, sync::Test::kNone, 0, sync::Op::kFetch)
                 .fetched);
    }
  }
  const auto r = ctx_claim(ctx, icb.index, b, k);
  if (!r.success) return {};
  Dispatch d;
  d.first = r.fetched;
  d.count = std::min(k, b - r.fetched + 1);
  d.last_scheduled = (r.fetched + d.count - 1 == b);
  return d;
}

/// Grab the next block of iterations from the instance's flat index,
/// according to `s`.  This is the paper's "start:" step generalized to
/// multi-iteration chunks: take the next step, {index <= steps ;
/// Fetch&Add(1)}, and grant that step's block.  The grab of the last step
/// took iteration b.
template <exec::ExecutionContext C>
Dispatch dispatch_flat(C& ctx, Icb<C>& icb, const Strategy& s) {
  if (s.kind == Strategy::Kind::kAdaptive) {
    return dispatch_adaptive(ctx, icb, s);
  }
  if constexpr (C::kIsSimulated) {
    // The step-sized kinds compute their grant; self and chunk index it.
    if (s.kind != Strategy::Kind::kSelf && s.kind != Strategy::Kind::kChunk) {
      ctx.charge(ctx.costs().dispatch_arith);
    }
  }
  const auto r = ctx_claim(ctx, icb.index, icb.steps, 1);
  if (!r.success) return {};
  Dispatch d = step_at(s, icb.bound, ctx.num_procs(), r.fetched - 1);
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

/// Adaptive feedback: fold one completed chunk's measured duration into the
/// instance's body-time estimate (EWMA, alpha = 1/4) and re-minimize the
/// completion-time model; store the new chunk if it moved.  All state lives
/// in two ICB sync vars (`adapt`, `adapt_tau`), every access is a sync_op,
/// and the argmin is host-pure — so on the vtime engine the whole adaptation
/// trajectory is engine-serialized and bit-replayable.  Races between
/// concurrent feedbacks are benign: both stores are model outputs for
/// nearby tau estimates, and correctness never depends on `adapt` (the
/// {index <= b} gate does all the guarding).
template <exec::ExecutionContext C>
void adaptive_feedback(C& ctx, Icb<C>& icb, const Strategy& s, i64 count,
                       Cycles elapsed) {
  if (count <= 0) return;
  trace::bump(ctx, &trace::Counters::adapt_feedbacks);
  const i64 tau_obs =
      std::max<i64>(1, static_cast<i64>(elapsed) / std::max<i64>(1, count));
  const i64 tau_old =
      ctx.sync_op(icb.adapt_tau, sync::Test::kNone, 0, sync::Op::kFetch)
          .fetched;
  const i64 tau = tau_old > 0 ? (3 * tau_old + tau_obs) / 4 : tau_obs;
  ctx.sync_op(icb.adapt_tau, sync::Test::kNone, 0, sync::Op::kStore, tau);
  if constexpr (C::kIsSimulated) ctx.charge(ctx.costs().dispatch_arith);
  const AdaptiveInputs in = adaptive_inputs(ctx, s);
  const i64 k_new =
      adaptive_chunk_for(static_cast<double>(tau), in.o1, in.o2, icb.bound,
                         ctx.num_procs(), s.chunk, s.adapt_max);
  const i64 k_cur =
      ctx.sync_op(icb.adapt, sync::Test::kNone, 0, sync::Op::kFetch).fetched;
  if (k_cur > 0 && k_new != k_cur) {
    ctx.sync_op(icb.adapt, sync::Test::kNone, 0, sync::Op::kStore, k_new);
    trace::bump(ctx, &trace::Counters::adapt_retunes);
  }
}

}  // namespace selfsched::runtime
