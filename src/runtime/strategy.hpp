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
//   kFactoring2  true batched factoring: batch r hands out P *equal* chunks
//                of k_r = ceil(R_r / 2P) before recomputing, R_{r+1} =
//                R_r - P*k_r.
//   kTrapezoidTuned
//                TSS with the Tzen/Ni tuned endpoints — first = ceil(b/2P),
//                exact dispatch count N = ceil(2b/(f+l)) — and a 16.16
//                fixed-point decrement so the ramp hits `last` exactly
//                instead of flooring the slope to an integer.
//   kAdaptive    meta-strategy: seeds the chunk size from the §IV analytical
//                optimum (analysis::optimal_adaptive_chunk, Eq. 7 extended
//                with a tail-imbalance term) and retunes it per instance
//                from per-chunk timing feedback (adaptive_feedback below).
//
// One dispatch shape serves every strategy: size the chunk k, then grab it
// with ctx_claim (runtime/ctx_sync.hpp), the paper's bounded {index <= b ;
// Fetch&Add(k)}.  self, chunk and adaptive know k up front.  The others take
// a step number seq = {aux ; Increment} and compute k in closed form from
// (span, P, seq) — Eleliemy & Ciorba's distributed chunk calculation — so
// no grab reads index first and none retries.  GSS and factoring step the
// remaining-based recurrence (guided_chunk_at): a serial drain grabs
// exactly ceil(R/P) (or ceil(R/2P)) of the true remaining R, while under
// contention seq order may differ from index order, so sizes can
// interleave across workers; every iteration is still granted exactly once.
//
// vtime runs the claim as the tested instruction; real cores run it as one
// unconditional fetch&add that succeeds iff the fetched value is <= b, so a
// failed claim leaves index somewhere past b+1.  That overshoot is
// invisible: index only grows once published (the poison store writes
// b+1), and every reader only compares it against its bound (Icb::index).
//
// Cancellation containment: every grab is gated on {index <= b} through
// ctx_claim's fetched value, so poisoning index to b+1 stops all of them —
// see poison_pool in high_level.hpp.
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
  // Values are pinned: fuzz repro files store them.  6 and 8 were the
  // deleted weighted-factoring and random-steal kinds; do not reuse them.
  enum class Kind : u32 {
    kSelf = 0,
    kChunk = 1,
    kGSS = 2,
    kFactoring = 3,
    kTrapezoid = 4,
    kFactoring2 = 5,
    kTrapezoidTuned = 7,
    kAdaptive = 9,
  };

  Kind kind = Kind::kSelf;
  i64 chunk = 1;      // kChunk: fixed size; kGSS/kFactoring/kFactoring2:
                      // minimum chunk; kAdaptive: minimum chunk clamp
  i64 tss_first = 0;  // kTrapezoid/kTrapezoidTuned: first chunk (0 = auto)
  i64 tss_last = 1;   // kTrapezoid/kTrapezoidTuned: final chunk
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
  static Strategy factoring2(i64 min_chunk = 1) {
    SS_CHECK(min_chunk >= 1);
    return {Kind::kFactoring2, min_chunk};
  }
  static Strategy trapezoid_tuned(i64 first = 0, i64 last = 1) {
    SS_CHECK(last >= 1 && (first == 0 || first >= last));
    return {Kind::kTrapezoidTuned, 1, first, last};
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
      case Kind::kFactoring2: return "factoring2";
      case Kind::kTrapezoidTuned: return "tss2";
      case Kind::kAdaptive: return "adaptive";
    }
    return "?";
  }
};

/// Result of one low-level dispatch attempt on an ICB.
struct Dispatch {
  i64 first = 0;  // first grabbed iteration (1-based); valid if count > 0
  i64 count = 0;  // 0 => instance fully scheduled, detach and SEARCH
  bool last_scheduled = false;  // this grab took the final iteration =>
                                // caller must DELETE the ICB from its list
};

/// Guided chunk size at dispatch sequence number `seq` (0-based): steps the
/// serial recurrence R_0 = span, k_i = max(min_chunk, ceil(R_i/div)),
/// R_{i+1} = max(0, R_i - k_i).  div = P gives GSS, 2P factoring.  A serial
/// drain therefore grabs exactly what the remaining-based rule would.  O(seq)
/// per call, over the O(P log(span/P)) grabs of an instance.  Once R_i
/// reaches 0 the size floors at min_chunk; grabs at that point fail the
/// {index <= b} gate anyway.
inline i64 guided_chunk_at(i64 span, i64 div, i64 seq, i64 min_chunk) {
  i64 remaining = span;
  i64 k = min_chunk;
  for (i64 i = 0;; ++i) {
    k = std::max(min_chunk, (remaining + div - 1) / div);
    if (i == seq || remaining == 0) break;
    remaining = std::max<i64>(0, remaining - k);
  }
  return std::max<i64>(1, k);
}

/// Trapezoid chunk size at dispatch sequence `seq`: c(n) = max(last,
/// first - n*delta), delta = (first-last)/(N-1) where N is the number of
/// dispatches that consume the loop at the average chunk.
inline i64 trapezoid_chunk_at(i64 span, u32 procs, i64 seq, i64 tss_first,
                              i64 tss_last) {
  const i64 first_chunk =
      tss_first > 0 ? tss_first
                    : std::max<i64>(1, span / (2 * static_cast<i64>(procs)));
  const i64 avg = std::max<i64>(1, (first_chunk + tss_last) / 2);
  const i64 n_dispatch = std::max<i64>(1, (span + avg - 1) / avg);
  const i64 delta =
      n_dispatch > 1
          ? std::max<i64>(0, (first_chunk - tss_last) / (n_dispatch - 1))
          : 0;
  return std::max(tss_last, first_chunk - seq * delta);
}

/// Batched-factoring chunk size at dispatch sequence number `seq` (0-based):
/// batch r = seq/P hands out P chunks of k_r = max(min_chunk, ceil(R_r/2P)),
/// R_{r+1} = R_r - P*k_r.  Once R_r reaches 0 the size floors at min_chunk;
/// grabs at that point fail the {index <= b} gate anyway.
inline i64 factoring2_chunk_at(i64 b, u32 procs, i64 seq, i64 min_chunk) {
  const i64 p = std::max<i64>(1, static_cast<i64>(procs));
  const i64 batch = seq / p;
  i64 remaining = b;
  i64 k = std::max<i64>(1, min_chunk);
  for (i64 r = 0;; ++r) {
    k = std::max(min_chunk, (remaining + 2 * p - 1) / (2 * p));
    if (r == batch || remaining == 0) break;
    remaining = std::max<i64>(0, remaining - p * k);
  }
  return std::max<i64>(1, k);
}

/// Tuned-TSS chunk size at dispatch sequence `seq`: first f (default
/// ceil(b/2P)), last l (clamped to f), N = max(2, ceil(2b/(f+l))) dispatches,
/// 16.16 fixed-point ramp so want(N-1) lands on l exactly.
inline i64 tss2_chunk_at(i64 b, u32 procs, i64 seq, i64 tss_first,
                         i64 tss_last) {
  const i64 p = std::max<i64>(1, static_cast<i64>(procs));
  const i64 f =
      tss_first > 0 ? tss_first : std::max<i64>(1, (b + 2 * p - 1) / (2 * p));
  const i64 l = std::max<i64>(1, std::min(tss_last, f));
  const i64 nd = std::max<i64>(2, (2 * b + f + l - 1) / (f + l));
  const i64 delta_fp = ((f - l) << 16) / (nd - 1);
  return std::max(l, f - ((seq * delta_fp) >> 16));
}

/// Chunk size of a step-sized strategy (every kind but self, chunk and
/// adaptive) at dispatch sequence `seq` over a range of `span` iterations
/// shared by `procs` workers.  Pure in its arguments: the step number
/// alone decides the size, whoever draws it.
inline i64 step_chunk_at(const Strategy& s, i64 span, u32 procs, i64 seq) {
  const i64 p = static_cast<i64>(procs);
  switch (s.kind) {
    case Strategy::Kind::kGSS:
      return guided_chunk_at(span, p, seq, s.chunk);
    case Strategy::Kind::kFactoring:
      return guided_chunk_at(span, 2 * p, seq, s.chunk);
    case Strategy::Kind::kTrapezoid:
      return trapezoid_chunk_at(span, procs, seq, s.tss_first, s.tss_last);
    case Strategy::Kind::kFactoring2:
      return factoring2_chunk_at(span, procs, seq, s.chunk);
    case Strategy::Kind::kTrapezoidTuned:
      return tss2_chunk_at(span, procs, seq, s.tss_first, s.tss_last);
    case Strategy::Kind::kSelf:
    case Strategy::Kind::kChunk:
    case Strategy::Kind::kAdaptive:
      break;
  }
  SS_CHECK_MSG(false, "step_chunk_at: strategy is not step-sized");
  return 1;
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

/// Grab the next block of iterations from one contiguous sub-range [lo, hi]
/// driven by the (index, aux) counter pair, according to `s`.  This is the
/// paper's "start:" step generalized twice: to multi-iteration chunks
/// ({index <= hi ; Fetch&Add(k)}) and to an arbitrary sub-range, so the same
/// switch serves both the flat low level (lo = 1, hi = bound, the instance's
/// own counters) and one shard of a sharded index (the shard's counters and
/// ownership range, with `procs` the shard's worker share so remaining/P
/// rules see their actual contenders).  With the flat arguments this is
/// op-for-op and charge-for-charge identical to the pre-sharding dispatcher
/// — the vtime golden results pin that.
///
/// `last_scheduled` on return means "this grab took the final iteration of
/// [lo, hi]"; the sharded caller converts that into the instance-wide
/// completion election.
template <exec::ExecutionContext C>
Dispatch dispatch_range(C& ctx, Icb<C>& icb, typename C::Sync& index,
                        typename C::Sync& aux, i64 lo, i64 hi, u32 procs,
                        const Strategy& s) {
  const i64 b = hi;              // the claim's gate
  const i64 span = hi - lo + 1;  // total work the chunk rules size against

  i64 k = 1;
  switch (s.kind) {
    case Strategy::Kind::kSelf:
      break;
    case Strategy::Kind::kChunk:
      k = s.chunk;
      break;
    case Strategy::Kind::kAdaptive: {
      // Read the instance's current tuned chunk; first arrival runs a
      // seeding election ({adapt == 0 ; Store k0}) so exactly one worker
      // pays the model evaluation and every loser adopts the winner's k0.
      // Tuning state stays instance-global under sharding: the tuned chunk
      // and tau EWMA live in the ICB's own sync vars and the seed optimizes
      // for the whole instance (bound, all P workers), so every shard grabs
      // with the same adaptively tuned k.  Only the gate is per-range.
      k = ctx.sync_op(icb.adapt, sync::Test::kNone, 0, sync::Op::kFetch)
              .fetched;
      if (k <= 0) {
        if constexpr (C::kIsSimulated) ctx.charge(ctx.costs().dispatch_arith);
        const i64 k0 = adaptive_seed_chunk(ctx, s, icb.bound, ctx.num_procs());
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
      break;
    }
    case Strategy::Kind::kGSS:
    case Strategy::Kind::kFactoring:
    case Strategy::Kind::kTrapezoid:
    case Strategy::Kind::kFactoring2:
    case Strategy::Kind::kTrapezoidTuned: {
      // The dispatch-sequence counter numbers this grab; the step number
      // alone sizes it.
      const auto seq =
          ctx.sync_op(aux, sync::Test::kNone, 0, sync::Op::kIncrement);
      if constexpr (C::kIsSimulated) ctx.charge(ctx.costs().dispatch_arith);
      k = step_chunk_at(s, span, procs, seq.fetched);
      break;
    }
  }

  const auto r = ctx_claim(ctx, index, b, k);
  if (!r.success) return {};
  Dispatch d;
  d.first = r.fetched;
  d.count = std::min(k, b - r.fetched + 1);
  d.last_scheduled = (r.fetched + d.count - 1 == b);
  return d;
}

/// Sharded low-level dispatch (runtime::index_shards_for; see
/// docs/sharding.md).  The worker probes its home shard first (block mapping
/// by processor id), then siblings in ascending rotation — steal-on-
/// exhaustion: a cross-shard probe only happens once the previous shard was
/// observed drained.  The instance-wide exactly-once completion election
/// generalizes from "the grab that took iteration b" to "the grab that took
/// the last iteration of the last live shard to drain": each live shard's
/// final iteration is granted exactly once (same monotone-index argument as
/// the flat gate), that grab increments `sched_done`, and the increment that
/// observes live_shards - 1 wins the election.
///
/// On real cores a probe first reads the shard's index and skips the shard
/// when it is already past hi, so probing a drained shard writes nothing.
///
/// vtime topology model: a probe of a shard homed outside the worker's
/// topology group is charged cross_group_sync_extra, and every steal probe
/// (any non-home shard) adds steal_probe_extra.  All decisions are functions
/// of engine-serialized sync ops, so sharded runs — including which shard a
/// worker stole from — record and replay bit-identically.
template <exec::ExecutionContext C>
Dispatch dispatch_sharded(C& ctx, Icb<C>& icb, const Strategy& s) {
  const u32 g_count = icb.num_shards;
  const u32 procs = ctx.num_procs();
  const u32 home = shard::home_shard_of(ctx.proc(), procs, g_count);
  const u32 sprocs = shard::shard_procs(procs, g_count);
  for (u32 probe = 0; probe < g_count; ++probe) {
    const u32 g = (home + probe) % g_count;
    IcbShard<C>& sh = icb.shards[g];
    if (sh.lo > sh.hi) continue;  // empty shard (bound < G): never granted
    const bool cross = g != home;
    if (cross) {
      trace::bump(ctx, &trace::Counters::cross_shard_ops);
      if constexpr (C::kIsSimulated) {
        ctx.charge(ctx.costs().steal_probe_extra);
      }
    }
    if constexpr (C::kIsSimulated) {
      const auto& cm = ctx.costs();
      if (cm.topo_groups > 1 &&
          shard::topo_group_of(ctx.proc(), procs, cm.topo_groups) !=
              shard::shard_home_group(g, g_count, cm.topo_groups)) {
        ctx.charge(cm.cross_group_sync_extra);
      }
    } else if (sh.index.load() > sh.hi) {
      // Drained (the index only grows): skip it with a read.  A failed
      // claim would still write the line, and late in an instance every
      // stealer probes the same drained shards on every grab.
      continue;
    }
    Dispatch d =
        dispatch_range(ctx, icb, sh.index, sh.aux, sh.lo, sh.hi, sprocs, s);
    if (d.count == 0) continue;  // shard drained: steal from the next sibling
    trace::bump(ctx, &trace::Counters::shard_grants);
    if (cross) trace::bump(ctx, &trace::Counters::shard_steals);
    audit::on_shard_grant(ctx, &icb, g, d.first, d.count, cross);
    if (d.last_scheduled) {
      // This grab drained shard g: join the completion election.
      const auto done = ctx.sync_op(icb.sched_done, sync::Test::kNone, 0,
                                    sync::Op::kIncrement);
      const bool complete =
          done.fetched + 1 == static_cast<i64>(icb.live_shards);
      audit::on_shard_exhaust(ctx, &icb, g, complete);
      d.last_scheduled = complete;
    }
    return d;
  }
  return {};  // every shard drained: instance fully scheduled
}

/// Grab the next block of iterations from `icb` according to `s` — the flat
/// paper path when the instance's index is unsharded, the distributed path
/// otherwise.  Under the vtime topology model a flat index is homed in
/// group 0, so with topo_groups > 1 every dispatch from another group pays
/// the remote-hop premium — the saturation that E17 measures and sharding
/// removes.  With the default platform (topo_groups == 1) the flat path is
/// bit-identical to the pre-sharding dispatcher.
template <exec::ExecutionContext C>
Dispatch dispatch_iterations(C& ctx, Icb<C>& icb, const Strategy& s) {
  if (icb.num_shards > 1) return dispatch_sharded(ctx, icb, s);
  if constexpr (C::kIsSimulated) {
    const auto& cm = ctx.costs();
    if (cm.topo_groups > 1 &&
        shard::topo_group_of(ctx.proc(), ctx.num_procs(), cm.topo_groups) !=
            0) {
      ctx.charge(cm.cross_group_sync_extra);
    }
  }
  return dispatch_range(ctx, icb, icb.index, icb.aux, 1, icb.bound,
                        ctx.num_procs(), s);
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
