// Schedule-exploration tests: the pluggable vtime tie-break controllers
// (vtime/schedule_ctrl.hpp) must (a) preserve canonical results bit-for-bit,
// (b) keep every explored interleaving faithful to the serial oracle,
// (c) record schedules that replay to identical event traces, and
// (d) actually produce distinct legal interleavings of the same program.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "helpers.hpp"
#include "program/ast.hpp"
#include "program/fig1.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/verify.hpp"
#include "vtime/schedule_ctrl.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using runtime::EngineKind;
using runtime::RunResult;
using runtime::SchedOptions;
using vtime::ControllerKind;
using vtime::ScheduleSpec;

/// Comparable projection of a scheduler event trace (trace/ring.hpp).
using EventSig =
    std::tuple<ProcId, u32, LoopId, u64, i64, i64, Cycles, Cycles>;

std::vector<EventSig> event_signature(const RunResult& r) {
  std::vector<EventSig> out;
  out.reserve(r.trace_events.size());
  for (const auto& e : r.trace_events) {
    out.emplace_back(e.worker, static_cast<u32>(e.kind), e.loop, e.ivec_hash,
                     e.first, e.count, e.start, e.end);
  }
  return out;
}

RunResult run_random(u64 program_seed, u32 procs, const SchedOptions& opts) {
  auto prog = workloads::random_program(program_seed, {});
  return runtime::run_vtime(prog, procs, opts);
}

/// Outer Par of `width` instances over `loops` tiny innermost Doalls: every
/// worker churns through many short instances, so APPENDs and DELETEs (which
/// clear SW(i) for the duration of the list surgery, Algorithms 1-2) race
/// SEARCHes continuously.  With loops > 64 the SW spans two words, so the
/// rotated scan crosses the word boundary too.
program::NestedLoopProgram wide_program(u32 loops, i64 width,
                                        const program::BodyFactory& bodies) {
  program::NodeSeq inner;
  for (u32 l = 0; l < loops; ++l) {
    const std::string name = std::string("w").append(std::to_string(l));
    inner.push_back(program::doall(
        name, 2, bodies ? bodies(name) : program::BodyFn{},
        [](const IndexVec&, i64) -> Cycles { return 3; }));
  }
  program::NodeSeq top;
  top.push_back(program::par(width, std::move(inner)));
  return program::NestedLoopProgram(std::move(top));
}

// ---------------------------------------------------------------- (a) ----

TEST(ScheduleExplore, CanonicalControllerIsBitIdentical) {
  // The canonical spec — even with decision recording on, which flips the
  // engine onto the strict complete-tie-set grant path — must reproduce
  // the default engine's makespans, op counts and counters exactly.
  for (const u64 seed : {1ull, 7ull, 23ull, 42ull, 57ull}) {
    SchedOptions plain;
    const RunResult a = run_random(seed, 6, plain);

    SchedOptions canon;
    canon.schedule.kind = ControllerKind::kCanonical;
    canon.record_schedule = true;
    const RunResult b = run_random(seed, 6, canon);

    EXPECT_EQ(a.makespan, b.makespan) << "seed=" << seed;
    EXPECT_EQ(a.engine_ops, b.engine_ops) << "seed=" << seed;
    EXPECT_EQ(a.total.sync_ops, b.total.sync_ops) << "seed=" << seed;
    EXPECT_EQ(a.total.dispatches, b.total.dispatches) << "seed=" << seed;
    EXPECT_EQ(a.counters.lock_acquisitions, b.counters.lock_acquisitions)
        << "seed=" << seed;
  }
}

TEST(ScheduleExplore, CanonicalControllerPreservesFig1EventTrace) {
  auto run = [](bool record) {
    program::Fig1Params p;
    p.ni = 2;
    p.nj = 2;
    auto prog = program::make_fig1(p);
    SchedOptions opts;
    opts.trace_events = true;
    opts.record_schedule = record;
    return runtime::run_vtime(prog, 4, opts);
  };
  const RunResult a = run(false);
  const RunResult b = run(true);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(event_signature(a), event_signature(b));
}

// ---------------------------------------------------------------- (b) ----

TEST(ScheduleExplore, SweepMatchesSerialOracle) {
  // Random programs x controllers x schedule seeds: every explored
  // interleaving must execute the exact serial iteration multiset, leak no
  // ICBs, and drain the pool (differential_check asserts drainage).
  for (const u64 seed : {3ull, 11ull, 19ull, 29ull}) {
    auto builder = [seed](const program::BodyFactory& bodies) {
      return workloads::random_program(seed, {}, bodies);
    };
    SchedOptions opts;
    opts.central_queue = seed % 2 == 1;
    for (const ControllerKind kind :
         {ControllerKind::kSeededShuffle, ControllerKind::kPct}) {
      runtime::ScheduleSweep sweep;
      sweep.schedules = 4;
      sweep.controller = kind;
      sweep.base_seed = seed * 100 + 1;
      sweep.jitter = kind == ControllerKind::kSeededShuffle ? 2 : 0;
      const auto r = runtime::differential_check(builder, 5,
                                                 EngineKind::kVtime, opts,
                                                 sweep);
      EXPECT_TRUE(r.ok) << "seed=" << seed << " controller="
                        << vtime::controller_kind_name(kind) << "\n"
                        << r.detail;
      EXPECT_EQ(r.schedules_run, 4u);
    }
  }
}

TEST(ScheduleExplore, SearchSurvivesTransientSwClearWindow) {
  // The transient SW(i)=0 window: APPEND and DELETE clear bit i while they
  // splice list i, so a SEARCH probing at that instant sees "empty" and
  // must divert to another list — never park an instance forever and never
  // grant the same iteration twice.  Sweep explored interleavings of a
  // churn-heavy wide program whose 72 lists span two SW words (the rotated
  // cursors cross the word boundary) and hold every run to the serial
  // oracle: differential_check asserts the exact iteration multiset
  // (nothing lost, nothing double-granted), ICB release accounting, and a
  // drained pool.
  auto builder = [](const program::BodyFactory& bodies) {
    return wide_program(72, 3, bodies);
  };
  for (const ControllerKind kind :
       {ControllerKind::kSeededShuffle, ControllerKind::kPct}) {
    runtime::ScheduleSweep sweep;
    sweep.schedules = 4;
    sweep.controller = kind;
    sweep.base_seed = 7u;
    sweep.jitter = kind == ControllerKind::kSeededShuffle ? 2 : 0;
    const auto r = runtime::differential_check(builder, 6, EngineKind::kVtime,
                                               SchedOptions{}, sweep);
    EXPECT_TRUE(r.ok) << "controller=" << vtime::controller_kind_name(kind)
                      << "\n" << r.detail;
    EXPECT_EQ(r.schedules_run, 4u);
  }
}

TEST(ScheduleExplore, MultiWordSwKeepsCanonicalRunsBitIdentical) {
  // Determinism with >64 lists (a two-word SW) and rotating cursors: two
  // canonical vtime runs of the same program must stay bit-identical — the
  // multi-word scan and the per-worker cursors are deterministic state
  // machines, not a nondeterminism source.
  auto run = [] {
    auto prog = wide_program(72, 3, nullptr);
    SchedOptions opts;
    opts.record_schedule = true;
    return runtime::run_vtime(prog, 8, opts);
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.engine_ops, b.engine_ops);
  EXPECT_EQ(a.total.sync_ops, b.total.sync_ops);
  EXPECT_EQ(a.schedule_decisions, b.schedule_decisions);
  EXPECT_EQ(a.counters.sw_scans, b.counters.sw_scans);
  EXPECT_EQ(a.counters.search_probes, b.counters.search_probes);
  EXPECT_EQ(a.counters.search_retries, b.counters.search_retries);
  EXPECT_EQ(a.counters.list_lock_failures, b.counters.list_lock_failures);
}

// ---------------------------------------------------------------- (d) ----

TEST(ScheduleExplore, ShuffleProducesDistinctLegalInterleavings) {
  // A tie-heavy program: constant-cost flat Doall under self-scheduling
  // puts many processors on the same sync variables at the same virtual
  // times.  At least one shuffle seed must grant ties in a different order
  // than canonical (distinct decision trace) while still matching the
  // serial oracle — two distinct legal interleavings of one program.
  auto builder = [](const program::BodyFactory& bodies) {
    return workloads::flat_doall(
        48, [](const IndexVec&, i64) -> Cycles { return 10; },
        bodies ? bodies("flat") : program::BodyFn{});
  };

  auto decisions_for = [&](const ScheduleSpec& spec) {
    auto prog = builder(nullptr);
    SchedOptions opts;
    opts.schedule = spec;
    opts.record_schedule = true;
    return runtime::run_vtime(prog, 8, opts).schedule_decisions;
  };

  ScheduleSpec canon;
  canon.kind = ControllerKind::kCanonical;
  const auto canonical = decisions_for(canon);

  bool distinct = false;
  for (u64 seed = 1; seed <= 8 && !distinct; ++seed) {
    ScheduleSpec spec;
    spec.kind = ControllerKind::kSeededShuffle;
    spec.seed = seed;
    spec.jitter = 1;
    if (decisions_for(spec) != canonical) {
      distinct = true;
      // ... and the shuffled interleaving is still correct.
      runtime::ScheduleSweep sweep;
      sweep.schedules = 1;
      sweep.controller = ControllerKind::kSeededShuffle;
      sweep.base_seed = seed;
      sweep.jitter = 1;
      const auto r = runtime::differential_check(builder, 8,
                                                 EngineKind::kVtime, {},
                                                 sweep);
      EXPECT_TRUE(r.ok) << r.detail;
    }
  }
  EXPECT_TRUE(distinct)
      << "no shuffle seed in 1..8 changed any tie-break on a tie-heavy "
         "program";
}

// ---------------------------------------------------------------- (c) ----

TEST(ScheduleExplore, RecordThenReplayYieldsIdenticalTrace) {
  for (const u64 seed : {5ull, 13ull, 31ull}) {
    SchedOptions rec_opts;
    rec_opts.schedule.kind = ControllerKind::kSeededShuffle;
    rec_opts.schedule.seed = 1000 + seed;
    rec_opts.schedule.jitter = 2;
    rec_opts.record_schedule = true;
    rec_opts.trace_events = true;
    const RunResult recorded = run_random(seed, 7, rec_opts);

    SchedOptions rep_opts;
    rep_opts.schedule = vtime::replay_of(rec_opts.schedule);
    rep_opts.schedule.decisions = recorded.schedule_decisions;
    rep_opts.record_schedule = true;
    rep_opts.trace_events = true;
    const RunResult replayed = run_random(seed, 7, rep_opts);

    EXPECT_FALSE(replayed.schedule_diverged) << "seed=" << seed;
    EXPECT_EQ(recorded.makespan, replayed.makespan) << "seed=" << seed;
    EXPECT_EQ(recorded.engine_ops, replayed.engine_ops) << "seed=" << seed;
    EXPECT_EQ(recorded.schedule_decisions, replayed.schedule_decisions)
        << "seed=" << seed;
    EXPECT_EQ(event_signature(recorded), event_signature(replayed))
        << "seed=" << seed;
  }
}

TEST(ScheduleExplore, PctIsDeterministicPerSpec) {
  SchedOptions opts;
  opts.schedule.kind = ControllerKind::kPct;
  opts.schedule.seed = 99;
  opts.schedule.pct_depth = 4;
  opts.record_schedule = true;
  const RunResult a = run_random(17, 6, opts);
  const RunResult b = run_random(17, 6, opts);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.engine_ops, b.engine_ops);
  EXPECT_EQ(a.schedule_decisions, b.schedule_decisions);
}

// ------------------------------------------------------------ repro I/O --

TEST(ScheduleExplore, ReproFileRoundTrips) {
  vtime::ReproFile r;
  r.schedule.kind = ControllerKind::kSeededShuffle;
  r.schedule.seed = 424242;
  r.schedule.jitter = 3;
  r.schedule.pct_depth = 5;
  r.schedule.pct_ops = 2000;
  r.schedule.decisions = {0, 3, 1, 7, 2, 2, 0, 5};
  r.extra.emplace_back("program_seed", "17");
  r.extra.emplace_back("procs", "8");

  const std::string text = vtime::serialize_repro(r);
  const auto parsed = vtime::parse_repro(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->schedule.kind, r.schedule.kind);
  EXPECT_EQ(parsed->schedule.seed, r.schedule.seed);
  EXPECT_EQ(parsed->schedule.jitter, r.schedule.jitter);
  EXPECT_EQ(parsed->schedule.pct_depth, r.schedule.pct_depth);
  EXPECT_EQ(parsed->schedule.pct_ops, r.schedule.pct_ops);
  EXPECT_EQ(parsed->schedule.decisions, r.schedule.decisions);
  EXPECT_EQ(parsed->extra, r.extra);

  EXPECT_FALSE(vtime::parse_repro("not a repro").has_value());
  EXPECT_FALSE(vtime::parse_repro(text.substr(0, text.size() / 2))
                   .has_value());
}

TEST(ScheduleExplore, ReplayDivergenceIsReported) {
  // A replay trace recorded from one schedule but truncated/corrupted must
  // flag divergence rather than silently exploring something else.
  SchedOptions rec_opts;
  rec_opts.schedule.kind = ControllerKind::kSeededShuffle;
  rec_opts.schedule.seed = 7;
  rec_opts.record_schedule = true;
  const RunResult recorded = run_random(23, 6, rec_opts);
  ASSERT_GT(recorded.schedule_decisions.size(), 1u);

  SchedOptions rep_opts;
  rep_opts.schedule = vtime::replay_of(rec_opts.schedule);
  rep_opts.schedule.decisions.assign(
      recorded.schedule_decisions.begin(),
      recorded.schedule_decisions.begin() + 1);  // truncated
  const RunResult replayed = run_random(23, 6, rep_opts);
  EXPECT_TRUE(replayed.schedule_diverged);
}

TEST(ScheduleExplore, AuditedSweepAcrossSwStrategyMatrix) {
  // One- and two-word SWs (12 and 72 lists), the per-loop pool and the
  // central-queue ablation, two strategies, under explored schedules with
  // the invariant auditor live: any ICB-lifecycle, list-integrity,
  // BAR_COUNT, or Doacross-flag violation aborts the run (audit_abort
  // defaults to true), and differential_check still holds every run to the
  // serial oracle.  This is the in-tree core of `check.sh --audit`.
  u32 combo = 0;
  for (const u32 loops : {12u, 72u}) {
    auto builder = [loops](const program::BodyFactory& bodies) {
      return wide_program(loops, 3, bodies);
    };
    for (const bool central : {false, true}) {
      for (const runtime::Strategy& strat :
           {runtime::Strategy::gss(), runtime::Strategy::trapezoid()}) {
        SchedOptions opts;
        opts.audit = true;
        opts.strategy = strat;
        opts.central_queue = central;
        runtime::ScheduleSweep sweep;
        sweep.schedules = 2;
        sweep.controller = ControllerKind::kSeededShuffle;
        sweep.base_seed = 31u + ++combo;
        sweep.jitter = 2;
        const auto r = runtime::differential_check(
            builder, 5, EngineKind::kVtime, opts, sweep);
        EXPECT_TRUE(r.ok) << "loops=" << loops << " central=" << central
                          << " " << strat.name() << "\n" << r.detail;
      }
    }
  }
}

TEST(ScheduleExplore, SearchRetryChurnIsPinnedUnderTheAttachRetest) {
  // Regression for the SEARCH attach TOCTOU fix: the post-attach index
  // re-test revokes doomed attaches immediately and folds them into
  // `search_retries`.  Canonical vtime runs are deterministic, so the
  // churn per (program, schedule) is pinned — identical across repeated
  // runs and across audit on/off (the auditor does host work only) — and
  // stays bounded even on an APPEND/DELETE-heavy program under explored
  // schedules.
  const auto prog = wide_program(72, 3, nullptr);
  const SchedOptions base;
  const RunResult a = runtime::run_vtime(prog, 6, base);
  const RunResult b = runtime::run_vtime(prog, 6, base);
  EXPECT_EQ(a.counters.search_retries, b.counters.search_retries);
  EXPECT_EQ(a.makespan, b.makespan);

  SchedOptions audited = base;
  audited.audit = true;
  const RunResult c = runtime::run_vtime(prog, 6, audited);
  EXPECT_EQ(a.counters.search_retries, c.counters.search_retries);
  EXPECT_EQ(a.makespan, c.makespan);

  for (const u64 s : {1ull, 2ull, 3ull}) {
    SchedOptions opts = base;
    opts.schedule.kind = ControllerKind::kSeededShuffle;
    opts.schedule.seed = s;
    opts.schedule.jitter = 2;
    const RunResult x = runtime::run_vtime(prog, 6, opts);
    const RunResult y = runtime::run_vtime(prog, 6, opts);
    EXPECT_EQ(x.counters.search_retries, y.counters.search_retries)
        << "seed=" << s;
    // Every retry (failed round or revoked attach) costs sync ops, so
    // runaway churn would show up here long before it wedges a run.
    EXPECT_LE(x.counters.search_retries, x.total.sync_ops) << "seed=" << s;
  }
}

}  // namespace
}  // namespace selfsched
