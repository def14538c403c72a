// Tests of the fault-tolerance layer (runtime/fault.hpp + the cancellation
// protocol in high_level.hpp/worker.hpp): body-exception containment on
// both engines, deterministic fault injection, deadline expiry converting a
// wedged run into a structured timeout, pool drain after cancellation, and
// bit-identical failure replay via the kReplay schedule controller.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "audit/auditor.hpp"
#include "audit/hooks.hpp"
#include "baselines/sequential.hpp"
#include "exec/real_context.hpp"
#include "program/fig1.hpp"
#include "runtime/fault.hpp"
#include "runtime/high_level.hpp"
#include "runtime/run_lifecycle.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"
#include "trace/recorder.hpp"
#include "vtime/context.hpp"
#include "vtime/schedule_ctrl.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using fault::FailureRecord;
using fault::FaultPlan;
using runtime::OnBodyError;
using runtime::RunResult;
using runtime::SchedOptions;
using vtime::ControllerKind;

/// Flat Doall whose body throws at iteration `bad_j`.
program::NestedLoopProgram throwing_doall(i64 n, i64 bad_j) {
  return workloads::flat_doall(n, nullptr, [bad_j](ProcId, const IndexVec&,
                                                   i64 j) {
    if (j == bad_j) throw std::runtime_error("boom at j=" + std::to_string(j));
  });
}

// ----------------------------------------------- body-exception containment

TEST(FaultBody, VtimeThrowModeRethrowsTheOriginalException) {
  const auto prog = throwing_doall(40, 7);
  SchedOptions opts;  // default on_body_error = kThrow
  try {
    runtime::run_vtime(prog, 4, opts);
    FAIL() << "expected the body exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "boom at j=7");
  }
}

TEST(FaultBody, VtimeReturnModeFillsTheFailureRecord) {
  const auto prog = throwing_doall(40, 7);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kBodyException);
  EXPECT_EQ(r.failure->iteration, 7);
  EXPECT_NE(r.failure->loop, kNoLoop);
  EXPECT_NE(r.failure->message.find("boom at j=7"), std::string::npos);
  EXPECT_TRUE(r.failure->exception != nullptr);
  EXPECT_EQ(r.failure->progress.size(), 4u);
  EXPECT_EQ(r.counters.cancellations, 1u);
  // The run stopped early: not every iteration can have executed.
  EXPECT_LT(r.total.iterations, 40u);
}

TEST(FaultBody, ThreadsContainAndReportTheException) {
  const auto prog = throwing_doall(200, 63);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  const RunResult r = runtime::run_threads(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kBodyException);
  EXPECT_EQ(r.failure->iteration, 63);
  EXPECT_NE(r.failure->message.find("boom at j=63"), std::string::npos);
  EXPECT_EQ(r.counters.cancellations, 1u);
}

TEST(FaultBody, ThreadsThrowModeRethrows) {
  const auto prog = throwing_doall(200, 10);
  SchedOptions opts;
  EXPECT_THROW(runtime::run_threads(prog, 4, opts), std::runtime_error);
}

// ------------------------------------------------------ injected body throw

TEST(FaultInject, BodyThrowFiresAtTheArmedPoint) {
  const auto prog = workloads::flat_doall(40, nullptr);
  FaultPlan plan;
  plan.body_throw(/*loop=*/0, /*iteration=*/5);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  EXPECT_EQ(r.failure->iteration, 5);
  EXPECT_EQ(plan.total_fired(), 1u);
  EXPECT_EQ(r.counters.faults_injected, 1u);

  // reset() re-arms the plan for another (identical) run.
  plan.reset();
  EXPECT_EQ(plan.total_fired(), 0u);
  const RunResult r2 = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r2.failure.has_value());
  EXPECT_EQ(r2.failure->iteration, r.failure->iteration);
  EXPECT_EQ(r2.makespan, r.makespan);
}

TEST(FaultInject, UnmatchedPlanIsHarmless) {
  const auto prog = workloads::flat_doall(40, nullptr);
  SchedOptions plain;
  const RunResult base = runtime::run_vtime(prog, 4, plain);

  FaultPlan plan;
  plan.body_throw(/*loop=*/99, /*iteration=*/5);  // no such loop
  SchedOptions opts;
  opts.fault_plan = &plan;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  EXPECT_FALSE(r.failure.has_value());
  EXPECT_EQ(plan.total_fired(), 0u);
  // Matching is host-side only: the armed run is bit-identical.
  EXPECT_EQ(r.makespan, base.makespan);
  EXPECT_EQ(r.engine_ops, base.engine_ops);
}

// ------------------------------------------------------------ worker stalls

TEST(FaultInject, FiniteStallDelaysButCompletesTheRun) {
  const auto prog = workloads::flat_doall(40, nullptr);
  SchedOptions plain;
  const RunResult base = runtime::run_vtime(prog, 4, plain);

  FaultPlan plan;
  plan.worker_stall(/*loop=*/0, /*iteration=*/3, /*cycles=*/5000);
  SchedOptions opts;
  opts.fault_plan = &plan;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  EXPECT_FALSE(r.failure.has_value());
  EXPECT_EQ(plan.total_fired(), 1u);
  EXPECT_EQ(r.total.iterations, base.total.iterations);
  EXPECT_GT(r.makespan, base.makespan);
}

TEST(FaultInject, IndefiniteStallIsRescuedByTheVtimeDeadline) {
  const auto prog = workloads::flat_doall(40, nullptr);
  FaultPlan plan;
  plan.worker_stall(/*loop=*/0, /*iteration=*/3, /*cycles=*/0);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  opts.deadline_vcycles = 50000;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  // The stall claims the record (it knows the failing point); the deadline
  // merely initiates the cancellation.
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  EXPECT_EQ(r.failure->iteration, 3);
  EXPECT_NE(r.failure->message.find("stall"), std::string::npos);
  EXPECT_EQ(r.counters.deadline_expirations, 1u);
  EXPECT_EQ(r.counters.cancellations, 1u);
}

TEST(FaultInject, IndefiniteStallIsRescuedByTheHostDeadline) {
  const auto prog = workloads::flat_doall(5000, nullptr);
  FaultPlan plan;
  plan.worker_stall(/*loop=*/0, /*iteration=*/3, /*cycles=*/0);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  opts.deadline_ms = 300;
  const RunResult r = runtime::run_threads(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  EXPECT_GE(r.counters.deadline_expirations, 1u);
}

// ----------------------------------------------------------- stall watchdog
//
// The watchdog (SchedOptions::watchdog_stall_ms / _vcycles) rescues a
// namespace that completes no chunk within its budget, with no deadline
// armed at all; the serve retry layer classifies its rescues as transient.

TEST(FaultWatchdog, VtimeRescueOfAnIndefiniteStallIsDeterministic) {
  const auto prog = workloads::flat_doall(40, nullptr);
  FaultPlan plan;
  plan.worker_stall(/*loop=*/0, /*iteration=*/3, /*cycles=*/0);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  opts.watchdog_stall_vcycles = 20000;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  // The stall site claims the record (it knows the wedged point); the
  // watchdog merely initiates the rescue and counts it.
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  EXPECT_EQ(r.failure->iteration, 3);
  EXPECT_EQ(r.counters.serve_watchdog_rescues, 1u);
  EXPECT_EQ(r.counters.cancellations, 1u);
  EXPECT_EQ(r.counters.deadline_expirations, 0u);

  plan.reset();
  const RunResult r2 = runtime::run_vtime(prog, 4, opts);
  EXPECT_EQ(r2.makespan, r.makespan);
  EXPECT_EQ(r2.counters.serve_watchdog_rescues, 1u);
}

TEST(FaultWatchdog, ThreadsStallIsRescuedByTheWatchdog) {
  const auto prog = workloads::flat_doall(5000, nullptr);
  FaultPlan plan;
  plan.worker_stall(/*loop=*/0, /*iteration=*/3, /*cycles=*/0);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  opts.watchdog_stall_ms = 100;  // no deadline anywhere
  const RunResult r = runtime::run_threads(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  EXPECT_GE(r.counters.serve_watchdog_rescues, 1u);
  EXPECT_EQ(r.counters.deadline_expirations, 0u);
}

TEST(FaultWatchdog, ArmedIdleWatchdogIsBitIdenticalOnVtime) {
  // A watchdog that never fires adds no engine ops: the armed run's vtime
  // trajectory equals the unarmed one's bit for bit.
  const auto prog = workloads::flat_doall(40, nullptr);
  SchedOptions plain;
  const RunResult base = runtime::run_vtime(prog, 4, plain);

  SchedOptions armed;
  armed.watchdog_stall_vcycles = 1'000'000'000;
  const RunResult r = runtime::run_vtime(prog, 4, armed);
  EXPECT_FALSE(r.failure.has_value());
  EXPECT_EQ(r.makespan, base.makespan);
  EXPECT_EQ(r.engine_ops, base.engine_ops);
  EXPECT_EQ(r.counters.serve_watchdog_rescues, 0u);
}

TEST(FaultWatchdog, ClaimsTheRecordWhenNoRicherOneExists) {
  // No injected fault: one body oversleeps the budget, so the watchdog
  // itself wins the failure-record election and the result says kWatchdog.
  const auto prog = workloads::flat_doall(
      64, nullptr, [](ProcId, const IndexVec&, i64 j) {
        // Loop indices are 1-based (paper numbering).
        if (j == 1) std::this_thread::sleep_for(std::chrono::milliseconds(400));
      });
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.watchdog_stall_ms = 60;
  const RunResult r = runtime::run_threads(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kWatchdog);
  EXPECT_NE(r.failure->message.find("watchdog"), std::string::npos);
  EXPECT_GE(r.counters.serve_watchdog_rescues, 1u);
}

TEST(FaultWatchdog, WindowOpensAtTheSeedNotWhenTheRunIsBuilt) {
  // A 1 ms budget, and the host sleeps well past it between building the
  // run and starting its worker — as a slow team start or a served
  // program's admission queue would.  The first window opens when the
  // worker seeds the program, so the wait is not a stall.  A rescue is
  // legitimate only if the worker itself went 1 ms between marks, which
  // needs the seed-to-finish span to reach the budget; a preempted worker
  // makes the run inconclusive, never a false failure.
  constexpr i64 kN = 64;
  const auto prog = workloads::flat_doall(kN, nullptr);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.watchdog_stall_ms = 1;
  runtime::ProgramRun<exec::RContext> run(prog.tables(), opts, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  exec::RContext ctx(0, 1, /*measure_phases=*/false);
  ctx.set_trace_sink(&run.rec.sink(0), run.rec.epoch());
  const auto t0 = std::chrono::steady_clock::now();
  runtime::seed_program(ctx, run.st);
  runtime::worker_loop(ctx, run.st);
  const auto span = std::chrono::steady_clock::now() - t0;
  run.stats[0] = ctx.stats();
  const RunResult r = run.finish(1, 0);

  const bool could_stall = span >= std::chrono::milliseconds(1);
  EXPECT_TRUE(!r.failure.has_value() || could_stall)
      << fault::FailureRecord::kind_name(r.failure->kind) << ": "
      << r.failure->message;
  if (!r.failure.has_value()) {
    EXPECT_EQ(r.total.iterations, static_cast<u64>(kN));
    EXPECT_EQ(r.counters.serve_watchdog_rescues, 0u);
  }
}

TEST(FaultWatchdog, ArmedOversubscribedRunCompletes) {
  // Twice as many workers as cores, armed: the team's start line may take
  // longer than the budget on a loaded host, but the window opens at the
  // seed, and from then on some worker completes a chunk every few
  // microseconds.  The budget still has to cover a preempted worker that
  // holds the last iterations: with four copies of this run in parallel
  // (8x oversubscribed), 30 ms tripped in 6 of 60 runs, once with 32767 of
  // the 32768 iterations done.
  const u32 procs = 2 * std::max(1u, std::thread::hardware_concurrency());
  constexpr i64 kN = i64{1} << 15;
  const auto prog = workloads::flat_doall(
      kN, [](const IndexVec&, i64) -> Cycles { return 200; });
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.watchdog_stall_ms = 150;
  const RunResult r = runtime::run_threads(prog, procs, opts);
  EXPECT_FALSE(r.failure.has_value())
      << (r.failure ? r.failure->message : std::string());
  EXPECT_EQ(r.total.iterations, static_cast<u64>(kN));
  EXPECT_EQ(r.counters.serve_watchdog_rescues, 0u);
}

// ---------------------------------------------------------------- deadlines

TEST(FaultDeadline, VtimeDeadlineYieldsAStructuredTimeout) {
  // No fault armed: a tight virtual deadline cuts a healthy run short.
  const auto prog = workloads::nested_pair(8, 8, 400);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.deadline_vcycles = 300;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kDeadline);
  EXPECT_EQ(r.failure->iteration, -1);
  EXPECT_EQ(r.failure->progress.size(), 4u);
  EXPECT_EQ(r.counters.deadline_expirations, 1u);
}

TEST(FaultDeadline, DeadlineExpiryIsDeterministicUnderVtime) {
  const auto prog = workloads::triangular(8, 200);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.deadline_vcycles = 2000;
  const RunResult a = runtime::run_vtime(prog, 5, opts);
  const RunResult b = runtime::run_vtime(prog, 5, opts);
  ASSERT_TRUE(a.failure.has_value());
  ASSERT_TRUE(b.failure.has_value());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.engine_ops, b.engine_ops);
  EXPECT_EQ(a.failure->worker, b.failure->worker);
  EXPECT_EQ(a.total.iterations, b.total.iterations);
}

TEST(FaultDeadline, ThrowModeRaisesFailureError) {
  const auto prog = workloads::nested_pair(8, 8, 400);
  SchedOptions opts;
  opts.deadline_vcycles = 300;  // on_body_error = kThrow
  try {
    runtime::run_vtime(prog, 4, opts);
    FAIL() << "expected FailureError";
  } catch (const fault::FailureError& e) {
    EXPECT_EQ(e.record().kind, FailureRecord::Kind::kDeadline);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
}

// --------------------------------------------------------------- lock delay

TEST(FaultInject, LockDelayPerturbsDeterministically) {
  const auto prog = workloads::triangular(8, 100);
  FaultPlan plan;
  plan.lock_delay(/*worker=*/1, /*lock_seq=*/2, /*cycles=*/700);
  SchedOptions opts;
  opts.fault_plan = &plan;
  const RunResult a = runtime::run_vtime(prog, 4, opts);
  EXPECT_EQ(plan.total_fired(), 1u);
  plan.reset();
  const RunResult b = runtime::run_vtime(prog, 4, opts);
  EXPECT_EQ(plan.total_fired(), 1u);
  EXPECT_FALSE(a.failure.has_value());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.engine_ops, b.engine_ops);
  EXPECT_EQ(a.counters.faults_injected, 1u);
}

TEST(FaultInject, SeederDelayedBetweenSiblingsDoesNotEndTheRunEarly) {
  // Worker 0 seeds the program while its peers already search.  Delay it at
  // a list lock inside the seed ENTER: the peers then finish the siblings
  // appended so far.  They must not see `outstanding` reach 0 and end the
  // run while the seeder still has siblings to append.
  const auto prog = workloads::triangular(8, 100);
  const u64 oracle = baselines::run_sequential(prog).iterations;
  for (const u64 lock_seq : {2u, 4u}) {
    FaultPlan plan;
    plan.lock_delay(/*worker=*/0, lock_seq, /*cycles=*/200000);
    SchedOptions opts;
    opts.fault_plan = &plan;
    opts.audit = true;
    const RunResult r = runtime::run_vtime(prog, 4, opts);
    EXPECT_EQ(plan.total_fired(), 1u) << "lock_seq=" << lock_seq;
    EXPECT_FALSE(r.failure.has_value()) << "lock_seq=" << lock_seq;
    EXPECT_EQ(r.total.iterations, oracle) << "lock_seq=" << lock_seq;
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
  }
}

// -------------------------------------------------- drain + replay (tentpole)

TEST(FaultDrain, CancelledRunsLeaveNothingBehindOnBothEngines) {
  // After a mid-flight cancellation the ICB arena, task pool and BAR_COUNT
  // table must be fully reclaimed — a second (clean) run on the same options
  // must still work, and the failed run's conservation is audited in
  // test_audit.cpp.
  for (const bool threads : {false, true}) {
    const auto prog = throwing_doall(300, 100);
    SchedOptions opts;
    opts.on_body_error = OnBodyError::kReturn;
    const RunResult r = threads ? runtime::run_threads(prog, 4, opts)
                                : runtime::run_vtime(prog, 4, opts);
    ASSERT_TRUE(r.failure.has_value()) << "threads=" << threads;
    EXPECT_EQ(r.counters.cancellations, 1u);
  }
}

TEST(FaultReplay, FailureRecordAndTraceReplayBitIdentically) {
  // Acceptance path: inject a fault under an explored schedule, record the
  // decision trace, then replay it — failure record and event trace must
  // come back bit-for-bit.
  const auto prog = workloads::triangular(8, 100);

  FaultPlan plan;
  plan.body_throw(/*loop=*/0, /*iteration=*/2);
  SchedOptions rec_opts;
  rec_opts.on_body_error = OnBodyError::kReturn;
  rec_opts.fault_plan = &plan;
  rec_opts.trace_events = true;
  rec_opts.schedule.kind = ControllerKind::kSeededShuffle;
  rec_opts.schedule.seed = 123;
  rec_opts.schedule.jitter = 2;
  rec_opts.record_schedule = true;
  const RunResult recorded = runtime::run_vtime(prog, 4, rec_opts);
  ASSERT_TRUE(recorded.failure.has_value());

  plan.reset();
  SchedOptions rep_opts = rec_opts;
  rep_opts.schedule = vtime::replay_of(rec_opts.schedule);
  rep_opts.schedule.decisions = recorded.schedule_decisions;
  const RunResult replayed = runtime::run_vtime(prog, 4, rep_opts);

  EXPECT_FALSE(replayed.schedule_diverged);
  EXPECT_EQ(recorded.makespan, replayed.makespan);
  EXPECT_EQ(recorded.engine_ops, replayed.engine_ops);

  ASSERT_TRUE(replayed.failure.has_value());
  const FailureRecord& fa = *recorded.failure;
  const FailureRecord& fb = *replayed.failure;
  EXPECT_EQ(fa.kind, fb.kind);
  EXPECT_EQ(fa.loop, fb.loop);
  EXPECT_TRUE(fa.ivec == fb.ivec);
  EXPECT_EQ(fa.iteration, fb.iteration);
  EXPECT_EQ(fa.worker, fb.worker);
  EXPECT_EQ(fa.message, fb.message);
  ASSERT_EQ(fa.progress.size(), fb.progress.size());
  for (std::size_t w = 0; w < fa.progress.size(); ++w) {
    EXPECT_EQ(fa.progress[w].iterations, fb.progress[w].iterations);
    EXPECT_EQ(fa.progress[w].dispatches, fb.progress[w].dispatches);
    EXPECT_EQ(fa.progress[w].sync_ops, fb.progress[w].sync_ops);
  }

  ASSERT_EQ(recorded.trace_events.size(), replayed.trace_events.size());
  for (std::size_t k = 0; k < recorded.trace_events.size(); ++k) {
    const trace::TraceEvent& ea = recorded.trace_events[k];
    const trace::TraceEvent& eb = replayed.trace_events[k];
    EXPECT_EQ(ea.worker, eb.worker);
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.loop, eb.loop);
    EXPECT_EQ(ea.ivec_hash, eb.ivec_hash);
    EXPECT_EQ(ea.first, eb.first);
    EXPECT_EQ(ea.count, eb.count);
    EXPECT_EQ(ea.start, eb.start);
    EXPECT_EQ(ea.end, eb.end);
  }
}

// --------------------------------------------------------------- compile-out

/// A context without the instrumentation accessors.  It exposes a live
/// auditor through audit_sink() alone, to show that a context with only some
/// of the accessors is bare too, and it holds a trace sink no accessor
/// reaches.
struct BareContext {
  ProcId proc() const { return 0; }
  audit::Auditor* audit_sink() { return &auditor; }
  audit::Auditor auditor;
  trace::WorkerSink sink;
};
static_assert(!exec::InstrumentedContext<BareContext>,
              "a context without the accessors must compile the hooks away");
static_assert(exec::InstrumentedContext<exec::RContext>);
static_assert(exec::InstrumentedContext<vtime::VContext>);

TEST(FaultHooks, MatchIsInertOnAFaultlessContext) {
  // Every hook on a bare context is a constant no-op; this is the bare row
  // bench_hook_overhead measures.
  BareContext ctx;
  IndexVec iv;
  EXPECT_EQ(fault::match_body(ctx, 0, iv, 0, 0), nullptr);
  fault::on_lock(ctx);  // must be a no-op, not a compile error

  trace::bump(ctx, &trace::Counters::dispatches);
  EXPECT_EQ(ctx.sink.counters.dispatches, 0u);
  const Cycles t0 = trace::event_begin(ctx);
  EXPECT_EQ(t0, trace::kTraceOff);
  trace::event_end(ctx, t0, trace::EventKind::kChunk, 0, 0, 0, 1);
  EXPECT_EQ(ctx.sink.ring.size(), 0u);

  audit::on_acquire(ctx, &ctx);
  audit::on_terminate(ctx);
  EXPECT_EQ(ctx.auditor.events(), 0u);
}

// ------------------------------------------------------- doacross cancelling

TEST(FaultDoacross, CancellationUnblocksPostWaiters) {
  // A body throw in a Doacross chain: workers blocked in the post-wait spin
  // must observe the cancellation and unwind instead of waiting forever for
  // a post that will never come.
  const auto prog = workloads::doacross_chain(64, 1, 0.3, 50);
  FaultPlan plan;
  plan.body_throw(/*loop=*/0, /*iteration=*/10);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  for (const bool threads : {false, true}) {
    plan.reset();
    const RunResult r = threads ? runtime::run_threads(prog, 4, opts)
                                : runtime::run_vtime(prog, 4, opts);
    ASSERT_TRUE(r.failure.has_value()) << "threads=" << threads;
    EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  }
}

// --------------------------------------------------- sharded cancellation

TEST(FaultShard, CancelledShardedRunDrainsAllShardsOnBothEngines) {
  // A body throw mid-run with a sharded index: poison_pool must stop every
  // shard (each shard's index is poisoned past its own hi), the pool must
  // drain, and the cancelled-mode auditor must stay silent.  A second run
  // on recycled ICBs then reuses the shard arrays cleanly.  Both loops are
  // `self` Doalls large enough to get one shard per worker.
  constexpr i64 kN = runtime::kShardMinItersPerWorker * 4 + 1;
  for (const bool threads : {false, true}) {
    const auto prog = throwing_doall(kN, kN / 3);
    SchedOptions opts;
    opts.on_body_error = OnBodyError::kReturn;
    opts.audit = true;
    opts.audit_abort = false;
    const RunResult r = threads ? runtime::run_threads(prog, 4, opts)
                                : runtime::run_vtime(prog, 4, opts);
    ASSERT_TRUE(r.failure.has_value()) << "threads=" << threads;
    EXPECT_EQ(r.counters.cancellations, 1u);
    EXPECT_GT(r.counters.shard_grants, 0u) << "threads=" << threads;
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;

    const auto clean = workloads::flat_doall(kN, nullptr);
    const RunResult r2 = threads ? runtime::run_threads(clean, 4, opts)
                                 : runtime::run_vtime(clean, 4, opts);
    EXPECT_FALSE(r2.failure.has_value()) << "threads=" << threads;
    EXPECT_EQ(r2.total.iterations, static_cast<u64>(kN));
    EXPECT_EQ(r2.counters.shard_grants, static_cast<u64>(kN));
  }
}

TEST(FaultShard, BodyThrowInsideAHomeShardDrainFiresAtItsIteration) {
  // Worker 0 homes shard 0, [1, b/4] at P = 4, and drains it through the
  // grant loop's direct home claims.  A body throw armed halfway through
  // that shard must fire at exactly that iteration, once, and the
  // cancelled run must drain clean.
  constexpr i64 kN = runtime::kShardMinItersPerWorker * 4 * 8;
  constexpr i64 kBad = kN / 8;
  const auto prog = workloads::flat_doall(
      kN, [](const IndexVec&, i64) -> Cycles { return 20; });
  FaultPlan plan;
  plan.body_throw(/*loop=*/0, kBad);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  opts.audit = true;
  opts.audit_abort = false;
  const RunResult r = runtime::run_threads(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  EXPECT_EQ(r.failure->iteration, kBad);
  EXPECT_EQ(plan.total_fired(), 1u);
  EXPECT_EQ(r.counters.faults_injected, 1u);
  EXPECT_GT(r.counters.shard_grants, 0u);
  EXPECT_LT(r.total.iterations, static_cast<u64>(kN));
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
}

TEST(FaultShard, WatchdogShorterThanAHomeShardDrainLeavesAHealthyRunAlone) {
  // A 2^18-iteration sharded run on 4 workers: each home shard holds 2^16
  // iterations of several microseconds, so one home-shard drain takes about
  // half a second while one iteration takes a few thousandths of the
  // 150 ms budget.  The grant loop marks progress after every chunk, so the
  // watchdog never sees a stall; a mark only per attachment would leave it
  // a whole drain.
  constexpr i64 kN = i64{1} << 18;
  const auto prog = workloads::flat_doall(
      kN, [](const IndexVec&, i64) -> Cycles { return 6000; });
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.watchdog_stall_ms = 150;
  const RunResult r = runtime::run_threads(prog, 4, opts);
  EXPECT_FALSE(r.failure.has_value())
      << (r.failure ? r.failure->message : std::string());
  EXPECT_EQ(r.total.iterations, static_cast<u64>(kN));
  EXPECT_EQ(r.counters.shard_grants, static_cast<u64>(kN));
  EXPECT_EQ(r.counters.serve_watchdog_rescues, 0u);
}

TEST(FaultShard, DeadlineExpiryDrainsShardedInstancesDeterministically) {
  // Virtual-deadline cancellation of a run whose instances are sharded:
  // expiry is deterministic (same makespan, ops, iterations twice), yields
  // a structured kDeadline failure, and leaves nothing undrained.
  const auto prog = workloads::nested_pair(
      8, runtime::kShardMinItersPerWorker * 4 + 1, 400);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.deadline_vcycles = 3000;
  opts.audit = true;
  opts.audit_abort = false;
  const RunResult a = runtime::run_vtime(prog, 4, opts);
  const RunResult b = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(a.failure.has_value());
  EXPECT_EQ(a.failure->kind, FailureRecord::Kind::kDeadline);
  EXPECT_EQ(a.counters.deadline_expirations, 1u);
  EXPECT_GT(a.counters.shard_grants, 0u);
  EXPECT_EQ(a.audit_violations, 0u) << a.audit_report;
  ASSERT_TRUE(b.failure.has_value());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.engine_ops, b.engine_ops);
  EXPECT_EQ(a.total.iterations, b.total.iterations);
}

}  // namespace
}  // namespace selfsched
