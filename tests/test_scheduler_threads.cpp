// Integration tests of the scheduler on the real threaded engine: multiset
// correctness, and the verifiable computational kernels (the answer must be
// right, not just the iteration count).
#include <gtest/gtest.h>

#include <atomic>
#include <ostream>

#include "helpers.hpp"
#include "program/fig1.hpp"
#include "baselines/sequential.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/kernels.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using selfsched::testing::Recorder;
using selfsched::testing::normalized;

struct ThreadCase {
  u32 procs;
  runtime::Strategy strategy;
  const char* label;
};

// Prints the case label.  GoogleTest's default printer dumps the struct's
// bytes, pointers and padding included, and CTest names each case after
// that dump, so without this the case names changed from build to build.
void PrintTo(const ThreadCase& c, std::ostream* os) { *os << c.label; }

class ThreadsFig1 : public ::testing::TestWithParam<ThreadCase> {};

TEST_P(ThreadsFig1, MatchesSerialOracle) {
  const ThreadCase& tc = GetParam();
  program::Fig1Params p;
  p.ni = 3;
  p.nj = 2;
  p.body_cost = 20;

  Recorder serial_rec, par_rec;
  auto serial_prog = program::make_fig1(p, serial_rec.factory());
  auto par_prog = program::make_fig1(p, par_rec.factory());
  baselines::run_sequential(serial_prog);

  runtime::SchedOptions opts;
  opts.strategy = tc.strategy;
  const auto r = runtime::run_threads(par_prog, tc.procs, opts);
  EXPECT_EQ(static_cast<i64>(r.total.iterations),
            program::fig1_total_iterations(p));
  EXPECT_EQ(normalized(par_rec.sorted(), par_prog),
            normalized(serial_rec.sorted(), serial_prog));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ThreadsFig1,
    ::testing::Values(
        ThreadCase{1, runtime::Strategy::self(), "p1_self"},
        ThreadCase{2, runtime::Strategy::self(), "p2_self"},
        ThreadCase{4, runtime::Strategy::gss(), "p4_gss"},
        ThreadCase{3, runtime::Strategy::chunked(4), "p3_chunk4"},
        ThreadCase{2, runtime::Strategy::trapezoid(), "p2_tss"}));

TEST(ThreadsKernels, DaxpyComputesCorrectly) {
  workloads::DaxpyKernel kernel(20000);
  auto prog = kernel.make_program();
  runtime::SchedOptions opts;
  opts.strategy = runtime::Strategy::gss();
  const auto r = runtime::run_threads(prog, 4, opts);
  EXPECT_EQ(r.total.iterations, 20000u);
  EXPECT_EQ(kernel.verify(), 0);
}

TEST(ThreadsKernels, StencilSweepsInOrder) {
  workloads::StencilKernel kernel(2000, 5);
  auto prog = kernel.make_program();
  const auto r = runtime::run_threads(prog, 4);
  EXPECT_EQ(r.total.iterations, 2000u * 5u);
  EXPECT_EQ(kernel.verify(), 0.0);
}

TEST(ThreadsKernels, AdjointConvolutionUnderGss) {
  workloads::AdjointConvolutionKernel kernel(600);
  auto prog = kernel.make_program();
  runtime::SchedOptions opts;
  opts.strategy = runtime::Strategy::gss();
  const auto r = runtime::run_threads(prog, 4, opts);
  EXPECT_EQ(r.total.iterations, 600u);
  EXPECT_LT(kernel.verify(), 1e-12);
}

TEST(ThreadsKernels, RecurrenceViaDoacross) {
  workloads::RecurrenceKernel kernel(5000);
  auto prog = kernel.make_program();
  const auto r = runtime::run_threads(prog, 4);
  EXPECT_EQ(r.total.iterations, 5000u);
  EXPECT_LT(kernel.verify(), 1e-12);
}

TEST(ThreadsScheduler, CentralQueueIsFunctionallyEquivalent) {
  workloads::DaxpyKernel kernel(5000);
  auto prog = kernel.make_program();
  runtime::SchedOptions opts;
  opts.central_queue = true;
  const auto r = runtime::run_threads(prog, 3, opts);
  EXPECT_EQ(r.total.iterations, 5000u);
  EXPECT_EQ(kernel.verify(), 0);
}

TEST(ThreadsScheduler, RepeatedRunsOnSameProgramObject) {
  // A NestedLoopProgram is immutable; scheduling state is per-run, so the
  // same program must be runnable repeatedly.
  auto prog = workloads::flat_doall(
      1000, [](const IndexVec&, i64) -> Cycles { return 5; });
  for (int round = 0; round < 3; ++round) {
    const auto r = runtime::run_threads(prog, 2);
    EXPECT_EQ(r.total.iterations, 1000u);
  }
}

TEST(ThreadsStress, IcbRecyclingAcrossTrapezoidAndDoacross) {
  // ICB recycling hazard sweep (see the happens-before contract on
  // Icb::init): a recycled block's plain fields — trapezoid `aux`,
  // Doacross `da_flags`, the index vector — are rewritten without atomics
  // by the new instance's creator, relying on the release-lock/acquire-lock
  // edge through the pool and APPEND's list-lock publish.  Built with TSan
  // (SELFSCHED_SANITIZE=thread covers this target), these runs recycle the
  // same blocks across many instances of both flavours; auditing stays OFF
  // here so the auditor's internal mutex cannot mask a missing edge.
  workloads::RandomProgramConfig cfg;
  cfg.doacross_permille = 500;
  cfg.serial_permille = 500;
  cfg.max_depth = 3;
  for (const u64 seed : {5ull, 23ull, 57ull, 91ull}) {
    const auto prog = workloads::random_program(seed, cfg);
    const u64 oracle = baselines::run_sequential(prog).iterations;
    runtime::SchedOptions opts;
    opts.strategy = runtime::Strategy::trapezoid();
    const auto r = runtime::run_threads(prog, 4, opts);
    EXPECT_EQ(r.total.iterations, oracle) << "seed=" << seed;
  }
  // Triangular drives one ICB slot through n back-to-back trapezoid
  // instances (each inner loop re-initializes the recycled block's aux).
  const auto tri = workloads::triangular(40, 3);
  runtime::SchedOptions tss;
  tss.strategy = runtime::Strategy::trapezoid();
  const auto r = runtime::run_threads(tri, 4, tss);
  EXPECT_EQ(r.total.iterations, baselines::run_sequential(tri).iterations);
  EXPECT_GT(r.total.icbs_released, 1u);
}

TEST(ThreadsScheduler, RealBodiesNeverEvaluateTheCostModel) {
  // A cost function models a body's time.  Real cores run the body itself,
  // so the runtime must not evaluate the model there (Doall or Doacross);
  // vtime charges it exactly once per iteration.
  constexpr i64 kN = 300;
  std::atomic<u64> calls{0};
  const auto cost = [&calls](const IndexVec&, i64) -> Cycles {
    calls.fetch_add(1);
    return 50;
  };
  const auto body = [](ProcId, const IndexVec&, i64) {};
  program::NodeSeq top;
  top.push_back(program::doall("flat", kN, body, cost));
  top.push_back(program::doacross("chain", kN, program::DoacrossSpec{1, 0.3},
                                  body, cost));
  const program::NestedLoopProgram prog(std::move(top));

  const auto threads = runtime::run_threads(prog, 4);
  EXPECT_EQ(threads.total.iterations, 2u * kN);
  EXPECT_EQ(calls.load(), 0u);

  calls = 0;
  const auto vtime = runtime::run_vtime(prog, 4);
  EXPECT_EQ(vtime.total.iterations, 2u * kN);
  EXPECT_EQ(calls.load(), 2u * kN);
}

TEST(ThreadsScheduler, StatsAccounting) {
  auto prog = workloads::flat_doall(
      500, [](const IndexVec&, i64) -> Cycles { return 50; });
  const auto r = runtime::run_threads(prog, 2);
  EXPECT_EQ(r.total.iterations, 500u);
  EXPECT_EQ(r.total.icbs_released, 1u);
  EXPECT_EQ(r.total.enters, 1u);
  EXPECT_GE(r.total.dispatches, 1u);
  // At least one index grab per iteration; icount is published once per
  // attachment, not per iteration.
  EXPECT_GT(r.total.sync_ops, 500u);
  EXPECT_GT(r.makespan, 0);
}

}  // namespace
}  // namespace selfsched
