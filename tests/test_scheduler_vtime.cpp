// Integration tests of the full two-level scheduler on the virtual-time
// engine: iteration-multiset correctness against the sequential oracle,
// determinism, termination invariants, and behaviour across processor
// counts, strategies, and structural edge cases.
#include <gtest/gtest.h>

#include <ostream>

#include "helpers.hpp"
#include "program/fig1.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using selfsched::testing::Recorder;
using selfsched::testing::normalized;

/// Build two structurally identical programs (generators are consumed by
/// recording hooks), run one serially and one on vtime, compare multisets.
template <typename MakeProg>
void expect_matches_serial(MakeProg make, u32 procs,
                           runtime::SchedOptions opts = {}) {
  Recorder serial_rec, par_rec;
  program::NestedLoopProgram serial_prog = make(serial_rec.factory());
  program::NestedLoopProgram par_prog = make(par_rec.factory());

  const auto serial = baselines::run_sequential(serial_prog);
  const auto result = runtime::run_vtime(par_prog, procs, opts);

  EXPECT_EQ(result.total.iterations, serial.iterations);
  EXPECT_EQ(normalized(par_rec.sorted(), par_prog),
            normalized(serial_rec.sorted(), serial_prog))
      << "parallel execution must produce the serial iteration multiset "
      << "(procs=" << procs << ", strategy=" << opts.strategy.name() << ")";
}

program::NestedLoopProgram fig1_with(const program::BodyFactory& bodies) {
  program::Fig1Params p;
  p.ni = 3;
  p.nj = 2;
  p.nk = 2;
  return make_fig1(p, bodies);
}

class Fig1AcrossProcs : public ::testing::TestWithParam<u32> {};

TEST_P(Fig1AcrossProcs, MatchesSerialOracle) {
  expect_matches_serial(fig1_with, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Procs, Fig1AcrossProcs,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u, 32u));

struct StrategyCase {
  runtime::Strategy strategy;
  const char* label;
};

// Prints the case label.  GoogleTest's default printer dumps the struct's
// bytes, pointers and padding included, and CTest names each case after
// that dump, so without this the case names changed from build to build.
void PrintTo(const StrategyCase& c, std::ostream* os) { *os << c.label; }

class Fig1AcrossStrategies
    : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(Fig1AcrossStrategies, MatchesSerialOracle) {
  runtime::SchedOptions opts;
  opts.strategy = GetParam().strategy;
  expect_matches_serial(fig1_with, 6, opts);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, Fig1AcrossStrategies,
    ::testing::Values(StrategyCase{runtime::Strategy::self(), "self"},
                      StrategyCase{runtime::Strategy::chunked(3), "chunk3"},
                      StrategyCase{runtime::Strategy::chunked(64), "chunk64"},
                      StrategyCase{runtime::Strategy::gss(), "gss"},
                      StrategyCase{runtime::Strategy::factoring(), "fact"},
                      StrategyCase{runtime::Strategy::trapezoid(), "tss"}));

TEST(VtimeScheduler, DeterministicMakespanAndStats) {
  auto run_once = [] {
    program::Fig1Params p;
    auto prog = program::make_fig1(p);
    runtime::SchedOptions opts;
    opts.strategy = runtime::Strategy::gss();
    return runtime::run_vtime(prog, 8, opts);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.engine_ops, b.engine_ops);
  EXPECT_EQ(a.total.sync_ops, b.total.sync_ops);
  EXPECT_EQ(a.total.iterations, b.total.iterations);
  for (std::size_t i = 0; i < exec::kNumPhases; ++i) {
    EXPECT_EQ(a.total.phase_cycles[i], b.total.phase_cycles[i]);
  }
}

TEST(VtimeScheduler, MoreProcessorsNeverSlower) {
  program::Fig1Params p;
  p.ni = 4;
  p.nj = 3;
  p.body_cost = 500;
  Cycles prev = 0;
  for (u32 procs : {1u, 2u, 4u, 8u}) {
    auto prog = program::make_fig1(p);
    const auto r = runtime::run_vtime(prog, procs);
    if (prev != 0) {
      // Allow a small tolerance: scheduling is not strictly monotone, but
      // the trend must hold for a parallel-rich program.
      EXPECT_LT(r.makespan, prev * 11 / 10)
          << "P=" << procs << " slower than half the processors";
    }
    prev = r.makespan;
  }
}

TEST(VtimeScheduler, SingleProcessorUtilizationNearOne) {
  // P=1 with large body cost: nearly all time should be body time.
  auto prog = workloads::flat_doall(
      200, [](const IndexVec&, i64) -> Cycles { return 10000; });
  const auto r = runtime::run_vtime(prog, 1);
  EXPECT_GT(r.utilization(), 0.97);
  EXPECT_EQ(r.total.iterations, 200u);
}

TEST(VtimeScheduler, SpeedupScalesOnWideLoop) {
  auto make = [] {
    return workloads::flat_doall(
        512, [](const IndexVec&, i64) -> Cycles { return 2000; });
  };
  const auto r1 = runtime::run_vtime(make(), 1);
  const auto r8 = runtime::run_vtime(make(), 8);
  const double speedup = static_cast<double>(r1.makespan) /
                         static_cast<double>(r8.makespan);
  EXPECT_GT(speedup, 6.0) << "8 processors on 512 fat iterations";
}

TEST(VtimeScheduler, ZeroBoundInnermostLoopIsSkipped) {
  Recorder rec;
  program::NodeSeq top;
  top.push_back(program::doall("empty", 0, rec.factory()("empty")));
  top.push_back(program::doall("real", 3, rec.factory()("real")));
  program::NestedLoopProgram prog(std::move(top));
  const auto r = runtime::run_vtime(prog, 2);
  EXPECT_EQ(r.total.iterations, 3u);
  EXPECT_EQ(rec.size(), 3u);
}

TEST(VtimeScheduler, ZeroBoundContainerLoopIsSkipped) {
  Recorder rec;
  program::NodeSeq top;
  top.push_back(program::par(0, program::seq(program::doall(
                                    "inner", 5, rec.factory()("inner")))));
  top.push_back(program::doall("after", 2, rec.factory()("after")));
  program::NestedLoopProgram prog(std::move(top));
  const auto r = runtime::run_vtime(prog, 2);
  EXPECT_EQ(r.total.iterations, 2u);
}

TEST(VtimeScheduler, EntirelyGuardedOffProgramTerminates) {
  program::NodeSeq top;
  top.push_back(program::if_then([](const IndexVec&) { return false; },
                                 program::seq(program::doall("x", 5))));
  program::NestedLoopProgram prog(std::move(top));
  const auto r = runtime::run_vtime(prog, 4);
  EXPECT_EQ(r.total.iterations, 0u);
}

TEST(VtimeScheduler, IfElseTakesExactlyOneBranch) {
  expect_matches_serial(
      [](const program::BodyFactory& bodies) {
        using namespace program;
        NodeSeq top;
        auto odd = [](const IndexVec& iv) { return iv[1] % 2 == 1; };
        top.push_back(
            par(6, seq(if_then_else(odd, seq(doall("T", 3, bodies("T"))),
                                    seq(doall("E", 4, bodies("E")))))));
        return NestedLoopProgram(std::move(top));
      },
      4);
}

TEST(VtimeScheduler, NestedIfChains) {
  expect_matches_serial(
      [](const program::BodyFactory& bodies) {
        using namespace program;
        auto c1 = [](const IndexVec& iv) { return iv[1] % 2 == 0; };
        auto c2 = [](const IndexVec& iv) { return iv[1] % 3 == 0; };
        NodeSeq top;
        top.push_back(par(
            12, seq(if_then_else(
                    c1,
                    seq(if_then_else(c2, seq(doall("A", 2, bodies("A"))),
                                     seq(doall("B", 2, bodies("B"))))),
                    seq(doall("C", 2, bodies("C")))))));
        return NestedLoopProgram(std::move(top));
      },
      4);
}

TEST(VtimeScheduler, EmptyElseSkipsToSuccessor) {
  expect_matches_serial(
      [](const program::BodyFactory& bodies) {
        using namespace program;
        auto rarely = [](const IndexVec& iv) { return iv[1] == 3; };
        NodeSeq top;
        top.push_back(
            par(8, seq(if_then(rarely, seq(doall("guarded", 4,
                                                 bodies("guarded")))),
                       doall("always", 2, bodies("always")))));
        return NestedLoopProgram(std::move(top));
      },
      4);
}

TEST(VtimeScheduler, IndexDependentBounds) {
  expect_matches_serial(
      [](const program::BodyFactory& bodies) {
        using namespace program;
        NodeSeq top;
        Bound tri{[](const IndexVec& iv) { return iv[1]; }};
        top.push_back(par(7, seq(doall("tri", tri, bodies("tri")))));
        return NestedLoopProgram(std::move(top));
      },
      8);
}

TEST(VtimeScheduler, DeepAlternatingNest) {
  expect_matches_serial(
      [](const program::BodyFactory& bodies) {
        using namespace program;
        // ser { par { ser { par { leaf } } } } with widths 2.
        NodeSeq top;
        top.push_back(ser(
            2, seq(par(2, seq(ser(2, seq(par(2, seq(doall(
                                              "leaf", 3,
                                              bodies("leaf")))))))))));
        return NestedLoopProgram(std::move(top));
      },
      6);
}

TEST(VtimeScheduler, SerialChainSequencesInstances) {
  // In a serial loop the k-th instance must complete before the (k+1)-th
  // starts; with a recording body, observed serial indices must be
  // monotone.
  std::vector<i64> order;
  std::mutex mu;
  program::NodeSeq top;
  top.push_back(program::ser(
      5, program::seq(program::doall(
             "step", 4,
             [&](ProcId, const IndexVec& iv, i64) {
               std::lock_guard lk(mu);
               order.push_back(iv[1]);
             }))));
  program::NestedLoopProgram prog(std::move(top));
  runtime::run_vtime(prog, 4);
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1], order[i])
        << "serial iteration " << order[i] << " overlapped predecessor";
  }
}

TEST(VtimeScheduler, CentralQueueProducesSameMultiset) {
  runtime::SchedOptions opts;
  opts.central_queue = true;
  expect_matches_serial(fig1_with, 6, opts);
}

TEST(VtimeScheduler, ManyMoreProcessorsThanWork) {
  auto prog = workloads::flat_doall(
      4, [](const IndexVec&, i64) -> Cycles { return 100; });
  const auto r = runtime::run_vtime(prog, 32);
  EXPECT_EQ(r.total.iterations, 4u);
}

TEST(VtimeScheduler, SurplusSearchersDoNotStarveDelete) {
  // Regression: P far above the nest's usable width.  Surplus searchers
  // used to attach/detach-churn on fully-scheduled ICBs, and their list
  // lock traffic deterministically starved the pending DELETE — the
  // program stalled with live work in the pool.  The index<=bound pre-test
  // in SEARCH keeps them off such ICBs; the run must finish in a sane
  // number of engine ops.
  using namespace program;
  NodeSeq top;
  Bound tri{[](const IndexVec& iv) { return iv[2] * 8; }};
  top.push_back(par(
      6, seq(par(4, seq(ser(3, seq(doall("relax", tri, nullptr,
                                         [](const IndexVec&, i64 t) {
                                           return Cycles{20 + t % 7};
                                         }),
                                   doall("norm", 4, nullptr,
                                         [](const IndexVec&, i64) {
                                           return Cycles{15};
                                         }))))))));
  NestedLoopProgram prog(std::move(top));
  const auto r = runtime::run_vtime(prog, 16);
  EXPECT_EQ(r.total.iterations, 1728u);
  EXPECT_LT(r.engine_ops, 500000u)
      << "searcher churn regression: ops exploded";
}

TEST(VtimeScheduler, CostModelScalesOverheads) {
  auto make = [] {
    return workloads::flat_doall(
        256, [](const IndexVec&, i64) -> Cycles { return 50; });
  };
  runtime::SchedOptions cheap;
  cheap.costs = vtime::CostModel::cheap_sync();
  runtime::SchedOptions pricey;
  pricey.costs = vtime::CostModel::expensive_sync();
  const auto rc = runtime::run_vtime(make(), 4, cheap);
  const auto rp = runtime::run_vtime(make(), 4, pricey);
  EXPECT_LT(rc.makespan, rp.makespan);
  EXPECT_GT(rc.utilization(), rp.utilization());
}

}  // namespace
}  // namespace selfsched
