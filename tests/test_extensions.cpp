// Tests of the extensions beyond the paper's baseline scheme: sharded
// per-instance indexes on real cores, multi-dependence Doacross loops, the
// phase-timeline/Gantt instrumentation, and the engine watchdog.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "program/fig1.hpp"
#include "runtime/report.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/kernels.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using selfsched::testing::Recorder;
using selfsched::testing::normalized;

// The PoolShards suite dates from when each loop's list could be split
// into shards; the names are kept so results stay comparable.  The pool
// now has exactly one list per loop, and the parameter is the team size.
class PoolShards : public ::testing::TestWithParam<u32> {};

TEST_P(PoolShards, Fig1MatchesSerialAcrossShardCounts) {
  const u32 procs = GetParam();
  program::Fig1Params p;
  p.ni = 3;
  p.nj = 2;
  Recorder sr, vr;
  auto sprog = program::make_fig1(p, sr.factory());
  auto vprog = program::make_fig1(p, vr.factory());
  baselines::run_sequential(sprog);
  const auto r = runtime::run_vtime(vprog, procs);
  EXPECT_EQ(normalized(vr.sorted(), vprog), normalized(sr.sorted(), sprog))
      << "procs=" << procs;
  EXPECT_EQ(static_cast<i64>(r.total.iterations),
            program::fig1_total_iterations(p));
}

INSTANTIATE_TEST_SUITE_P(Shards, PoolShards,
                         ::testing::Values(1u, 2u, 4u, 7u));

TEST(PoolShards, ThreadsEngineWorksSharded) {
  // 8000 iterations on 3 workers clears index_shards_for's per-worker
  // threshold, so the Doall's index is sharded one way per worker.
  workloads::DaxpyKernel kernel(8000);
  auto prog = kernel.make_program();
  const auto r = runtime::run_threads(prog, 3);
  EXPECT_EQ(r.total.iterations, 8000u);
  EXPECT_EQ(r.counters.shard_grants, 8000u);
  EXPECT_EQ(kernel.verify(), 0);
}

TEST(Doacross, MultiDependenceOrdering) {
  // y[j] depends on y[j-2] and y[j-3]: both must be posted before j runs.
  constexpr i64 kN = 300;
  std::vector<i64> y(static_cast<std::size_t>(kN) + 1, 0);
  program::DoacrossSpec spec;
  spec.distance = 2;
  spec.post_fraction = 1.0;
  spec.extra_distances.push_back(3);
  program::NodeSeq top;
  top.push_back(program::doacross(
      "multi", kN, spec, [&](ProcId, const IndexVec&, i64 j) {
        const i64 a = j >= 3 ? y[static_cast<std::size_t>(j - 2)] : 0;
        const i64 b = j >= 4 ? y[static_cast<std::size_t>(j - 3)] : 0;
        y[static_cast<std::size_t>(j)] = a + b + 1;
      }));
  program::NestedLoopProgram prog(std::move(top));
  runtime::run_threads(prog, 4);
  // Serial recomputation.
  std::vector<i64> want(static_cast<std::size_t>(kN) + 1, 0);
  for (i64 j = 1; j <= kN; ++j) {
    const i64 a = j >= 3 ? want[static_cast<std::size_t>(j - 2)] : 0;
    const i64 b = j >= 4 ? want[static_cast<std::size_t>(j - 3)] : 0;
    want[static_cast<std::size_t>(j)] = a + b + 1;
  }
  EXPECT_EQ(y, want);
}

TEST(Doacross, MultiDependenceOnVtime) {
  program::DoacrossSpec spec;
  spec.distance = 1;
  spec.extra_distances.push_back(4);
  program::NodeSeq top;
  top.push_back(program::doacross("m", 100, spec, nullptr,
                                  [](const IndexVec&, i64) {
                                    return Cycles{50};
                                  }));
  program::NestedLoopProgram prog(std::move(top));
  const auto r = runtime::run_vtime(prog, 6);
  EXPECT_EQ(r.total.iterations, 100u);
}

TEST(Doacross, RejectsBadExtraDistance) {
  program::DoacrossSpec spec;
  spec.extra_distances.push_back(0);
  program::NodeSeq top;
  top.push_back(program::doacross("bad", 10, spec));
  EXPECT_THROW(program::NestedLoopProgram{std::move(top)},
               std::logic_error);
}

TEST(Timeline, GanttRendersAllWorkers) {
  auto prog = workloads::flat_doall(
      64, [](const IndexVec&, i64) -> Cycles { return 500; });
  runtime::SchedOptions opts;
  opts.phase_timeline = true;
  const auto r = runtime::run_vtime(prog, 4, opts);
  ASSERT_EQ(r.timeline.size(), 4u);
  for (const auto& tl : r.timeline) {
    ASSERT_FALSE(tl.empty());
    // Intervals are contiguous, ordered, and end at or before makespan.
    for (std::size_t k = 0; k < tl.size(); ++k) {
      EXPECT_LT(tl[k].start, tl[k].end);
      if (k > 0) {
        EXPECT_EQ(tl[k - 1].end, tl[k].start);
      }
    }
    EXPECT_LE(tl.back().end, r.makespan);
  }
  const std::string gantt = runtime::render_gantt(r, 60);
  EXPECT_NE(gantt.find("p00 |"), std::string::npos);
  EXPECT_NE(gantt.find("p03 |"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos) << "body time must show";
}

TEST(Timeline, DisabledByDefault) {
  auto prog = workloads::flat_doall(
      8, [](const IndexVec&, i64) -> Cycles { return 10; });
  const auto r = runtime::run_vtime(prog, 2);
  EXPECT_TRUE(r.timeline.empty());
  EXPECT_NE(runtime::render_gantt(r).find("no timeline"),
            std::string::npos);
}

TEST(Report, CsvExports) {
  auto prog = workloads::flat_doall(
      32, [](const IndexVec&, i64) -> Cycles { return 100; });
  runtime::SchedOptions opts;
  opts.phase_timeline = true;
  const auto r = runtime::run_vtime(prog, 2, opts);

  std::ostringstream tl;
  runtime::write_timeline_csv(r, tl);
  const std::string tl_csv = tl.str();
  EXPECT_NE(tl_csv.find("proc,phase,start,end"), std::string::npos);
  EXPECT_NE(tl_csv.find("body"), std::string::npos);
  // Row count = header + Σ intervals.
  std::size_t rows = 0;
  for (const auto& t : r.timeline) rows += t.size();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(tl_csv.begin(), tl_csv.end(), '\n')),
            rows + 1);

  std::ostringstream sum;
  runtime::write_summary_csv_header(sum);
  runtime::write_summary_csv_row("demo", r, sum);
  EXPECT_NE(sum.str().find("label,procs,makespan"), std::string::npos);
  EXPECT_NE(sum.str().find("demo,2,"), std::string::npos);
}

TEST(Timeline, PhaseCyclesMatchIntervalSums) {
  auto prog = workloads::flat_doall(
      128, [](const IndexVec&, i64) -> Cycles { return 100; });
  runtime::SchedOptions opts;
  opts.phase_timeline = true;
  const auto r = runtime::run_vtime(prog, 3, opts);
  for (u32 p = 0; p < 3; ++p) {
    std::array<Cycles, exec::kNumPhases> from_timeline{};
    for (const auto& iv : r.timeline[p]) {
      from_timeline[static_cast<std::size_t>(iv.phase)] += iv.end - iv.start;
    }
    for (std::size_t ph = 0; ph < exec::kNumPhases; ++ph) {
      EXPECT_EQ(from_timeline[ph], r.workers[p].phase_cycles[ph])
          << "proc " << p << " phase " << ph;
    }
  }
}

}  // namespace
}  // namespace selfsched
