// PARALLEL SECTIONS (vertical parallelism, §II-B): desugaring structure and
// end-to-end scheduling correctness.
#include <gtest/gtest.h>

#include <atomic>

#include "helpers.hpp"
#include "runtime/scheduler.hpp"

namespace selfsched {
namespace {

using namespace program;
using selfsched::testing::Recorder;
using selfsched::testing::normalized;

TEST(Sections, DesugarsToGuardedParallelLoop) {
  std::vector<NodeSeq> branches;
  branches.push_back(seq(doall("S1", 2)));
  branches.push_back(seq(doall("S2", 3)));
  branches.push_back(seq(doall("S3", 4)));
  NodeSeq top;
  top.push_back(sections(std::move(branches)));
  NestedLoopProgram p(std::move(top));

  ASSERT_EQ(p.num_loops(), 3u);
  // Every branch leaf sits under the synthetic parallel loop of bound 3.
  for (u32 i = 0; i < 3; ++i) {
    EXPECT_EQ(p.loop(i).depth, 2u);
    EXPECT_TRUE(p.loop(i).at_level(2).parallel);
    EXPECT_EQ(p.loop(i).at_level(2).bound.constant, 3);
  }
  // S1 entry carries the branch-1 selector guard with altern S2; S2 the
  // branch-2 selector with altern S3; S3 (the final ELSE) none.
  ASSERT_EQ(p.loop(0).at_level(2).guards.size(), 1u);
  EXPECT_EQ(p.loop(0).at_level(2).guards[0].altern, 1u);
  ASSERT_EQ(p.loop(1).at_level(2).guards.size(), 1u);
  EXPECT_EQ(p.loop(1).at_level(2).guards[0].altern, 2u);
  EXPECT_TRUE(p.loop(2).at_level(2).guards.empty());
}

TEST(Sections, EachBranchRunsExactlyOnce) {
  auto make = [](const BodyFactory& bodies) {
    std::vector<NodeSeq> branches;
    branches.push_back(seq(doall("alpha", 3, bodies("alpha"))));
    branches.push_back(
        seq(par(2, seq(doall("beta", 2, bodies("beta"))))));
    branches.push_back(seq(doall("gamma", 1, bodies("gamma")),
                           doall("delta", 2, bodies("delta"))));
    NodeSeq top;
    top.push_back(sections(std::move(branches)));
    top.push_back(doall("after", 2, bodies("after")));
    return NestedLoopProgram(std::move(top));
  };
  Recorder sr, vr;
  auto sprog = make(sr.factory());
  auto vprog = make(vr.factory());
  baselines::run_sequential(sprog);
  const auto r = runtime::run_vtime(vprog, 4);
  EXPECT_EQ(normalized(vr.sorted(), vprog), normalized(sr.sorted(), sprog));
  // 3 + 2*2 + 1 + 2 + 2 = 12 iterations.
  EXPECT_EQ(r.total.iterations, 12u);
}

TEST(Sections, JoinBeforeSuccessor) {
  // The construct after the sections must not start until every branch is
  // complete: record a happens-before witness.
  std::atomic<int> branches_done{0};
  std::atomic<bool> join_ok{true};
  std::vector<NodeSeq> branches;
  for (int b = 0; b < 3; ++b) {
    branches.push_back(seq(doall(
        std::string("b").append(std::to_string(b)), 4,
        [&](ProcId, const IndexVec&, i64 j) {
          if (j == 4) branches_done.fetch_add(1);
        },
        [](const IndexVec&, i64) -> Cycles { return 100; })));
  }
  NodeSeq top;
  top.push_back(sections(std::move(branches)));
  top.push_back(scalar("join_check", [&](ProcId, const IndexVec&, i64) {
    if (branches_done.load() != 3) join_ok.store(false);
  }));
  NestedLoopProgram prog(std::move(top));
  runtime::run_vtime(prog, 6);
  EXPECT_TRUE(join_ok.load());
}

TEST(Sections, SingleBranchDegeneratesToLoop) {
  std::vector<NodeSeq> branches;
  branches.push_back(seq(doall("only", 5)));
  NodeSeq top;
  top.push_back(sections(std::move(branches)));
  NestedLoopProgram p(std::move(top));
  const auto r = runtime::run_vtime(p, 2);
  EXPECT_EQ(r.total.iterations, 5u);
}

TEST(Sections, NestedInsideLoopSeesOuterIndices) {
  // sections nested in a parallel loop: branch selection must not perturb
  // outer-index-dependent bounds inside branches.
  auto make = [](const BodyFactory& bodies) {
    std::vector<NodeSeq> branches;
    branches.push_back(
        seq(doall("tri", Bound{[](const IndexVec& iv) { return iv[1]; }},
                  bodies("tri"))));
    branches.push_back(seq(doall("flat", 2, bodies("flat"))));
    NodeSeq top;
    top.push_back(par(4, seq(sections(std::move(branches)))));
    return NestedLoopProgram(std::move(top));
  };
  Recorder sr, vr;
  auto sprog = make(sr.factory());
  auto vprog = make(vr.factory());
  baselines::run_sequential(sprog);
  runtime::run_vtime(vprog, 5);
  EXPECT_EQ(normalized(vr.sorted(), vprog), normalized(sr.sorted(), sprog));
}

TEST(Sections, EmptyBranchRejected) {
  std::vector<NodeSeq> branches;
  branches.push_back(seq(doall("x", 1)));
  branches.push_back(NodeSeq{});
  NodeSeq top;
  top.push_back(sections(std::move(branches)));
  EXPECT_THROW(NestedLoopProgram{std::move(top)}, std::logic_error);
}

TEST(Sections, ThreadsEngineMatchesToo) {
  auto make = [](const BodyFactory& bodies) {
    std::vector<NodeSeq> branches;
    branches.push_back(seq(doall("a", 8, bodies("a"))));
    branches.push_back(seq(ser(2, seq(doall("b", 3, bodies("b"))))));
    NodeSeq top;
    top.push_back(sections(std::move(branches)));
    return NestedLoopProgram(std::move(top));
  };
  Recorder sr, tr;
  auto sprog = make(sr.factory());
  auto tprog = make(tr.factory());
  baselines::run_sequential(sprog);
  runtime::run_threads(tprog, 3);
  EXPECT_EQ(normalized(tr.sorted(), tprog), normalized(sr.sorted(), sprog));
}

}  // namespace
}  // namespace selfsched
