// Tests of the differential-verification library (runtime/verify.hpp).
#include <gtest/gtest.h>

#include "program/fig1.hpp"
#include "runtime/verify.hpp"
#include "workloads/programs.hpp"

namespace selfsched::runtime {
namespace {

TEST(Verify, Fig1PassesOnBothEngines) {
  auto builder = [](const program::BodyFactory& bodies) {
    program::Fig1Params p;
    p.ni = 2;
    p.nj = 2;
    return program::make_fig1(p, bodies);
  };
  for (const auto kind : {EngineKind::kVtime, EngineKind::kThreads}) {
    const auto r = differential_check(builder, 4, kind);
    EXPECT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.serial_iterations, r.parallel_iterations);
    EXPECT_GT(r.makespan, 0);
  }
}

TEST(Verify, DetectsDivergingPrograms) {
  // A deliberately broken builder: the "parallel" build gets one more
  // iteration than the serial one.  The check must fail and name the
  // extra iteration.
  int call = 0;
  auto builder = [&call](const program::BodyFactory& bodies) {
    const i64 n = (call++ == 0) ? 4 : 5;  // serial first, then parallel
    program::NodeSeq top;
    top.push_back(program::doall("x", n, bodies("x")));
    return program::NestedLoopProgram(std::move(top));
  };
  const auto r = differential_check(builder, 2, EngineKind::kVtime);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("extra in parallel"), std::string::npos);
  EXPECT_NE(r.detail.find("j=5"), std::string::npos);
}

TEST(Verify, RandomProgramSweep) {
  for (u64 seed = 700; seed < 712; ++seed) {
    auto builder = [seed](const program::BodyFactory& bodies) {
      return workloads::random_program(seed, {}, bodies);
    };
    SchedOptions opts;
    opts.central_queue = seed % 2 == 1;
    const auto r = differential_check(builder, 5, EngineKind::kVtime, opts);
    EXPECT_TRUE(r.ok) << "seed=" << seed << "\n" << r.detail;
  }
}

}  // namespace
}  // namespace selfsched::runtime
