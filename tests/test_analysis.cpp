// Unit tests of the §IV analytical model implementation.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/model.hpp"

namespace selfsched::analysis {
namespace {

TEST(Model, UtilizationEquationOne) {
  // η = τ / (τ + O1 + O2/n + O3/N)
  UtilizationParams p;
  p.tau = 100;
  p.o1 = 10;
  p.o2 = 50;
  p.n = 10;
  p.o3 = 200;
  p.big_n = 40;
  EXPECT_DOUBLE_EQ(utilization(p), 100.0 / (100 + 10 + 5 + 5));
}

TEST(Model, UtilizationApproachesOneForFatBodies) {
  UtilizationParams p;
  p.o1 = 10;
  p.o2 = 100;
  p.n = 5;
  p.o3 = 100;
  p.big_n = 10;
  p.tau = 10;
  const double small_tau = utilization(p);
  p.tau = 1e7;
  const double big_tau = utilization(p);
  EXPECT_LT(small_tau, 0.5);
  EXPECT_GT(big_tau, 0.999);
}

TEST(Model, ChunkingAmortizesO1) {
  UtilizationParams p;
  p.tau = 20;
  p.o1 = 40;  // sync-dominated: chunking should help a lot
  p.o2 = 60;
  p.n = 50;
  p.o3 = 100;
  p.big_n = 1000;
  const double k1 = utilization_chunked(p, 1, 0.0);
  const double k8 = utilization_chunked(p, 8, 0.0);
  EXPECT_GT(k8, k1);
  EXPECT_NEAR(k1, utilization(p), 1e-12) << "k=1 must reduce to Eq. (1)";
}

TEST(Model, InteriorOptimumExistsWithContention) {
  UtilizationParams p;
  p.tau = 20;
  p.o1 = 40;
  p.o2 = 30;
  p.n = 4;
  p.o3 = 50;
  p.big_n = 500;
  const double slope = 0.8;  // O2 grows with k: busy-waiting gets worse
  const i64 best = optimal_chunk(p, 256, slope);
  EXPECT_GT(best, 1);
  EXPECT_LT(best, 256);
  const double at_best = utilization_chunked(p, best, slope);
  EXPECT_GE(at_best, utilization_chunked(p, 1, slope));
  EXPECT_GE(at_best, utilization_chunked(p, 256, slope));
  EXPECT_GE(at_best, utilization_chunked(p, best + 1, slope));
  EXPECT_GE(at_best, utilization_chunked(p, best - 1, slope));
}

TEST(Model, OptimalChunkIsMachineDependent) {
  // Higher per-access sync cost pushes the optimum up; that is the paper's
  // "that value of k is usually machine-dependent".
  UtilizationParams cheap;
  cheap.tau = 50;
  cheap.o1 = 4;  // hardware fetch&add
  cheap.o2 = 10;
  cheap.n = 8;
  cheap.o3 = 30;
  cheap.big_n = 400;
  UtilizationParams pricey = cheap;
  pricey.o1 = 400;  // software-emulated sync: per-iteration cost explodes
  // The interior optimum sits near sqrt(o1 * n / (o2 * slope)): raising o1
  // two orders of magnitude must push the optimal chunk up decisively.
  const i64 cheap_k = optimal_chunk(cheap, 128, 0.5);
  const i64 pricey_k = optimal_chunk(pricey, 128, 0.5);
  EXPECT_LT(cheap_k, pricey_k);
  EXPECT_GE(pricey_k, 2 * cheap_k);
}

TEST(Model, DoacrossClosedFormAtKOne) {
  // T(1) = (b-1)*f*tau + tau with plenty of processors.
  EXPECT_DOUBLE_EQ(doacross_time(100, 10.0, 0.5, 1, 1000),
                   99 * 5.0 + 10.0);
}

TEST(Model, DoacrossChunkingIncreasesTime) {
  const double t1 = doacross_time(500, 10.0, 0.2, 1, 64);
  const double t5 = doacross_time(500, 10.0, 0.2, 5, 64);
  EXPECT_GT(t5, 2.5 * t1) << "chunk(5) must lose most of the overlap";
}

TEST(Model, DoacrossProcessorLimited) {
  // With one processor the pipeline degenerates to serial time regardless
  // of f (rate = k*tau/P dominates).
  const double t = doacross_time(100, 10.0, 0.1, 1, 1);
  EXPECT_GE(t, 100 * 10.0 * 0.99);
}

TEST(Model, DoacrossSpeedupBoundedByInverseF) {
  // Dependence-bound speedup tends to 1/f for many processors.
  const double s = doacross_speedup(100000, 10.0, 0.25, 1, 1 << 20);
  EXPECT_NEAR(s, 4.0, 0.05);
}

TEST(Model, DoallSpeedupCappedByIterations) {
  UtilizationParams p;
  p.tau = 1000;
  EXPECT_DOUBLE_EQ(doall_speedup(p, 64, 16), 16.0);
  EXPECT_NEAR(doall_speedup(p, 8, 1 << 20), 8.0, 1e-9);
}

TEST(Model, CustomO2Function) {
  UtilizationParams p;
  p.tau = 10;
  p.o1 = 10;
  p.o2 = 0;
  p.n = 1;
  p.o3 = 0;
  p.big_n = 1;
  const double eta = utilization_chunked(
      p, 4, [](i64 k) { return static_cast<double>(k * k); });
  EXPECT_DOUBLE_EQ(eta, 10.0 / (10 + 10.0 / 4 + 16.0));
}

}  // namespace
}  // namespace selfsched::analysis
