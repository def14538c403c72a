// Property tests over randomly generated general parallel nested loops:
// for any seed, the scheduler on either engine must execute exactly the
// serial iteration multiset, drain the task pool, release every ICB, and
// (vtime) be deterministic.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using selfsched::testing::Recorder;
using selfsched::testing::normalized;

runtime::Strategy strategy_for_seed(u64 seed) {
  switch (seed % 6) {
    case 0: return runtime::Strategy::self();
    case 1: return runtime::Strategy::chunked(static_cast<i64>(seed % 7) + 2);
    case 2: return runtime::Strategy::gss();
    case 3: return runtime::Strategy::factoring();
    case 4: return runtime::Strategy::trapezoid();
    default: return runtime::Strategy::adaptive();
  }
}

class RandomProgramVtime : public ::testing::TestWithParam<u64> {};

TEST_P(RandomProgramVtime, MatchesSerialOracle) {
  const u64 seed = GetParam();
  workloads::RandomProgramConfig cfg;

  Recorder serial_rec, par_rec;
  auto serial_prog = workloads::random_program(seed, cfg,
                                               serial_rec.factory());
  auto par_prog = workloads::random_program(seed, cfg, par_rec.factory());
  const auto serial = baselines::run_sequential(serial_prog);

  runtime::SchedOptions opts;
  opts.strategy = strategy_for_seed(seed);
  const u32 procs = 1 + static_cast<u32>(seed % 9);
  const auto r = runtime::run_vtime(par_prog, procs, opts);

  EXPECT_EQ(r.total.iterations, serial.iterations)
      << "seed=" << seed << " procs=" << procs << "\n"
      << par_prog.describe();
  EXPECT_EQ(normalized(par_rec.sorted(), par_prog),
            normalized(serial_rec.sorted(), serial_prog))
      << "seed=" << seed << " procs=" << procs;
  EXPECT_EQ(r.total.enters, r.total.icbs_released)
      << "every activated ICB must be released exactly once";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramVtime,
                         ::testing::Range<u64>(1, 61));

class RandomProgramThreads : public ::testing::TestWithParam<u64> {};

TEST_P(RandomProgramThreads, MatchesSerialOracle) {
  const u64 seed = GetParam();
  workloads::RandomProgramConfig cfg;

  Recorder serial_rec, par_rec;
  auto serial_prog = workloads::random_program(seed, cfg,
                                               serial_rec.factory());
  auto par_prog = workloads::random_program(seed, cfg, par_rec.factory());
  baselines::run_sequential(serial_prog);

  runtime::SchedOptions opts;
  opts.strategy = strategy_for_seed(seed + 1);
  const u32 procs = 1 + static_cast<u32>(seed % 4);
  runtime::run_threads(par_prog, procs, opts);

  EXPECT_EQ(normalized(par_rec.sorted(), par_prog),
            normalized(serial_rec.sorted(), serial_prog))
      << "seed=" << seed << " procs=" << procs;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramThreads,
                         ::testing::Range<u64>(100, 125));

class RandomProgramDeterminism : public ::testing::TestWithParam<u64> {};

TEST_P(RandomProgramDeterminism, VtimeRunsAreBitIdentical) {
  const u64 seed = GetParam();
  workloads::RandomProgramConfig cfg;
  auto run_once = [&] {
    auto prog = workloads::random_program(seed, cfg);
    runtime::SchedOptions opts;
    opts.strategy = strategy_for_seed(seed);
    return runtime::run_vtime(prog, 5, opts);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.makespan, b.makespan) << "seed=" << seed;
  EXPECT_EQ(a.engine_ops, b.engine_ops) << "seed=" << seed;
  EXPECT_EQ(a.total.sync_ops, b.total.sync_ops) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramDeterminism,
                         ::testing::Range<u64>(200, 215));

TEST(RandomProgramShape, BigSeedSweepValidates) {
  // The generator must always produce a valid program and the serial
  // interpreter must handle it.  (Deeper configs than the default are
  // covered by DeeperSeedsValidate below; depth x constructs is kept
  // modest because the iteration space multiplies along both axes.)
  workloads::RandomProgramConfig cfg;
  for (u64 seed = 1000; seed < 1200; ++seed) {
    auto prog = workloads::random_program(seed, cfg);
    const auto s = baselines::run_sequential(prog);
    EXPECT_GE(prog.num_loops(), 1u) << "seed=" << seed;
    (void)s;
  }
}

TEST(RandomProgramShape, DeeperSeedsValidate) {
  workloads::RandomProgramConfig cfg;
  cfg.max_depth = 6;
  cfg.max_constructs = 2;  // keep the instance fan-out bounded
  cfg.max_bound = 3;
  for (u64 seed = 2000; seed < 2050; ++seed) {
    auto prog = workloads::random_program(seed, cfg);
    const auto s = baselines::run_sequential(prog);
    EXPECT_GE(prog.num_loops(), 1u) << "seed=" << seed;
    (void)s;
  }
}

}  // namespace
}  // namespace selfsched
