// Unit tests of the benchmark's own code: the stats helpers and the
// exactly-once check.  Build and run: python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checked.hpp"
#include "lang/parser.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using selfsched::exec::Phase;

TEST(Stats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

// Expected values are Python's statistics.quantiles(v, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const Quartiles b = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(b.q1, 1.5);
  EXPECT_DOUBLE_EQ(b.q2, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.5);
  const Quartiles c = quartiles({3.5, 1.0});  // clamped: extrapolates
  EXPECT_DOUBLE_EQ(c.q1, 0.375);
  EXPECT_DOUBLE_EQ(c.q2, 2.25);
  EXPECT_DOUBLE_EQ(c.q3, 4.125);
}

TEST(Stats, TailKeepsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Tail t = tail(v);
  EXPECT_DOUBLE_EQ(t.value, 90);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 90);
  EXPECT_EQ(t.samples, 100u);

  v.push_back(1000);  // n = 101: p90 is rank ceil(90.9) = 91
  const Tail u = tail(v);
  EXPECT_DOUBLE_EQ(u.value, 91);
  EXPECT_DOUBLE_EQ(u.percentile, 90);

  std::vector<double> w(2000);  // p99.9 would leave 2 beyond; p99 leaves 20
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<double>(i + 1);
  const Tail x = tail(w);
  EXPECT_DOUBLE_EQ(x.value, 1980);
  EXPECT_DOUBLE_EQ(x.percentile, 99);
}

TEST(Stats, TailFallsBackToMedianWhenTooFewSamples) {
  const Tail t = tail({5, 1, 3, 2, 4, 6, 7, 8, 9, 10});  // p50 leaves 5
  EXPECT_DOUBLE_EQ(t.value, 5.5);
  EXPECT_DOUBLE_EQ(t.percentile, 50);
  EXPECT_EQ(t.samples, 10u);
}

TEST(Stats, NearestRank) {
  EXPECT_DOUBLE_EQ(nearest_rank({5, 1, 4, 2, 3}, 50), 3);
  EXPECT_DOUBLE_EQ(nearest_rank({5, 1, 4, 2, 3}, 90), 5);
  EXPECT_DOUBLE_EQ(nearest_rank({}, 90), 0);
}

TEST(Stats, BySliceGroupsByTime) {
  const auto s = by_slice({1, 2, 3, 4}, {0, 4.9, 5, 10}, 10, 2);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], (std::vector<double>{1, 2}));
  EXPECT_EQ(s[1], (std::vector<double>{3, 4}));  // the end joins the last
}

// The benchmark's tail: tail()'s percentile over the run, its value the
// median over time slices — a stall in one slice does not set it.
TEST(Stats, SlicedTailIgnoresAStallInOneSlice) {
  std::vector<double> v;
  std::vector<double> at;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(1 + (i % 100) / 100.0);  // 1.00 .. 1.99 in every slice
    at.push_back(i / 100.0);             // ten slices over span 10
  }
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = 100;
  const Tail whole = tail(v);
  EXPECT_DOUBLE_EQ(whole.percentile, 99);
  EXPECT_DOUBLE_EQ(whole.value, 100);  // the stall sets the run-wide tail
  std::vector<double> per_slice;
  for (const auto& s : by_slice(v, at, 10, 10)) {
    per_slice.push_back(nearest_rank(s, whole.percentile));
  }
  EXPECT_DOUBLE_EQ(median(per_slice), 1.98);  // p99 of each healthy slice
}

TEST(Stats, RatioOfEmptyBaseIsZero) {
  EXPECT_DOUBLE_EQ(ratio(3, 0), 0);
  EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
}

TEST(Stats, PhaseSharesAndSumRatio) {
  selfsched::exec::WorkerStats w;
  w[Phase::kBody] = 600;
  w[Phase::kIterSync] = 200;
  w[Phase::kOther] = 100;
  const PhaseSplit s = phase_split(w, 1000);  // e.g. P=2, makespan 500
  EXPECT_DOUBLE_EQ(s[Phase::kBody], 0.6);
  EXPECT_DOUBLE_EQ(s[Phase::kIterSync], 0.2);
  EXPECT_DOUBLE_EQ(s[Phase::kOther], 0.1);
  EXPECT_DOUBLE_EQ(s[Phase::kSearch], 0);
  EXPECT_DOUBLE_EQ(s.sum_ratio, 0.9);  // 10% unattributed
  EXPECT_DOUBLE_EQ(phase_split(w, 0).sum_ratio, 0);
}

TEST(Spans, SelfTimeExcludesChildren) {
  SpanLog log(true);
  const int root = log.begin("root", 1);
  const int child = log.begin("child", 1, root);
  log.end(child);
  log.end(root);
  double root_total = 0;
  double root_self = 0;
  double child_total = 0;
  for (const SpanLog::SelfTime& t : log.self_times()) {
    if (t.name == "root") {
      root_total = t.total_ms;
      root_self = t.self_ms;
    }
    if (t.name == "child") child_total = t.total_ms;
  }
  EXPECT_NEAR(root_self, root_total - child_total, 1e-9);
  EXPECT_EQ(SpanLog(false).begin("x", 1), -1);
}

CheckedProgram fig1(bool skip_one) {
  static const char* kSource =
      "DOALL I = 1, 4\n"
      "  LOOP A t = 1, 16 COST 50\n"
      "  DOALL J = 1, 3\n"
      "    LOOP B t = 1, 8 COST 50\n"
      "  END\n"
      "END\n";
  return CheckedProgram(
      [](const selfsched::program::BodyFactory& bodies) {
        selfsched::lang::ParseOptions po;
        po.bodies = bodies;
        return selfsched::lang::parse_program(kSource, po);
      },
      2, skip_one);
}

TEST(ExactlyOnce, CorrectRunVerifies) {
  CheckedProgram cp = fig1(false);
  const Reference ref = serial_reference(cp, 1);
  EXPECT_EQ(ref.expected.count, 4u * (16 + 3 * 8));
  selfsched::exec::ThreadTeam team(2);
  selfsched::runtime::SchedOptions opts;
  opts.on_body_error = selfsched::runtime::OnBodyError::kReturn;
  SpanLog off(false);
  const OpOutcome o = run_batch_op(team, cp, ref, opts, off, 1);
  EXPECT_TRUE(o.ok);
  EXPECT_FALSE(o.wrong_answer);
}

TEST(ExactlyOnce, SkippedIterationIsReportedAsFailed) {
  CheckedProgram good = fig1(false);
  const Reference ref = serial_reference(good, 1);
  CheckedProgram lossy = fig1(true);
  selfsched::exec::ThreadTeam team(2);
  selfsched::runtime::SchedOptions opts;
  opts.on_body_error = selfsched::runtime::OnBodyError::kReturn;
  SpanLog off(false);
  const OpOutcome o = run_batch_op(team, lossy, ref, opts, off, 1);
  EXPECT_FALSE(o.ok);
  EXPECT_TRUE(o.wrong_answer);  // the runtime saw no failure; the tally did
  EXPECT_EQ(lossy.tally().count, ref.expected.count - 1);
  // The runtime still executed every iteration: only the body's proof of
  // it is missing, which is exactly what the check must not trust.
  EXPECT_EQ(o.result.total.iterations, ref.expected.count);
}

}  // namespace
}  // namespace perfbench
