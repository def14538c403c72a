// Summary statistics the benchmark reports: medians, quartiles, the tail
// percentile with enough samples behind it, and the phase split of a run's
// processor time.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "exec/context.hpp"

namespace perfbench {

/// Median; the mean of the middle pair for an even count.  0 when empty.
double median(std::vector<double> v);

/// Quartiles by the same rule as Python's statistics.quantiles(v, n=4)
/// (method "exclusive"), so spreads computed here and by a Python script
/// agree.  Needs at least two samples; a single sample is returned thrice.
struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};
Quartiles quartiles(std::vector<double> v);

/// The highest of p50, p90, p99, p99.9, p99.99 and p99.999 (nearest rank)
/// that still has at least `beyond` samples above it.  A fixed ladder keeps
/// one percentile across runs of similar length, and usually leaves 10 to
/// 100 samples beyond, so the value is not one outlier's.  With too few
/// samples even for p50, the median.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v, std::size_t beyond = 10);

/// Nearest-rank value at `percentile` (0..100]; 0 when empty.
double nearest_rank(std::vector<double> v, double percentile);

/// Samples grouped by time slice: sample i, taken at at[i] in [0, span],
/// goes to the one of `parts` equal slices of [0, span] that holds it.
std::vector<std::vector<double>> by_slice(const std::vector<double>& v,
                                          const std::vector<double>& at,
                                          double span, std::size_t parts);

/// num / den, or 0 when den is 0 (a ratio over an empty base).
double ratio(double num, double den);

/// Each phase's share of the processor time P x makespan summed over runs,
/// and the sum of all shares (1 = every nanosecond attributed to a phase).
struct PhaseSplit {
  std::array<double, selfsched::exec::kNumPhases> share{};
  double sum_ratio = 0;

  double operator[](selfsched::exec::Phase p) const {
    return share[static_cast<std::size_t>(p)];
  }
};
PhaseSplit phase_split(const selfsched::exec::WorkerStats& total,
                       double processor_ns);

}  // namespace perfbench
