#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles, method="exclusive": m = n + 1, cut point i sits
  // at i*m/4 (1-based), clamped to [1, n-1] and then interpolated — for
  // tiny n the clamp makes delta leave [0, 4], which extrapolates exactly
  // as Python does.
  const auto ln = static_cast<long long>(n);
  std::array<double, 3> q{};
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * (ln + 1) / 4, 1LL, ln - 1);
    const long long delta = i * (ln + 1) - j * 4;
    const auto ju = static_cast<std::size_t>(j);
    q[static_cast<std::size_t>(i - 1)] =
        (v[ju - 1] * static_cast<double>(4 - delta) +
         v[ju] * static_cast<double>(delta)) /
        4;
  }
  return {q[0], q[1], q[2]};
}

namespace {

/// Nearest-rank rank of percentile q (in units of 0.001%) among n samples.
std::size_t rank_of(std::size_t q, std::size_t n) {
  return (q * n + 99999) / 100000;  // ceil(q% of n)
}

}  // namespace

Tail tail(std::vector<double> v, std::size_t beyond) {
  const std::size_t n = v.size();
  std::sort(v.begin(), v.end());
  for (const std::size_t q : {99999, 99990, 99900, 99000, 90000, 50000}) {
    const std::size_t rank = rank_of(q, n);
    if (rank >= 1 && n - rank >= beyond) {
      return {v[rank - 1], static_cast<double>(q) / 1000, n};
    }
  }
  return {median(std::move(v)), 50, n};
}

double nearest_rank(std::vector<double> v, double percentile) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto q = static_cast<std::size_t>(std::lround(percentile * 1000));
  return v[std::clamp<std::size_t>(rank_of(q, v.size()), 1, v.size()) - 1];
}

std::vector<std::vector<double>> by_slice(const std::vector<double>& v,
                                          const std::vector<double>& at,
                                          double span, std::size_t parts) {
  std::vector<std::vector<double>> out(parts);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double k = span > 0 ? at[i] / span * static_cast<double>(parts) : 0;
    out[std::min(static_cast<std::size_t>(std::max(k, 0.0)), parts - 1)]
        .push_back(v[i]);
  }
  return out;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

PhaseSplit phase_split(const selfsched::exec::WorkerStats& total,
                       double processor_ns) {
  PhaseSplit s;
  for (std::size_t i = 0; i < s.share.size(); ++i) {
    s.share[i] = ratio(static_cast<double>(total.phase_cycles[i]),
                       processor_ns);
    s.sum_ratio += s.share[i];
  }
  return s;
}

}  // namespace perfbench
