#include "analysis/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace selfsched::analysis {

double utilization(const UtilizationParams& p) {
  SS_CHECK(p.tau >= 0 && p.n >= 1 && p.big_n >= 1);
  const double denom = p.tau + p.o1 + p.o2 / p.n + p.o3 / p.big_n;
  return denom > 0 ? p.tau / denom : 0.0;
}

double utilization_chunked(const UtilizationParams& p, i64 k,
                           const std::function<double(i64)>& o2_of_k) {
  SS_CHECK(k >= 1);
  // n chunks between searches becomes n/k, so the per-iteration search
  // share is O2(k)/(n/k)/k = O2(k)/n; O1 amortizes across the chunk.
  const double denom = p.tau + p.o1 / static_cast<double>(k) +
                       o2_of_k(k) / p.n + p.o3 / p.big_n;
  return denom > 0 ? p.tau / denom : 0.0;
}

double utilization_chunked(const UtilizationParams& p, i64 k,
                           double contention_slope) {
  return utilization_chunked(p, k, [&](i64 kk) {
    return p.o2 * (1.0 + contention_slope * static_cast<double>(kk - 1));
  });
}

i64 optimal_chunk(const UtilizationParams& p, i64 k_max,
                  double contention_slope) {
  SS_CHECK(k_max >= 1);
  i64 best_k = 1;
  double best = utilization_chunked(p, 1, contention_slope);
  for (i64 k = 2; k <= k_max; ++k) {
    const double eta = utilization_chunked(p, k, contention_slope);
    if (eta > best) {
      best = eta;
      best_k = k;
    }
  }
  return best_k;
}

double doacross_time(i64 b, double tau, double f, i64 k, u32 procs) {
  SS_CHECK(b >= 1 && k >= 1 && procs >= 1 && f >= 0.0 && f <= 1.0);
  const i64 chunks = (b + k - 1) / k;
  // Per-chunk pipeline advance: the dependence chain allows a new chunk
  // every ((k-1) + f)*tau; processor availability allows P chunks in
  // flight, i.e. one chunk completion every k*tau/P.
  const double dep_rate = (static_cast<double>(k - 1) + f) * tau;
  const double proc_rate =
      static_cast<double>(k) * tau / static_cast<double>(procs);
  const double rate = std::max(dep_rate, proc_rate);
  const i64 last_size = b - (chunks - 1) * k;
  return static_cast<double>(chunks - 1) * rate +
         static_cast<double>(last_size) * tau;
}

double doacross_speedup(i64 b, double tau, double f, i64 k, u32 procs) {
  const double serial = static_cast<double>(b) * tau;
  return serial / doacross_time(b, tau, f, k, procs);
}

double doall_speedup(const UtilizationParams& p, u32 procs,
                     i64 iterations) {
  const double s = static_cast<double>(procs) * utilization(p);
  return std::min(s, static_cast<double>(iterations));
}

}  // namespace selfsched::analysis
