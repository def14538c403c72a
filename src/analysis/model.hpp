// The paper's §IV performance model.
//
// Eq. (1): with τ the average iteration body time, O1 the per-iteration
// index/icount synchronization cost, O2 the cost of one SEARCH amortized
// over the n iterations executed between two SEARCHes, and O3 the cost of
// one EXIT+ENTER amortized over the N iterations of an average instance,
//
//     η = τ / (τ + O1 + O2/n + O3/N).
//
// Eq. (7): scheduling chunks of k iterations amortizes O1 across the chunk
// but inflates search/contention cost O2(k) (a nondecreasing function of k)
// and divides the iterations-between-searches by k:
//
//     η'(k) = τ / (τ + O1/k + O2(k)/n + O3/N)
//
// (Eq. 7 is the per-iteration normalization of the paper's Eq. 2.)  With an
// increasing O2(k) there is an interior optimal k, and that optimum is
// machine-dependent — it moves with the cost ratios.  The doacross model
// formalizes the §I argument that chunking destroys cross-iteration
// overlap.
#pragma once

#include <functional>

#include "common/types.hpp"

namespace selfsched::analysis {

/// Parameters of Eq. (1)/(7), in arbitrary-but-consistent time units.
struct UtilizationParams {
  double tau = 0;  // average body time per iteration
  double o1 = 0;   // per-iteration low-level sync cost
  double o2 = 0;   // cost of one SEARCH (at k = 1)
  double n = 1;    // iterations a processor runs between two SEARCHes
  double o3 = 0;   // cost of one EXIT+ENTER
  double big_n = 1;  // average iterations per instance (paper's N)
};

/// Eq. (1).
double utilization(const UtilizationParams& p);

/// Eq. (7) with an arbitrary O2(k).
double utilization_chunked(const UtilizationParams& p, i64 k,
                           const std::function<double(i64)>& o2_of_k);

/// Eq. (7) with the default linear contention model
/// O2(k) = o2 * (1 + contention_slope * (k - 1)).
double utilization_chunked(const UtilizationParams& p, i64 k,
                           double contention_slope);

/// argmax over k in [1, k_max] of Eq. (7) (exhaustive: the curve is cheap
/// and not guaranteed unimodal for arbitrary O2(k)).
i64 optimal_chunk(const UtilizationParams& p, i64 k_max,
                  double contention_slope);

/// Doacross completion-time model (§I): a loop of b iterations with
/// dependence distance 1, body time tau, and the dependence source at
/// fraction f of the body.  Scheduling chunks of k serializes the chunk:
/// the next processor waits for the *last* iteration of the previous chunk
/// to reach its source statement.
///
///   T(k) = (ceil(b/k) - 1) * ((k-1)*tau + f*tau) + k*tau   for plenty of
/// processors; with P processors the pipeline depth is additionally capped.
/// k = 1 recovers the SDSS pipeline T = (b-1)*f*tau + tau.
double doacross_time(i64 b, double tau, double f, i64 k, u32 procs);

/// Overlap factor: serial time / doacross completion time.
double doacross_speedup(i64 b, double tau, double f, i64 k, u32 procs);

/// Ideal bounded speedup of a Doall loop under the utilization model:
/// S(P) = P * eta, capped by the iteration count.
double doall_speedup(const UtilizationParams& p, u32 procs, i64 iterations);

}  // namespace selfsched::analysis
