// Shared test utilities: iteration recording and multiset comparison
// against the sequential oracle.
#pragma once

#include <algorithm>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/sequential.hpp"
#include "program/fig1.hpp"
#include "program/tables.hpp"

namespace selfsched::testing {

/// One executed iteration: (leaf name, enclosing indices, iteration index).
/// Only the meaningful prefix of the index vector is kept, so vectors of
/// different capacities compare equal when they denote the same instance.
using IterationKey = std::tuple<std::string, std::vector<i64>, i64>;

/// Thread-safe iteration recorder, pluggable as a program::BodyFactory.
class Recorder {
 public:
  program::BodyFactory factory() {
    return [this](const std::string& name) -> program::BodyFn {
      return [this, name](ProcId, const IndexVec& ivec, i64 j) {
        record(name, ivec, j);
      };
    };
  }

  void record(const std::string& name, const IndexVec& ivec, i64 j) {
    std::vector<i64> iv(ivec.begin(), ivec.end());
    std::lock_guard lk(mu_);
    seen_.emplace_back(name, std::move(iv), j);
  }

  /// Sorted copy of everything recorded (a canonical multiset).
  std::vector<IterationKey> sorted() const {
    std::lock_guard lk(mu_);
    std::vector<IterationKey> out = seen_;
    std::sort(out.begin(), out.end());
    return out;
  }

  std::size_t size() const {
    std::lock_guard lk(mu_);
    return seen_.size();
  }

  void clear() {
    std::lock_guard lk(mu_);
    seen_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<IterationKey> seen_;
};

/// Normalize recorded keys: trim index vectors to the loop's depth so runs
/// with different IndexVec sizing compare equal.
inline std::vector<IterationKey> normalized(
    const std::vector<IterationKey>& keys,
    const program::NestedLoopProgram& prog) {
  std::vector<IterationKey> out;
  out.reserve(keys.size());
  for (const auto& [name, iv, j] : keys) {
    Level depth = 0;
    for (u32 i = 0; i < prog.num_loops(); ++i) {
      if (prog.loop(i).name == name) {
        depth = prog.loop(i).depth;
        break;
      }
    }
    std::vector<i64> trimmed(iv.begin(),
                             iv.begin() + std::min<std::size_t>(iv.size(),
                                                                depth));
    out.emplace_back(name, std::move(trimmed), j);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The Fig. 1 shape of examples/programs/fig1.loop (COST 300 per
/// iteration) at the given NI and NJ.
inline program::Fig1Params fig1_loop_params(i64 ni, i64 nj) {
  program::Fig1Params p;
  p.ni = ni;
  p.nj = nj;
  p.nk = 3;
  p.na = 16;
  p.nb = 24;
  p.nc = 16;
  p.nd = 16;
  p.ne = 24;
  p.nf = 16;
  p.ng = 16;
  p.nh = 32;
  p.body_cost = 300;
  return p;
}

}  // namespace selfsched::testing
