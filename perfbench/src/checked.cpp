#include "checked.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace selfsched;

namespace {

/// Leaves without a COST spin for SchedOptions' default body cost.
constexpr Cycles kDefaultCost = 100;

u64 iteration_hash(u32 leaf, const IndexVec& iv, std::size_t depth, i64 j) {
  u64 h = mix64(0x9e3779b97f4a7c15ULL ^ leaf);
  for (std::size_t k = 0; k < depth; ++k) {
    h = mix64(h ^ static_cast<u64>(iv[k]));
  }
  return mix64(h ^ static_cast<u64>(j));
}

}  // namespace

struct CheckedProgram::Env {
  struct Leaf {
    std::string name;
    std::size_t depth = 0;
    program::CostFn cost;
  };
  struct alignas(64) Slot {
    u64 sum = 0;
    u64 count = 0;
    u64 sink = 0;  // keeps the spin live
  };

  std::vector<Leaf> leaves;
  std::vector<Slot> slots;
  bool skip_one = false;
  u64 skipped_hash = 0;

  void body(u32 leaf, ProcId p, const IndexVec& iv, i64 j) {
    const Leaf& l = leaves[leaf];
    Slot& s = slots[p];
    const Cycles c = l.cost ? l.cost(iv, j) : kDefaultCost;
    u64 x = s.sink + 0x9e3779b97f4a7c15ULL;
    for (Cycles i = 0; i < c; ++i) x = x * 0xd1342543de82ef95ULL + 1;
    s.sink = x;
    const u64 h =
        iteration_hash(leaf, iv, std::min<std::size_t>(l.depth, iv.size()), j);
    if (skip_one && h == skipped_hash) return;
    s.sum += h;
    s.count++;
  }
};

CheckedProgram::CheckedProgram(const Build& build, u32 procs, bool skip_one)
    : env_(std::make_shared<Env>()) {
  env_->slots.resize(procs);
  env_->skip_one = skip_one;
  std::unordered_map<std::string, u32> ids;
  const program::BodyFactory factory =
      [env = env_, &ids](const std::string& name) -> program::BodyFn {
    const auto id = static_cast<u32>(env->leaves.size());
    ids.emplace(name, id);
    env->leaves.push_back({name, 0, nullptr});
    return [env, id](ProcId p, const IndexVec& iv, i64 j) {
      env->body(id, p, iv, j);
    };
  };
  prog_ = std::make_shared<const program::NestedLoopProgram>(build(factory));
  // Bodies exist before the tables do; bind each leaf's depth and cost now.
  for (const program::InnermostDesc& d : prog_->tables().loops) {
    const auto it = ids.find(d.name);
    if (it == ids.end()) {
      throw std::logic_error("leaf " + d.name + " has no benchmark body");
    }
    env_->leaves[it->second].depth = d.depth;
    env_->leaves[it->second].cost = d.cost;
  }
  if (skip_one && !prog_->tables().loops.empty()) {
    const u32 leaf = ids.at(prog_->loop(0).name);
    const std::size_t depth = env_->leaves[leaf].depth;
    IndexVec ones;
    for (std::size_t k = 0; k < depth; ++k) ones.push_back(1);
    env_->skipped_hash = iteration_hash(leaf, ones, depth, 1);
  }
}

void CheckedProgram::reset() {
  for (Env::Slot& s : env_->slots) s.sum = s.count = 0;
}

Tally CheckedProgram::tally() const {
  Tally t;
  for (const Env::Slot& s : env_->slots) {
    t.sum += s.sum;
    t.count += s.count;
  }
  return t;
}

void time_serial(CheckedProgram& cp, Reference& ref, int reps) {
  for (int k = 0; k < reps; ++k) {
    cp.reset();
    const auto t0 = std::chrono::steady_clock::now();
    const baselines::SerialStats stats =
        baselines::run_sequential(*cp.program(), kDefaultCost, true);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const Tally t = cp.tally();
    if (t.count != stats.iterations) {
      throw std::logic_error("serial reference skipped bodies");
    }
    if (ref.samples_ms.empty()) {
      ref.expected = t;
      ref.stats = stats;
    } else if (!(t == ref.expected)) {
      throw std::logic_error("serial reference is not deterministic");
    }
    ref.samples_ms.push_back(ms);
  }
  ref.serial_ms = median(ref.samples_ms);
}

Reference serial_reference(CheckedProgram& cp, int reps) {
  Reference ref;
  time_serial(cp, ref, reps);
  return ref;
}

bool verified(const CheckedProgram& cp, const Reference& ref,
              const runtime::RunResult& r) {
  return !r.failure.has_value() && r.total.iterations == ref.expected.count &&
         cp.tally() == ref.expected;
}

}  // namespace perfbench
