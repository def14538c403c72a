#include "workloads/programs.hpp"

#include <string>

#include "common/check.hpp"
#include "workloads/iteration_cost.hpp"

namespace selfsched::workloads {

using namespace program;  // NOLINT: factory module builds on the whole DSL

NestedLoopProgram flat_doall(i64 n, CostFn cost, BodyFn body) {
  NodeSeq top;
  top.push_back(doall("flat", n, std::move(body), std::move(cost)));
  return NestedLoopProgram(std::move(top));
}

NestedLoopProgram triangular(i64 n, Cycles body_cost) {
  NodeSeq top;
  Bound inner_bound{[](const IndexVec& ivec) { return ivec[1]; }};
  top.push_back(par(
      n, seq(doall("tri", inner_bound, nullptr, constant_cost(body_cost)))));
  return NestedLoopProgram(std::move(top));
}

NestedLoopProgram doacross_chain(i64 n, i64 distance, double f,
                                 Cycles body_cost) {
  NodeSeq top;
  top.push_back(doacross("chain", n, DoacrossSpec{distance, f}, nullptr,
                         constant_cost(body_cost)));
  return NestedLoopProgram(std::move(top));
}

NestedLoopProgram nested_pair(i64 n1, i64 n2, Cycles body_cost) {
  NodeSeq top;
  top.push_back(
      par(n1, seq(doall("inner", n2, nullptr, constant_cost(body_cost)))));
  return NestedLoopProgram(std::move(top));
}

NestedLoopProgram coalesced_pair(i64 n1, i64 n2, Cycles body_cost) {
  NodeSeq top;
  top.push_back(
      doall("coalesced", n1 * n2, nullptr, constant_cost(body_cost)));
  return NestedLoopProgram(std::move(top));
}

NestedLoopProgram branchy(i64 n, Cycles light, Cycles heavy) {
  NodeSeq top;
  auto odd = [](const IndexVec& ivec) { return ivec[1] % 2 == 1; };
  top.push_back(
      par(n, seq(if_then_else(
                 odd, seq(doall("heavy", 8, nullptr, constant_cost(heavy))),
                 seq(doall("light", 8, nullptr, constant_cost(light)))))));
  return NestedLoopProgram(std::move(top));
}

NestedLoopProgram deep_alternating(Level depth, i64 width,
                                   Cycles body_cost) {
  SS_CHECK(depth >= 1);
  NodePtr node = doall("leaf", width, nullptr, constant_cost(body_cost));
  for (Level d = 0; d < depth; ++d) {
    NodeSeq body;
    body.push_back(std::move(node));
    node = (d % 2 == 0) ? par(width, std::move(body))
                        : ser(width, std::move(body));
  }
  NodeSeq top;
  top.push_back(std::move(node));
  return NestedLoopProgram(std::move(top));
}

// --------------------------------------------------------------------------
// Random-program generator
// --------------------------------------------------------------------------

namespace {

class RandomBuilder {
 public:
  RandomBuilder(u64 seed, const RandomProgramConfig& cfg,
                const BodyFactory& bodies)
      : rng_(seed), cfg_(cfg), bodies_(bodies) {}

  NodeSeq build() {
    NodeSeq top = gen_seq(/*level=*/1, /*allow_empty=*/false);
    return top;
  }

 private:
  bool chance(u32 permille) { return rng_.below(1000) < permille; }

  /// A bound that is either a constant (possibly 0) or an expression of an
  /// outer index: 1 + (ivec[l] % k).
  Bound gen_bound(Level level, i64 max_bound, bool allow_zero) {
    if (allow_zero && chance(cfg_.zero_bound_permille)) return Bound{0};
    if (level >= 2 && chance(cfg_.expr_bound_permille)) {
      const auto l = static_cast<std::size_t>(rng_.below(level));
      const i64 k = rng_.range(1, std::max<i64>(1, max_bound));
      return Bound{[l, k](const IndexVec& ivec) {
        return 1 + (ivec[l] % k + k) % k;
      }};
    }
    return Bound{rng_.range(1, std::max<i64>(1, max_bound))};
  }

  CondFn gen_cond(Level level) {
    // (ivec[l] + c) % m == 0 over a uniformly chosen visible index; at the
    // top level (no real indices yet) fall back to a constant verdict.
    if (level < 2) {
      const bool verdict = chance(500);
      return [verdict](const IndexVec&) { return verdict; };
    }
    const auto l = static_cast<std::size_t>(1 + rng_.below(level - 1));
    const i64 m = rng_.range(2, 3);
    const i64 c = rng_.range(0, m - 1);
    return [l, m, c](const IndexVec& ivec) {
      return (ivec[l] + c) % m == 0;
    };
  }

  NodePtr gen_leaf(Level level, bool allow_zero_bound) {
    const std::string name =
        std::string("R").append(std::to_string(++leaf_counter_));
    Bound b = gen_bound(level, cfg_.max_leaf_bound, allow_zero_bound);
    const Cycles cost = rng_.range(1, cfg_.max_body_cost);
    BodyFn body = bodies_ ? bodies_(name) : BodyFn{};
    if (chance(cfg_.doacross_permille)) {
      DoacrossSpec spec;
      spec.distance = rng_.range(1, 2);
      spec.post_fraction = 0.25 * static_cast<double>(rng_.range(1, 3));
      return doacross(name, std::move(b), spec, std::move(body),
                      constant_cost(cost));
    }
    return doall(name, std::move(b), std::move(body), constant_cost(cost));
  }

  NodePtr gen_construct(Level level) {
    // IF branches recurse at the *same* level, so max_depth alone does not
    // bound the tree: with high if_permille the branching process turns
    // supercritical and the recursion is infinite with positive
    // probability (stack overflow).  A global construct budget forces
    // termination for every (seed, cfg) while leaving typical subcritical
    // configs untouched.
    if (construct_budget_ == 0) return gen_leaf(level, /*allow_zero_bound=*/true);
    --construct_budget_;
    if (level < cfg_.max_depth && chance(cfg_.if_permille)) {
      NodeSeq then_branch = gen_seq(level, /*allow_empty=*/false);
      NodeSeq else_branch =
          chance(600) ? gen_seq(level, /*allow_empty=*/false) : NodeSeq{};
      return if_then_else(gen_cond(level), std::move(then_branch),
                          std::move(else_branch));
    }
    if (level < cfg_.max_depth && chance(450)) {
      Bound b = gen_bound(level, cfg_.max_bound, /*allow_zero=*/true);
      NodeSeq body = gen_seq(level + 1, /*allow_empty=*/false);
      return chance(cfg_.serial_permille) ? ser(std::move(b), std::move(body))
                                          : par(std::move(b), std::move(body));
    }
    return gen_leaf(level, /*allow_zero_bound=*/true);
  }

  NodeSeq gen_seq(Level level, bool allow_empty) {
    const u64 lo = allow_empty ? 0 : 1;
    const auto count = static_cast<u32>(
        rng_.range(static_cast<i64>(lo), cfg_.max_constructs));
    NodeSeq s;
    s.reserve(count);
    for (u32 i = 0; i < count; ++i) s.push_back(gen_construct(level));
    return s;
  }

  Xoshiro256ss rng_;
  RandomProgramConfig cfg_;
  const BodyFactory& bodies_;
  u32 leaf_counter_ = 0;
  u32 construct_budget_ = 256;
};

}  // namespace

NestedLoopProgram random_program(u64 seed, const RandomProgramConfig& cfg,
                                 const BodyFactory& bodies) {
  RandomBuilder builder(seed, cfg, bodies);
  return NestedLoopProgram(builder.build());
}

}  // namespace selfsched::workloads
