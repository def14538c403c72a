// E12 — SEARCH scalability: hierarchical SW + rotating per-worker cursors
// vs the flat control word with the paper's scan-from-bit-0 discipline.
//
// A churn-heavy wide program (many innermost loops, many short instances,
// tiny bodies) makes every worker live in SEARCH: instances appear and
// drain within a few dispatches, so the high-level path — leading-one
// detection, try-lock, re-test — dominates.  With bit-0 scanning all P
// searchers convoy on the lowest non-empty list (failed try-locks, stale
// bits, retries); rotating cursors spread them, and for m > 64 the summary
// level turns the O(m/64) leaf sweep into O(1) fetches.
//
// Virtual-time only: the vtime engine charges every sync op from one cost
// model and serializes them deterministically, so makespans are exact
// virtual cycles — bit-identical on any host, which is what lets
// tools/bench_gate.py gate regressions in CI without real-hardware noise.
//
// Usage: bench_search_scale [--json PATH] [--max-procs N]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "program/ast.hpp"
#include "runtime/scheduler.hpp"

using namespace selfsched;

namespace {

/// par I (1..width) { L0(2); L1(2); ... L(m-1)(2) } — m innermost loops,
/// width instances each, two iterations and a tiny body per instance:
/// SEARCH-dominated churn.
program::NestedLoopProgram wide_program(u32 m, i64 width, Cycles body) {
  using namespace program;
  NodeSeq inner;
  for (u32 l = 0; l < m; ++l) {
    inner.push_back(doall(std::string("L").append(std::to_string(l)),
                          2, nullptr,
                          [body](const IndexVec&, i64) { return body; }));
  }
  NodeSeq top;
  top.push_back(par(width, std::move(inner)));
  return NestedLoopProgram(std::move(top));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* better;  // "less" | "more"
  bool gate;           // compared against the committed baseline in CI
};

struct Config {
  const char* tag;
  bool hierarchical;
  bool rotate;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  u32 max_procs = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-procs") == 0 && i + 1 < argc) {
      max_procs = static_cast<u32>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--max-procs N]\n", argv[0]);
      return 2;
    }
  }

  bench::banner(
      "E12 search scale: hierarchical SW + rotating cursors vs flat + bit-0",
      "SEARCH stays O(1) as m and P grow instead of convoying every "
      "processor on the lowest non-empty list");

  constexpr i64 kWidth = 16;
  constexpr Cycles kBody = 10;
  constexpr Config kConfigs[] = {
      {"flat_bit0", false, false},   // the pre-hierarchical baseline
      {"hier_rotate", true, true},   // the default configuration
  };

  std::vector<Metric> metrics;
  bench::Table table({"m", "procs", "config", "makespan_vcycles",
                      "iters_per_kcycle", "search_probes", "search_retries",
                      "lock_failures", "vs_flat"});

  for (const u32 m : {4u, 64u, 256u}) {
    std::vector<u32> procs_sweep;
    for (u32 p : {1u, 2u, 4u, 8u, 16u}) {
      if (p <= max_procs) procs_sweep.push_back(p);
    }
    for (const u32 procs : procs_sweep) {
      const i64 total_iters = static_cast<i64>(m) * kWidth * 2;
      Cycles flat_makespan = 0;
      for (const Config& cfg : kConfigs) {
        runtime::SchedOptions opts;
        opts.sw_hierarchical = cfg.hierarchical;
        opts.search_rotate = cfg.rotate;
        auto prog = wide_program(m, kWidth, kBody);
        const auto r = runtime::run_vtime(prog, procs, opts);
        if (cfg.tag == kConfigs[0].tag) flat_makespan = r.makespan;
        const double thru = 1000.0 * static_cast<double>(total_iters) /
                            static_cast<double>(r.makespan);
        const double vs_flat = static_cast<double>(flat_makespan) /
                               static_cast<double>(r.makespan);

        table.row({bench::fmt(m), bench::fmt(procs), cfg.tag,
                   bench::fmt(r.makespan), bench::fmt(thru, 2),
                   bench::fmt(r.counters.search_probes),
                   bench::fmt(r.counters.search_retries),
                   bench::fmt(r.counters.list_lock_failures),
                   bench::fmt(vs_flat, 2)});

        const std::string key = "search_scale/m" + std::to_string(m) + "/p" +
                                std::to_string(procs) + "/" + cfg.tag;
        metrics.push_back(
            {key + "/makespan", static_cast<double>(r.makespan), "vcycles",
             "less", true});
        metrics.push_back({key + "/search_probes",
                           static_cast<double>(r.counters.search_probes),
                           "count", "less", false});
        metrics.push_back({key + "/search_retries",
                           static_cast<double>(r.counters.search_retries),
                           "count", "less", false});
        metrics.push_back({key + "/list_lock_failures",
                           static_cast<double>(r.counters.list_lock_failures),
                           "count", "less", false});
        if (cfg.tag != kConfigs[0].tag) {
          metrics.push_back({key + "/speedup_vs_flat", vs_flat, "x", "more",
                             true});
        }
      }
    }
  }
  table.print();
  std::printf(
      "\nexpect: vs_flat grows with m and P — rotation kills the bit-0 "
      "convoy, the summary level kills the multi-leaf sweep at m=256.\n");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_search_scale\",\n");
    std::fprintf(f, "  \"deterministic\": true,\n  \"metrics\": [\n");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& mt = metrics[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": "
                   "\"%s\", \"better\": \"%s\", \"deterministic\": true, "
                   "\"gate\": %s}%s\n",
                   mt.name.c_str(), mt.value, mt.unit, mt.better,
                   mt.gate ? "true" : "false",
                   i + 1 < metrics.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu metrics)\n", json_path.c_str(),
                metrics.size());
  }
  return 0;
}
