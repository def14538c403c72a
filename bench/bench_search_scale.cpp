// E12 — SEARCH scalability of the one SEARCH the runtime ships: a flat
// multi-word control word SW, per-worker rotating cursors seeded at the
// worker's home list, and local-list-first probing, swept over m lists and
// P processors.
//
// A churn-heavy wide program (many innermost loops, many short instances,
// tiny bodies) makes every worker live in SEARCH: instances appear and
// drain within a few dispatches, so the high-level path — leading-one
// detection, try-lock, re-test — dominates.
//
// The gated columns are virtual-time: the vtime engine charges every sync
// op from one cost model and serializes them deterministically, so
// makespans are exact virtual cycles — bit-identical on any host, which is
// what lets tools/bench_gate.py gate regressions in CI without
// real-hardware noise.  The wall_ms column is the same program on real
// cores (threads engine, one persistent team per P, P <= nproc, median of
// kWallRuns runs): informational, never gated.
//
// Usage: bench_search_scale [--json PATH] [--max-procs N]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "exec/thread_team.hpp"
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
  bool deterministic = true;  // vtime; false for wall-clock rows
};

constexpr int kWallRuns = 9;

/// Median wall-clock makespan in ms of kWallRuns threads runs on one team.
double wall_median_ms(const program::NestedLoopProgram& prog, u32 procs) {
  exec::ThreadTeam team(procs);
  runtime::SchedOptions opts;
  opts.measure_phases = false;
  std::vector<double> ms;
  for (int r = 0; r < kWallRuns; ++r) {
    ms.push_back(static_cast<double>(
                     runtime::run_threads_on(team, prog, opts).makespan) /
                 1e6);
  }
  std::nth_element(ms.begin(), ms.begin() + kWallRuns / 2, ms.end());
  return ms[kWallRuns / 2];
}

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
      "E12 search scale: flat SW + rotating cursors across m and P",
      "SEARCH stays cheap as m and P grow: rotating cursors keep the P "
      "searchers off one another's lists");

  constexpr i64 kWidth = 16;
  constexpr Cycles kBody = 10;
  const u32 cores = std::max(1u, std::thread::hardware_concurrency());

  std::vector<Metric> metrics;
  bench::Table table({"m", "procs", "makespan_vcycles", "iters_per_kcycle",
                      "search_probes", "search_retries", "lock_failures",
                      "wall_ms"});

  for (const u32 m : {4u, 64u, 256u}) {
    const auto prog = wide_program(m, kWidth, kBody);
    const i64 total_iters = static_cast<i64>(m) * kWidth * 2;
    for (const u32 procs : {1u, 2u, 4u, 8u, 16u}) {
      if (procs > max_procs) break;
      const auto r = runtime::run_vtime(prog, procs);
      const double thru = 1000.0 * static_cast<double>(total_iters) /
                          static_cast<double>(r.makespan);
      const std::string key = "search_scale/m" + std::to_string(m) + "/p" +
                              std::to_string(procs);
      const bool wall = procs <= cores;
      const double wall_ms = wall ? wall_median_ms(prog, procs) : 0.0;

      table.row({bench::fmt(m), bench::fmt(procs), bench::fmt(r.makespan),
                 bench::fmt(thru, 2), bench::fmt(r.counters.search_probes),
                 bench::fmt(r.counters.search_retries),
                 bench::fmt(r.counters.list_lock_failures),
                 wall ? bench::fmt(wall_ms, 3) : std::string("-")});

      metrics.push_back({key + "/makespan", static_cast<double>(r.makespan),
                         "vcycles", "less", true});
      metrics.push_back({key + "/search_probes",
                         static_cast<double>(r.counters.search_probes),
                         "count", "less", false});
      metrics.push_back({key + "/search_retries",
                         static_cast<double>(r.counters.search_retries),
                         "count", "less", false});
      metrics.push_back({key + "/list_lock_failures",
                         static_cast<double>(r.counters.list_lock_failures),
                         "count", "less", false});
      if (wall) {
        metrics.push_back(
            {key + "/wall_ms", wall_ms, "ms", "less", false, false});
      }
    }
  }
  table.print();
  std::printf(
      "\nwall_ms: threads engine, median of %d runs on a persistent team, "
      "P <= %u cores; informational, never gated.\n",
      kWallRuns, cores);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_search_scale\",\n");
    std::fprintf(f, "  \"metrics\": [\n");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& mt = metrics[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": "
                   "\"%s\", \"better\": \"%s\", \"deterministic\": %s, "
                   "\"gate\": %s}%s\n",
                   mt.name.c_str(), mt.value, mt.unit, mt.better,
                   mt.deterministic ? "true" : "false",
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
