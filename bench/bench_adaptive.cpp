// E16 — adaptive per-instance scheduling on irregular workloads (ISSUE 7).
//
// Every static portfolio member has an adversarial iteration-time profile:
// self(1) drowns cheap bodies in per-iteration sync, block-sized chunks
// lose to monotone cost ramps, GSS's big first bite loses to decreasing
// costs.  The adaptive meta-strategy seeds each instance at the Eq. 7-style
// completion-time optimum and retunes from per-chunk timing feedback, so it
// should land within 10% of the best static choice on EVERY profile while
// beating the worst by >=1.3x — without being told which profile it faces.
//
// All runs use the vtime engine: makespans are exact virtual-cycle counts,
// bit-identical on any host, so the ratios below are gateable in CI and the
// double-run replay check is exact.
//
// Usage: bench_adaptive [--json PATH] [--procs N]
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "runtime/scheduler.hpp"
#include "trace/ring.hpp"
#include "workloads/iteration_cost.hpp"
#include "workloads/programs.hpp"

using namespace selfsched;

namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* better;  // "less" | "more"
  bool gate;           // compared against the committed baseline in CI
};

struct Workload {
  const char* name;
  i64 bound;  // outermost parallel bound (sizes the block-chunk punisher)
  bool gated;  // participates in the acceptance checks + CI gate
  program::NestedLoopProgram (*make)();
};

// Each maker is a plain function so the table is a constexpr-able array.
program::NestedLoopProgram make_uniform() {
  return workloads::flat_doall(6000, workloads::uniform_cost(7, 10, 90));
}
program::NestedLoopProgram make_bimodal() {
  return workloads::flat_doall(8000,
                               workloads::bimodal_cost(12, 20, 1500, 20));
}
program::NestedLoopProgram make_decreasing() {
  return workloads::flat_doall(3000, workloads::decreasing_cost(3000, 10, 1));
}
program::NestedLoopProgram make_increasing() {
  return workloads::flat_doall(3000, workloads::increasing_cost(10, 1));
}
program::NestedLoopProgram make_triangular() {
  return workloads::triangular(96, 800);
}
program::NestedLoopProgram make_branchy() {
  return workloads::branchy(2400, 25, 900);
}

// The gated sweeps are the paper's four canonical iteration-time profiles
// on one large flat DOALL — the regime per-instance adaptation targets.
// The nested workloads (many small inner instances) are informational:
// instance-local tuning cannot out-amortize a blind coarse chunker when
// each instance is only a few chunks long, so they report ratios without
// gating them (hierarchy-aware tuning is future work, see
// docs/scheduling.md).
constexpr Workload kWorkloads[] = {
    {"uniform", 6000, true, make_uniform},        // i.i.d. cheap bodies
    {"bimodal", 8000, true, make_bimodal},        // rare 75x-heavy iters
    {"decreasing", 3000, true, make_decreasing},  // GSS's adversary
    {"increasing", 3000, true, make_increasing},  // block-chunk adversary
    {"triangular", 96, false, make_triangular},   // small shrinking nests
    {"branchy", 2400, false, make_branchy},       // IF ladder, tiny nests
};

Cycles run_one(const Workload& w, const runtime::Strategy& s, u32 procs) {
  auto prog = w.make();
  runtime::SchedOptions opts;
  opts.strategy = s;
  return runtime::run_vtime(prog, procs, opts).makespan;
}

/// Chunk-grant trajectory of an adaptive run, for the exact replay check.
using Grant = std::tuple<ProcId, LoopId, i64, i64, Cycles, Cycles>;

std::pair<Cycles, std::vector<Grant>> run_adaptive_traced(const Workload& w,
                                                          u32 procs) {
  auto prog = w.make();
  runtime::SchedOptions opts;
  opts.strategy = runtime::Strategy::adaptive();
  opts.trace_events = true;
  const auto r = runtime::run_vtime(prog, procs, opts);
  std::vector<Grant> grants;
  for (const auto& e : r.trace_events) {
    if (e.kind == trace::EventKind::kChunk) {
      grants.emplace_back(e.worker, e.loop, e.first, e.count, e.start, e.end);
    }
  }
  return {r.makespan, std::move(grants)};
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  u32 procs = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--procs") == 0 && i + 1 < argc) {
      procs = static_cast<u32>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH] [--procs N]\n", argv[0]);
      return 2;
    }
  }

  bench::banner(
      "E16 adaptive strategy vs the static portfolio on irregular loops",
      "one meta-strategy lands within 10% of the per-workload best static "
      "and >=1.3x ahead of the worst, with a replayable tuning trajectory");

  std::vector<Metric> metrics;
  bool accept_ok = true;

  for (const Workload& w : kWorkloads) {
    const i64 block = std::max<i64>(1, w.bound / procs);
    const std::pair<const char*, runtime::Strategy> statics[] = {
        {"self", runtime::Strategy::self()},
        {"chunk32", runtime::Strategy::chunked(32)},
        {"chunk_block", runtime::Strategy::chunked(block)},
        {"gss", runtime::Strategy::gss()},
        {"factoring", runtime::Strategy::factoring()},
        {"trapezoid", runtime::Strategy::trapezoid()},
    };

    std::printf("\n--- workload: %s (b=%lld, P=%u) ---\n", w.name,
                static_cast<long long>(w.bound), procs);
    bench::Table table({"strategy", "makespan_vcycles", "vs_adaptive"});

    Cycles best = 0, worst = 0;
    const char* best_name = "";
    const char* worst_name = "";
    std::vector<std::pair<const char*, Cycles>> rows;
    for (const auto& [name, s] : statics) {
      const Cycles m = run_one(w, s, procs);
      rows.emplace_back(name, m);
      if (best == 0 || m < best) best = m, best_name = name;
      if (m > worst) worst = m, worst_name = name;
    }

    const auto [adaptive_a, grants_a] = run_adaptive_traced(w, procs);
    const auto [adaptive_b, grants_b] = run_adaptive_traced(w, procs);
    const bool replay_ok =
        adaptive_a == adaptive_b && grants_a == grants_b;

    const double ad = static_cast<double>(adaptive_a);
    table.row({"adaptive", bench::fmt(adaptive_a), "1.00"});
    for (const auto& [name, m] : rows) {
      table.row({name, bench::fmt(m),
                 bench::fmt(static_cast<double>(m) / ad, 2)});
      metrics.push_back({std::string("adaptive/") + w.name + "/" + name +
                             "/makespan",
                         static_cast<double>(m), "vcycles", "less", false});
    }
    table.print();

    const double vs_best = static_cast<double>(best) / ad;
    const double vs_worst = static_cast<double>(worst) / ad;
    std::printf("best=%s worst=%s vs_best=%.3f vs_worst=%.2f replay=%s\n",
                best_name, worst_name, vs_best, vs_worst,
                replay_ok ? "identical" : "DIVERGED");

    const std::string key = std::string("adaptive/") + w.name;
    metrics.push_back({key + "/makespan", ad, "vcycles", "less", w.gated});
    metrics.push_back(
        {key + "/vs_best_static", vs_best, "x", "more", w.gated});
    metrics.push_back(
        {key + "/vs_worst_static", vs_worst, "x", "more", w.gated});

    // Acceptance (gated sweeps only): within 10% of the best static
    // (best/adaptive >= 1/1.1), >=1.3x over the worst, and the tuning
    // trajectory bit-identical across the two runs.
    if (w.gated && vs_best < 1.0 / 1.1) {
      std::printf("ACCEPTANCE FAIL %s: adaptive is %.1f%% behind %s\n",
                  w.name, (1.0 / vs_best - 1.0) * 100.0, best_name);
      accept_ok = false;
    }
    if (w.gated && vs_worst < 1.3) {
      std::printf("ACCEPTANCE FAIL %s: only %.2fx over worst static %s\n",
                  w.name, vs_worst, worst_name);
      accept_ok = false;
    }
    if (!replay_ok) {  // replay must hold on every workload, nested too
      std::printf("ACCEPTANCE FAIL %s: adaptive trajectory not replayable\n",
                  w.name);
      accept_ok = false;
    }
    metrics.push_back({key + "/replay_identical", replay_ok ? 1.0 : 0.0,
                       "bool", "more", true});
  }

  std::printf(
      "\nexpect: no static wins everywhere (gss loses decreasing, block "
      "chunks lose the ramps, self loses cheap bodies); on the flat gated "
      "sweeps adaptive never strays >10%% from the winner and never shares "
      "the loser's fate.  The nested sweeps show the known limit: tiny "
      "inner instances are overhead-bound and a coarse blind chunk wins.\n");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_adaptive\",\n");
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
  return accept_ok ? 0 : 1;
}
