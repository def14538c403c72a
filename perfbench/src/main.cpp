// perfbench: wall-clock benchmark of the threads engine.  Usually started
// through perfbench/run.py, which builds it first.
//
//   perfbench --workload nest_churn|flat_fine|serve_mix|all --seed N
//             --seconds S --trace 0|1 [--procs P] [--root DIR]
//             [--commit SHA] [--trace-dir DIR]
//
// Prints each metric as "name = value unit", then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "host.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload nest_churn|flat_fine|serve_mix|all "
               "--seed N --seconds S --trace 0|1 [--procs P] [--root DIR] "
               "[--commit SHA] [--trace-dir DIR]\n",
               argv0);
  return 2;
}

int refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: refusing to run: %s\n", why.c_str());
  return 2;
}

/// The host and build every result was measured on, and the processors
/// each workload's runtime uses (serve_mix: pool workers; its generator
/// thread takes one more CPU).
std::string fingerprint(const Host& h, const Config& cfg,
                        const std::vector<std::string>& workloads,
                        const std::string& commit) {
  std::string procs;
  for (const std::string& w : workloads) {
    if (!procs.empty()) procs += ",";
    procs += json_string(w) + ":" +
             std::to_string(w == "serve_mix" ? cfg.procs - 1 : cfg.procs);
  }
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\":%u,\"l2_kb\":%llu,\"l3_kb\":%llu,\"seed\":%llu,",
                h.nproc, static_cast<unsigned long long>(h.l2_kb),
                static_cast<unsigned long long>(h.l3_kb),
                static_cast<unsigned long long>(cfg.seed));
  return buf + std::string("\"cpu_model\":") + json_string(h.cpu_model) +
         ",\"compiler\":" + json_string(h.compiler) +
         ",\"build_type\":" + json_string(h.build_type) +
         ",\"commit\":" + json_string(commit) + ",\"P\":{" + procs + "}}";
}

/// One value with all its digits; JSON has no NaN or infinity.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string commit = "unknown";
  std::string trace_dir;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--procs") {
      cfg.procs = static_cast<u32>(std::strtoul(v, nullptr, 10));
    } else if (a == "--root") {
      cfg.root = v;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--trace-dir") {
      trace_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !(cfg.seconds > 0)) return usage(argv[0]);

  std::vector<std::string> workloads;
  for (const char* w : kWorkloads) {
    if (cfg.workload == w || cfg.workload == "all") workloads.push_back(w);
  }
  if (workloads.empty()) return usage(argv[0]);

  const Host host = probe_host();
  if (!host.optimized) {
    return refuse("the build is unoptimized (build type " + host.build_type +
                  "); configure with -DCMAKE_BUILD_TYPE=Release");
  }
  if (cfg.procs == 0) cfg.procs = host.nproc;
  if (cfg.procs > host.nproc) {
    return refuse("P=" + std::to_string(cfg.procs) + " exceeds nproc=" +
                  std::to_string(host.nproc));
  }
  if (cfg.procs < 2 && workloads.back() == "serve_mix") {
    return refuse("serve_mix needs P >= 2 (one generator thread plus at "
                  "least one service worker)");
  }

  const std::string fp = fingerprint(host, cfg, workloads, commit);
  std::printf("fingerprint: %s\n", fp.c_str());

  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::string json;
  for (const std::string& w : workloads) {
    Config c = cfg;
    c.workload = w;
    SpanLog spans(cfg.trace);
    Result r;
    try {
      r = run_workload(c, spans);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s: %s\n", w.c_str(), e.what());
      return 1;
    }
    std::printf("[%s] seed=%llu P=%u trace=%d attempted=%llu failed=%llu%s\n",
                w.c_str(), static_cast<unsigned long long>(cfg.seed),
                r.procs, cfg.trace ? 1 : 0,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.correct ? "" : " WRONG RESULTS");
    for (const Metric& m : r.metrics) {
      std::printf("  %-34s = %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (!json.empty()) json += ",";
      const std::string key =
          workloads.size() > 1 ? w + "." + m.name : m.name;
      json += json_string(key) + ":{\"value\":" + number(m.value) +
              ",\"unit\":" + json_string(m.unit) + "}";
    }
    for (const std::string& n : r.notes) std::printf("  # %s\n", n.c_str());
    if (cfg.trace) {
      std::printf("  span self time (ms):\n");
      for (const SpanLog::SelfTime& t : spans.self_times()) {
        std::printf("    %-30s n=%-7llu total=%12.3f self=%12.3f\n",
                    t.name.c_str(), static_cast<unsigned long long>(t.count),
                    t.total_ms, t.self_ms);
      }
      if (!trace_dir.empty()) {
        std::filesystem::create_directories(trace_dir);
        const std::string path = trace_dir + "/" + w + "-seed" +
                                 std::to_string(cfg.seed) + ".json";
        std::ofstream out(path);
        spans.write_chrome_trace(out, fp);
        if (!out) {
          std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
          return 1;
        }
        std::printf("  trace: %s\n", path.c_str());
      }
    }
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  return 0;
}
