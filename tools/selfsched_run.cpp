// selfsched-run: command-line driver for the two-level self-scheduler.
//
//   selfsched-run [options] <program.loop>
//   selfsched-run --help
//
// Reads a loop nest in the mini-language (src/lang/parser.hpp), compiles it
// to the paper's DEPTH/BOUND/DESCRPT tables, and executes it on the chosen
// engine, printing the utilization/overhead report.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "baselines/sequential.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "program/instance_graph.hpp"
#include "runtime/fault.hpp"
#include "runtime/report.hpp"
#include "runtime/scheduler.hpp"
#include "trace/export.hpp"

using namespace selfsched;

namespace {

// `out` is stdout for --help (exit 0) and stderr on usage errors (exit 2),
// so piping the report never mixes in usage text.
void usage(const char* argv0, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [options] <program.loop>\n"
      "\n"
      "engine and machine:\n"
      "  --engine vtime|threads   execution engine (default vtime)\n"
      "  --procs N                processors (default 8)\n"
      "  --costs cedar|cheap|expensive|numa[:G]\n"
      "                           vtime cost model (default cedar; numa = G\n"
      "                           topology groups, docs/sharding.md)\n"
      "\n"
      "scheduling:\n"
      "  --strategy self|chunk:K|gss|factoring|trapezoid|factoring2|\n"
      "             tss2|adaptive[:TAU]\n"
      "                           low-level Doall dispatch (default self)\n"
      "  --central-queue          single-list task pool (ablation)\n"
      "  --shards S               shards per loop list (default 1)\n"
      "  --index-shards G         per-instance index shards with home-first\n"
      "                           stealing (default 1 = engine's choice:\n"
      "                           flat on vtime, one per worker for large\n"
      "                           self Doalls on threads; docs/sharding.md)\n"
      "\n"
      "program:\n"
      "  --param NAME=VALUE       bind a named constant (repeatable)\n"
      "\n"
      "output:\n"
      "  --tables                 print the compiled DEPTH/BOUND/DESCRPT\n"
      "  --dot                    print the loop activation graph (GraphViz)\n"
      "  --instances              print the instance-level macro-dataflow\n"
      "                           graph (Fig. 4) and its T1/Tinf analysis\n"
      "  --emit                   reprint the parsed program (canonical\n"
      "                           mini-language source)\n"
      "  --gantt [WIDTH]          print the processor timeline (vtime)\n"
      "  --timeline-csv FILE      write the phase timeline as CSV (vtime)\n"
      "  --summary-csv FILE       append the run metrics as a CSV row\n"
      "  --json                   print the run metrics as one JSON object\n"
      "  --serial                 also run the serial oracle and report\n"
      "                           speedup against it\n"
      "\n"
      "robustness (docs/robustness.md):\n"
      "  --deadline-ms N          threads: cancel the run after N wall-clock\n"
      "                           milliseconds instead of hanging\n"
      "  --deadline-vcycles N     vtime: cancel after N virtual cycles\n"
      "                           (deterministic)\n"
      "  --on-body-error throw|return\n"
      "                           rethrow a contained body exception, or\n"
      "                           return with the failure record (default\n"
      "                           return)\n"
      "  --inject-throw LOOP:J    arm a body-throw fault at loop LOOP,\n"
      "                           iteration J (repeatable)\n"
      "  --inject-stall LOOP:J[:CYCLES]\n"
      "                           arm a worker stall there; CYCLES=0 wedges\n"
      "                           until cancellation or a deadline\n"
      "  A cancelled run prints its failure record and exits with code 3.\n"
      "\n"
      "tracing (docs/observability.md):\n"
      "  --trace-out FILE.json    record scheduler events and write a Chrome\n"
      "                           trace (open in Perfetto / about:tracing)\n"
      "  --events-csv FILE        record events and write them as CSV\n"
      "  --trace-ring N           per-worker event ring capacity (default %u)\n"
      "  --counters               print the metric counters (name=value)\n",
      argv0, runtime::SchedOptions{}.trace_ring_capacity);
}

/// "LOOP:J[:CYCLES]" → (loop, iteration, cycles); cycles left untouched when
/// the third field is absent.
bool parse_fault_point(const std::string& s, long long* loop, long long* j,
                       long long* cycles) {
  char* end = nullptr;
  *loop = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != ':') return false;
  const char* p = end + 1;
  *j = std::strtoll(p, &end, 10);
  if (end == p) return false;
  if (*end == ':') {
    p = end + 1;
    *cycles = std::strtoll(p, &end, 10);
    if (end == p || *cycles < 0) return false;
  }
  return *end == '\0';
}

bool parse_strategy(const std::string& s, runtime::Strategy* out) {
  if (s == "self") {
    *out = runtime::Strategy::self();
  } else if (s.rfind("chunk:", 0) == 0) {
    const long k = std::strtol(s.c_str() + 6, nullptr, 10);
    if (k < 1) return false;
    *out = runtime::Strategy::chunked(k);
  } else if (s == "gss") {
    *out = runtime::Strategy::gss();
  } else if (s == "factoring") {
    *out = runtime::Strategy::factoring();
  } else if (s == "trapezoid") {
    *out = runtime::Strategy::trapezoid();
  } else if (s == "factoring2") {
    *out = runtime::Strategy::factoring2();
  } else if (s == "tss2") {
    *out = runtime::Strategy::trapezoid_tuned();
  } else if (s.rfind("adaptive:", 0) == 0) {
    const long tau = std::strtol(s.c_str() + 9, nullptr, 10);
    if (tau < 0) return false;
    *out = runtime::Strategy::adaptive(tau);
  } else if (s == "adaptive") {
    *out = runtime::Strategy::adaptive();
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine = "vtime";
  std::string path;
  u32 procs = 8;
  bool show_tables = false, show_dot = false, run_serial = false;
  bool show_instances = false, emit_source = false;
  std::string timeline_csv, summary_csv, trace_out, events_csv;
  bool show_json = false, show_counters = false;
  bool gantt = false;
  u32 gantt_width = 100;
  runtime::SchedOptions opts;
  // The CLI default is kReturn so a failed run prints its structured record
  // (and embeds it in --json) instead of dying on an unwound exception;
  // --on-body-error throw restores library behavior.
  opts.on_body_error = runtime::OnBodyError::kReturn;
  fault::FaultPlan plan;
  lang::ParseOptions popts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0], stdout);
      return 0;
    } else if (arg == "--engine") {
      engine = next();
    } else if (arg == "--procs") {
      procs = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--costs") {
      const std::string c = next();
      if (c == "cedar") {
        opts.costs = vtime::CostModel::cedar();
      } else if (c == "cheap") {
        opts.costs = vtime::CostModel::cheap_sync();
      } else if (c == "expensive") {
        opts.costs = vtime::CostModel::expensive_sync();
      } else if (c.rfind("numa", 0) == 0) {
        u32 groups = 4;
        if (c.size() > 4 && c[4] == ':') {
          groups = static_cast<u32>(std::strtoul(c.c_str() + 5, nullptr, 10));
        }
        if (groups == 0) {
          std::fprintf(stderr, "--costs numa:G needs G >= 1\n");
          return 2;
        }
        opts.costs = vtime::CostModel::numa(groups);
      } else {
        std::fprintf(stderr, "unknown cost model '%s'\n", c.c_str());
        return 2;
      }
    } else if (arg == "--strategy") {
      if (!parse_strategy(next(), &opts.strategy)) {
        std::fprintf(stderr, "bad --strategy value\n");
        return 2;
      }
    } else if (arg == "--central-queue") {
      opts.central_queue = true;
    } else if (arg == "--shards") {
      opts.pool_shards = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--index-shards") {
      opts.index_shards =
          static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--param") {
      const std::string kv = next();
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--param expects NAME=VALUE\n");
        return 2;
      }
      popts.params[kv.substr(0, eq)] =
          std::strtoll(kv.c_str() + eq + 1, nullptr, 10);
    } else if (arg == "--tables") {
      show_tables = true;
    } else if (arg == "--dot") {
      show_dot = true;
    } else if (arg == "--instances") {
      show_instances = true;
    } else if (arg == "--emit") {
      emit_source = true;
    } else if (arg == "--timeline-csv") {
      timeline_csv = next();
    } else if (arg == "--summary-csv") {
      summary_csv = next();
    } else if (arg == "--json") {
      show_json = true;
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--events-csv") {
      events_csv = next();
    } else if (arg == "--trace-ring") {
      opts.trace_ring_capacity =
          static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--counters") {
      show_counters = true;
    } else if (arg == "--deadline-ms") {
      opts.deadline_ms = std::strtoll(next(), nullptr, 10);
    } else if (arg == "--deadline-vcycles") {
      opts.deadline_vcycles =
          static_cast<Cycles>(std::strtoll(next(), nullptr, 10));
    } else if (arg == "--on-body-error") {
      const std::string v = next();
      if (v == "throw") {
        opts.on_body_error = runtime::OnBodyError::kThrow;
      } else if (v == "return") {
        opts.on_body_error = runtime::OnBodyError::kReturn;
      } else {
        std::fprintf(stderr, "--on-body-error expects throw|return\n");
        return 2;
      }
    } else if (arg == "--inject-throw" || arg == "--inject-stall") {
      long long loop = 0, j = 0, cycles = 0;
      if (!parse_fault_point(next(), &loop, &j, &cycles)) {
        std::fprintf(stderr, "%s expects LOOP:J%s\n", arg.c_str(),
                     arg == "--inject-stall" ? "[:CYCLES]" : "");
        return 2;
      }
      if (arg == "--inject-throw") {
        plan.body_throw(static_cast<LoopId>(loop), j);
      } else {
        plan.worker_stall(static_cast<LoopId>(loop), j,
                          static_cast<Cycles>(cycles));
      }
    } else if (arg == "--gantt") {
      gantt = true;
      if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(
                              argv[i + 1][0]))) {
        gantt_width = static_cast<u32>(std::strtoul(argv[++i], nullptr, 10));
      }
    } else if (arg == "--serial") {
      run_serial = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s (try --help)\n", arg.c_str());
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "missing <program.loop> argument\n");
    usage(argv[0], stderr);
    return 2;
  }
  if (procs < 1) {
    std::fprintf(stderr, "--procs must be >= 1\n");
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  try {
    if (emit_source) {
      auto ast = lang::parse_to_ast(buf.str(), popts);
      std::printf("%s", lang::to_source(ast).c_str());
      return 0;
    }
    auto prog = lang::parse_program(buf.str(), popts);
    if (show_tables) std::printf("%s\n", prog.describe().c_str());
    if (show_dot) std::printf("%s\n", prog.to_dot().c_str());
    if (show_instances) {
      const auto g = program::build_instance_graph(prog,
                                                   opts.default_body_cost);
      std::printf("%s", g.to_dot(prog.tables()).c_str());
      std::printf("! instances=%zu T1=%lld Tinf=%lld usable parallelism "
                  "T1/Tinf=%.1f\n",
                  g.nodes.size(), static_cast<long long>(g.total_work()),
                  static_cast<long long>(g.critical_path()),
                  static_cast<double>(g.total_work()) /
                      static_cast<double>(g.critical_path()));
    }

    double serial_cycles = 0;
    if (run_serial) {
      const auto s = baselines::run_sequential(prog, opts.default_body_cost,
                                               /*call_bodies=*/false);
      serial_cycles = static_cast<double>(s.total_body_cost);
      std::printf("serial: %llu instances, %llu iterations, body=%lld "
                  "cycles\n",
                  static_cast<unsigned long long>(s.instances),
                  static_cast<unsigned long long>(s.iterations),
                  static_cast<long long>(s.total_body_cost));
    }

    opts.phase_timeline = gantt || !timeline_csv.empty();
    opts.trace_events = !trace_out.empty() || !events_csv.empty();
    if (!plan.specs.empty()) opts.fault_plan = &plan;
    runtime::RunResult r;
    if (engine == "vtime") {
      r = runtime::run_vtime(prog, procs, opts);
    } else if (engine == "threads") {
      r = runtime::run_threads(prog, procs, opts);
    } else {
      std::fprintf(stderr, "unknown engine '%s'\n", engine.c_str());
      return 2;
    }
    std::printf("%s", r.summary().c_str());
    if (r.failure.has_value()) {
      std::fprintf(stderr, "%s\n", r.failure->summary().c_str());
      for (const fault::WorkerProgress& p : r.failure->progress) {
        std::fprintf(stderr,
                     "  worker %u: %llu iterations, %llu dispatches, "
                     "%llu searches, %llu sync ops\n",
                     p.worker, static_cast<unsigned long long>(p.iterations),
                     static_cast<unsigned long long>(p.dispatches),
                     static_cast<unsigned long long>(p.searches),
                     static_cast<unsigned long long>(p.sync_ops));
      }
    }
    if (run_serial && r.makespan > 0 && engine == "vtime") {
      std::printf("speedup vs serial body time: %.2f\n",
                  serial_cycles / static_cast<double>(r.makespan));
    }
    if (gantt) std::printf("%s", runtime::render_gantt(r, gantt_width).c_str());
    if (!timeline_csv.empty()) {
      std::ofstream csv(timeline_csv);
      runtime::write_timeline_csv(r, csv);
      std::printf("timeline written to %s\n", timeline_csv.c_str());
    }
    if (!summary_csv.empty()) {
      const bool fresh = !std::ifstream(summary_csv).good();
      std::ofstream csv(summary_csv, std::ios::app);
      if (fresh) runtime::write_summary_csv_header(csv);
      runtime::write_summary_csv_row(path + "/" + engine, r, csv);
      std::printf("summary appended to %s\n", summary_csv.c_str());
    }
    if (show_json) {
      std::ostringstream js;
      runtime::write_json_report(r, js);
      std::printf("%s", js.str().c_str());
    }
    if (show_counters) {
      std::ostringstream cs;
      trace::write_counters(r.counters, cs);
      std::printf("%s", cs.str().c_str());
    }
    if (!trace_out.empty()) {
      std::ofstream tf(trace_out);
      if (!tf) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
      }
      trace::ExportMeta meta;
      // threads timestamps are ns since run start; vtime stamps are cycles,
      // exported 1:1 as microseconds so Perfetto shows round numbers.
      meta.scale_to_us = (engine == "threads") ? 1e-3 : 1.0;
      trace::write_chrome_trace(r.trace_events, r.procs, tf, meta);
      std::printf("trace written to %s (%zu events, %llu dropped)\n",
                  trace_out.c_str(), r.trace_events.size(),
                  static_cast<unsigned long long>(r.trace_events_dropped));
    }
    if (!events_csv.empty()) {
      std::ofstream ef(events_csv);
      if (!ef) {
        std::fprintf(stderr, "cannot write %s\n", events_csv.c_str());
        return 1;
      }
      trace::write_events_csv(r.trace_events, ef);
      std::printf("events written to %s\n", events_csv.c_str());
    }
    if (r.failure.has_value()) return 3;  // distinct from usage/parse errors
  } catch (const lang::ParseError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  } catch (const fault::FailureError& e) {
    // --on-body-error throw, no original exception (stall/deadline).
    std::fprintf(stderr, "%s\n", e.record().summary().c_str());
    return 3;
  } catch (const fault::InjectedFault& e) {
    // --on-body-error throw rethrowing an armed --inject-throw: still a
    // cancelled run, so keep the distinct exit code.
    std::fprintf(stderr, "run failed (injected-fault): %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    // --on-body-error throw rethrowing the user's own body exception lands
    // here; without a RunResult there is no record to print.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
