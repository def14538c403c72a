// Tests of the tracing subsystem (src/trace): ring buffer wrap/overflow
// semantics, counter folding, end-to-end event capture on both engines, and
// the exporters — the Chrome trace JSON is validated with a small in-test
// JSON parser so a malformed escape or missing comma fails loudly here
// rather than silently in Perfetto.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "program/fig1.hpp"
#include "runtime/report.hpp"
#include "runtime/scheduler.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"
#include "trace/ring.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

// ------------------------------------------------------- mini JSON parser --
// Just enough of RFC 8259 to validate exporter output.  Parse errors throw;
// the tests wrap top-level parses in ASSERT_NO_THROW.

struct JValue {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JValue> arr;
  std::vector<std::pair<std::string, JValue>> obj;

  const JValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  bool has(const std::string& key) const { return find(key) != nullptr; }
};

class JParser {
 public:
  explicit JParser(const std::string& text) : s_(text) {}

  JValue parse() {
    JValue v = value();
    ws();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string("JSON error at offset ") +
                             std::to_string(pos_) + ": " + what);
  }

  void ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool eat(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("dangling escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            for (int k = 0; k < 4; ++k) {
              if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + static_cast<std::size_t>(k)]))) {
                fail("bad \\u escape");
              }
            }
            pos_ += 4;
            out += '?';  // codepoint value irrelevant to these tests
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  JValue value() {
    ws();
    JValue v;
    const char c = peek();
    if (c == '{') {
      v.kind = JValue::kObj;
      ++pos_;
      ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        ws();
        std::string key = string();
        ws();
        expect(':');
        v.obj.emplace_back(std::move(key), value());
        ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.kind = JValue::kArr;
      ++pos_;
      ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.arr.push_back(value());
        ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = JValue::kStr;
      v.str = string();
      return v;
    }
    if (eat("true")) {
      v.kind = JValue::kBool;
      v.b = true;
      return v;
    }
    if (eat("false")) {
      v.kind = JValue::kBool;
      v.b = false;
      return v;
    }
    if (eat("null")) return v;
    // number
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    v.kind = JValue::kNum;
    v.num = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

trace::TraceEvent ev(i64 seq, ProcId worker = 0) {
  trace::TraceEvent e;
  e.worker = worker;
  e.first = seq;
  e.start = seq;
  e.end = seq + 1;
  return e;
}

// -------------------------------------------------------------- EventRing --

TEST(EventRing, KeepsAllWhenUnderCapacity) {
  trace::EventRing ring(8);
  for (i64 k = 0; k < 5; ++k) ring.push(ev(k));
  EXPECT_EQ(ring.total_pushed(), 5u);
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 5u);
  for (i64 k = 0; k < 5; ++k) EXPECT_EQ(evs[static_cast<std::size_t>(k)].first, k);
}

TEST(EventRing, WrapOverwritesOldestKeepsNewestWindow) {
  trace::EventRing ring(8);
  for (i64 k = 0; k < 11; ++k) ring.push(ev(k));
  EXPECT_EQ(ring.total_pushed(), 11u);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 3u);
  const auto evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 8u);
  // Oldest-first snapshot of the newest window: 3..10.
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(evs[k].first, static_cast<i64>(k + 3));
  }
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  trace::EventRing ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  trace::EventRing exact(16);
  EXPECT_EQ(exact.capacity(), 16u);
}

TEST(EventRing, ZeroCapacityCountsButStoresNothing) {
  trace::EventRing ring;  // default: capacity 0
  for (i64 k = 0; k < 4; ++k) ring.push(ev(k));
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_EQ(ring.total_pushed(), 4u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 4u);
  EXPECT_TRUE(ring.snapshot().empty());
}

// --------------------------------------------------- Counters & Recorder --

TEST(Counters, MergeAddsEveryField) {
  trace::Counters a, b;
  u64 seed = 1;
  trace::Counters::for_each_field([&](const char*, u64 trace::Counters::* m) {
    a.*m = seed;
    b.*m = 10 * seed;
    ++seed;
  });
  a.merge(b);
  seed = 1;
  trace::Counters::for_each_field([&](const char*, u64 trace::Counters::* m) {
    EXPECT_EQ(a.*m, 11 * seed);
    ++seed;
  });
}

/// Number of counters, from the field list every exporter iterates.
std::size_t counter_field_count() {
  std::size_t n = 0;
  trace::Counters::for_each_field(
      [&](const char*, u64 trace::Counters::*) { ++n; });
  return n;
}

TEST(Counters, FieldNamesAreUnique) {
  std::set<std::string> names;
  trace::Counters::for_each_field(
      [&](const char* name, u64 trace::Counters::*) { names.insert(name); });
  EXPECT_EQ(names.size(), counter_field_count());
}

/// First-column names of the counter table in docs/observability.md: the
/// rows under the "| counter | meaning |" header, up to the first line that
/// is not a table row.  A row whose first cell holds no backticked name is
/// returned whole, so it fails the comparison below instead of vanishing.
std::set<std::string> documented_counters() {
  std::ifstream in(std::string(SELFSCHED_DOCS_DIR) + "/observability.md");
  std::set<std::string> names;
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (!in_table) {
      in_table = line.rfind("| counter |", 0) == 0;
      continue;
    }
    if (line.rfind('|', 0) != 0) break;
    if (line.rfind("|---", 0) == 0) continue;
    const std::size_t cell_end = line.find('|', 1);
    const std::size_t open = line.find('`');
    const std::size_t close = line.find('`', open + 1);
    if (open < cell_end && close < cell_end) {
      names.insert(line.substr(open + 1, close - open - 1));
    } else {
      names.insert(line);
    }
  }
  return names;
}

TEST(Counters, ObservabilityDocTableMatchesTheFields) {
  std::set<std::string> fields;
  trace::Counters::for_each_field(
      [&](const char* name, u64 trace::Counters::*) { fields.insert(name); });
  const std::set<std::string> documented = documented_counters();
  ASSERT_FALSE(documented.empty())
      << "no counter table in docs/observability.md";
  for (const std::string& f : fields) {
    EXPECT_EQ(documented.count(f), 1u)
        << "counter " << f << " has no row in docs/observability.md";
  }
  for (const std::string& d : documented) {
    EXPECT_EQ(fields.count(d), 1u) << "docs/observability.md row '" << d
                                   << "' is not a Counters field";
  }
}

TEST(Recorder, FoldsCountersAcrossWorkerSlots) {
  trace::Recorder rec(3, /*events_on=*/false, 0);
  rec.sink(0).counters.dispatches = 5;
  rec.sink(1).counters.dispatches = 7;
  rec.sink(2).counters.dispatches = 11;
  rec.sink(2).counters.cas_retries = 2;
  const trace::Counters total = rec.fold_counters();
  EXPECT_EQ(total.dispatches, 23u);
  EXPECT_EQ(total.cas_retries, 2u);
  EXPECT_EQ(total.sw_scans, 0u);
}

TEST(Recorder, HarvestMergesRingsSortedByStart) {
  trace::Recorder rec(2, /*events_on=*/true, 8);
  rec.sink(0).ring.push(ev(4, 0));
  rec.sink(0).ring.push(ev(9, 0));
  rec.sink(1).ring.push(ev(2, 1));
  rec.sink(1).ring.push(ev(4, 1));
  const auto evs = rec.harvest_events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].start, 2);
  EXPECT_EQ(evs[1].start, 4);
  EXPECT_EQ(evs[1].worker, 0u);  // ties break by worker id
  EXPECT_EQ(evs[2].worker, 1u);
  EXPECT_EQ(evs[3].start, 9);
}

TEST(IvecHash, DependsOnPrefixOnly) {
  IndexVec a, b;
  for (i64 v : {3, 7, 1}) a.push_back(v);
  for (i64 v : {3, 7, 9}) b.push_back(v);
  EXPECT_EQ(trace::ivec_hash(a, 2), trace::ivec_hash(b, 2));
  EXPECT_NE(trace::ivec_hash(a, 3), trace::ivec_hash(b, 3));
  // Depth beyond the vector length clamps instead of reading garbage.
  EXPECT_EQ(trace::ivec_hash(a, 9), trace::ivec_hash(a, 3));
}

// ------------------------------------------- end-to-end event collection --
std::set<trace::EventKind> kinds_of(const std::vector<trace::TraceEvent>& evs) {
  std::set<trace::EventKind> out;
  for (const auto& e : evs) out.insert(e.kind);
  return out;
}

TEST(TraceVtime, Fig1EmitsEveryPhaseKindAndMatchesStats) {
  const auto prog = program::make_fig1();
  runtime::SchedOptions opts;
  opts.trace_events = true;
  const auto r = runtime::run_vtime(prog, 4, opts);

  ASSERT_FALSE(r.trace_events.empty());
  EXPECT_EQ(r.trace_events_dropped, 0u);
  const auto kinds = kinds_of(r.trace_events);
  EXPECT_TRUE(kinds.count(trace::EventKind::kChunk));
  EXPECT_TRUE(kinds.count(trace::EventKind::kSearch));
  EXPECT_TRUE(kinds.count(trace::EventKind::kExit));
  EXPECT_TRUE(kinds.count(trace::EventKind::kEnter));
  EXPECT_TRUE(kinds.count(trace::EventKind::kTeardown));

  u64 chunks = 0;
  i64 chunk_iters = 0;
  for (const auto& e : r.trace_events) {
    EXPECT_LT(e.worker, 4u);
    EXPECT_LE(e.start, e.end);
    if (e.kind == trace::EventKind::kChunk) {
      ++chunks;
      chunk_iters += e.count;
      EXPECT_NE(e.loop, kNoLoop);
      EXPECT_GE(e.first, 1);
      EXPECT_GE(e.count, 1);
    }
  }
  // One kChunk event per successful dispatch; chunk counts cover exactly
  // the executed iterations.
  EXPECT_EQ(chunks, r.total.dispatches);
  EXPECT_EQ(chunk_iters, static_cast<i64>(r.total.iterations));
  EXPECT_EQ(r.counters.dispatches, r.total.dispatches);
  EXPECT_EQ(r.counters.pool_appends, r.counters.pool_deletes);
}

TEST(TraceVtime, TracedRunIsDeterministicAndCostFree) {
  const auto prog = program::make_fig1();
  runtime::SchedOptions opts;
  const auto plain = runtime::run_vtime(prog, 3, opts);
  opts.trace_events = true;
  const auto t1 = runtime::run_vtime(prog, 3, opts);
  const auto t2 = runtime::run_vtime(prog, 3, opts);

  // Reading the virtual clock does not advance it: tracing must not change
  // the simulated schedule at all.
  EXPECT_EQ(plain.makespan, t1.makespan);
  EXPECT_EQ(t1.makespan, t2.makespan);
  ASSERT_EQ(t1.trace_events.size(), t2.trace_events.size());
  for (std::size_t k = 0; k < t1.trace_events.size(); ++k) {
    const auto& a = t1.trace_events[k];
    const auto& b = t2.trace_events[k];
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.loop, b.loop);
    EXPECT_EQ(a.ivec_hash, b.ivec_hash);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
  }
}

TEST(TraceVtime, DoacrossEmitsWaitEvents) {
  const auto prog = workloads::doacross_chain(32, 1, 0.5, 40);
  runtime::SchedOptions opts;
  opts.trace_events = true;
  const auto r = runtime::run_vtime(prog, 2, opts);
  u64 waits = 0;
  for (const auto& e : r.trace_events) {
    if (e.kind == trace::EventKind::kDoacrossWait) {
      ++waits;
      EXPECT_EQ(e.count, 1);  // the dependence distance
      EXPECT_GE(e.first, 2);  // iteration 1 has no predecessor
    }
  }
  EXPECT_GT(waits, 0u);
}

TEST(TraceVtime, TinyRingDropsButKeepsNewestWindow) {
  const auto prog = program::make_fig1();
  runtime::SchedOptions opts;
  opts.trace_events = true;
  opts.trace_ring_capacity = 4;
  const auto r = runtime::run_vtime(prog, 2, opts);
  EXPECT_GT(r.trace_events_dropped, 0u);
  EXPECT_LE(r.trace_events.size(), 2u * 4u);
  // The newest window survives: the final teardown is in it.
  EXPECT_TRUE(kinds_of(r.trace_events).count(trace::EventKind::kTeardown));
}

TEST(TraceVtime, DisabledByDefaultLeavesNoEvents) {
  const auto r = runtime::run_vtime(program::make_fig1(), 2, {});
  EXPECT_TRUE(r.trace_events.empty());
  EXPECT_EQ(r.trace_events_dropped, 0u);
  // Counters are always on.
  EXPECT_EQ(r.counters.dispatches, r.total.dispatches);
  EXPECT_GT(r.counters.pool_appends, 0u);
}

TEST(TraceThreads, ChromeTraceExportIsValidAndComplete) {
  const u32 procs = 2;
  const auto prog = program::make_fig1();
  runtime::SchedOptions opts;
  opts.trace_events = true;
  const auto r = runtime::run_threads(prog, procs, opts);
  ASSERT_FALSE(r.trace_events.empty());

  std::ostringstream os;
  trace::write_chrome_trace(r.trace_events, procs, os);

  JValue root;
  ASSERT_NO_THROW(root = JParser(os.str()).parse());
  ASSERT_EQ(root.kind, JValue::kObj);
  const JValue* evs = root.find("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_EQ(evs->kind, JValue::kArr);

  std::size_t slices = 0, thread_names = 0, counter_samples = 0;
  std::set<double> tids;
  std::set<std::string> names;
  for (const JValue& e : evs->arr) {
    ASSERT_EQ(e.kind, JValue::kObj);
    const JValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "X") {
      ++slices;
      // The keys Perfetto/chrome://tracing require of a complete event.
      for (const char* key : {"name", "cat", "ts", "dur", "pid", "tid"}) {
        EXPECT_TRUE(e.has(key)) << "slice missing " << key;
      }
      EXPECT_EQ(e.find("pid")->num, 0.0);
      EXPECT_GE(e.find("dur")->num, 0.0);
      tids.insert(e.find("tid")->num);
      names.insert(e.find("name")->str);
    } else if (ph->str == "M") {
      if (e.find("name")->str == "thread_name") ++thread_names;
    } else if (ph->str == "C") {
      ++counter_samples;
      EXPECT_TRUE(e.find("args")->has("icbs"));
    }
  }
  EXPECT_EQ(slices, r.trace_events.size());
  EXPECT_EQ(thread_names, procs);       // one named track per processor
  EXPECT_EQ(tids.size(), procs);        // ...and slices actually land on them
  EXPECT_GT(counter_samples, 0u);       // derived "outstanding ICBs" track
  // At least one slice per scheduler phase kind that a Doall nest exercises.
  for (const char* kind : {"chunk", "search", "exit", "enter", "teardown"}) {
    EXPECT_TRUE(names.count(kind)) << "no slices named " << kind;
  }
}

TEST(TraceExport, EventsCsvHasHeaderAndOneRowPerEvent) {
  const auto prog = program::make_fig1();
  runtime::SchedOptions opts;
  opts.trace_events = true;
  const auto r = runtime::run_vtime(prog, 2, opts);

  std::ostringstream os;
  trace::write_events_csv(r.trace_events, os);
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "worker,kind,loop,ivec_hash,first,count,start,end");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, r.trace_events.size());
}

// ---------------------------------------------------------------- reports --

TEST(TraceExport, CountersReportIsOneLinePerField) {
  trace::Counters c;
  c.dispatches = 42;
  std::ostringstream os;
  trace::write_counters(c, os);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  bool saw_dispatches = false;
  while (std::getline(in, line)) {
    ++lines;
    if (line == "dispatches=42") saw_dispatches = true;
    EXPECT_NE(line.find('='), std::string::npos);
  }
  EXPECT_EQ(lines, counter_field_count());
  EXPECT_TRUE(saw_dispatches);
}

TEST(TraceExport, JsonReportParsesAndCarriesTheMetrics) {
  const auto prog = program::make_fig1();
  runtime::SchedOptions opts;
  const auto r = runtime::run_vtime(prog, 4, opts);

  std::ostringstream os;
  runtime::write_json_report(r, os);
  JValue root;
  ASSERT_NO_THROW(root = JParser(os.str()).parse());
  ASSERT_EQ(root.kind, JValue::kObj);
  for (const char* key :
       {"procs", "makespan", "iterations", "utilization", "speedup", "tau",
        "o1_per_iter", "o2_per_iter", "o3_per_iter", "phases", "ops",
        "counters", "trace_events", "trace_events_dropped"}) {
    EXPECT_TRUE(root.has(key)) << "report missing " << key;
  }
  EXPECT_EQ(root.find("procs")->num, 4.0);
  EXPECT_EQ(root.find("makespan")->num, static_cast<double>(r.makespan));
  const JValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->obj.size(), counter_field_count());
  EXPECT_EQ(root.find("ops")->find("dispatches")->num,
            static_cast<double>(r.total.dispatches));
}

}  // namespace
}  // namespace selfsched
