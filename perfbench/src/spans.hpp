// In-memory spans around the benchmark's calls into each layer.  Spans of
// one operation share an op id and each names the span that caused it; the
// log is written once at exit as Chrome trace-event JSON (the format
// trace/export.hpp emits for scheduler events) and folded into per-layer
// self times.  One writer thread.
#pragma once

#include <chrono>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using selfsched::u32;
using selfsched::u64;

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Open a span; returns its handle (-1 when the log is disabled).  `track`
  /// is the trace-viewer row: spans on one track must nest.
  int begin(const char* name, u64 op, int parent = -1, u32 track = 0);
  void end(int span);

  /// Per span name: count, total duration and self time — duration minus
  /// the part of it that the span's own children cover.
  struct SelfTime {
    std::string name;
    u64 count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::vector<SelfTime> self_times() const;

  /// Chrome trace-event JSON: one complete ("X") event per span, with its
  /// op id and parent in args; `metadata_json` (a JSON object) goes under
  /// "otherData".
  void write_chrome_trace(std::ostream& os,
                          const std::string& metadata_json) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    const char* name;
    u64 op;
    int parent;
    u32 track;
    selfsched::i64 start_ns;
    selfsched::i64 end_ns;
  };

  selfsched::i64 now_ns() const;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on scope exit.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, u64 op, int parent = -1,
            u32 track = 0)
      : log_(log), id_(log.begin(name, op, parent, track)) {}
  ~SpanScope() { log_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
