#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

using selfsched::i64;

i64 SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int SpanLog::begin(const char* name, u64 op, int parent, u32 track) {
  if (!enabled_) return -1;
  const i64 t = now_ns();
  spans_.push_back({name, op, parent, track, t, t});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

std::vector<SpanLog::SelfTime> SpanLog::self_times() const {
  std::vector<std::vector<std::pair<i64, i64>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    i64 covered = 0;
    i64 reach = s.start_ns;
    for (const auto& [b, e] : kids) {
      const i64 lo = std::max(b, reach);
      const i64 hi = std::min(e, s.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(e, s.end_ns));
    }
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    t.count++;
    const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    t.total_ms += dur_ms;
    t.self_ms += dur_ms - static_cast<double>(covered) * 1e-6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  return out;
}

void SpanLog::write_chrome_trace(std::ostream& os,
                                 const std::string& metadata_json) const {
  os << "{\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"span\":%zu,\"parent\":%d}}%s\n",
                  s.name, s.track, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.op), i, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    os << buf;
  }
  os << "],\"displayTimeUnit\":\"ns\",\"otherData\":" << metadata_json
     << "}\n";
}

}  // namespace perfbench
