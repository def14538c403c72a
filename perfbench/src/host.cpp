#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstring>
#include <string>

namespace perfbench {

namespace {

// Everything here comes from system calls and the CPUID instruction: the
// benchmark reads no file outside its checkout.

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  s.erase(s.find_last_not_of(' ') + 1);
  return s;
#else
  return "unknown";
#endif
}

/// sysconf cache size in KiB (0 when the C library cannot tell).
selfsched::u64 cache_kb(int name) {
  const long bytes = sysconf(name);
  return bytes > 0 ? static_cast<selfsched::u64>(bytes) / 1024 : 0;
}

}  // namespace

Host probe_host() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? static_cast<selfsched::u32>(CPU_COUNT(&set))
                : 1;
  h.cpu_model = cpu_model();
  h.l2_kb = cache_kb(_SC_LEVEL2_CACHE_SIZE);
  h.l3_kb = cache_kb(_SC_LEVEL3_CACHE_SIZE);
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
  h.optimized = true;
#endif
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
