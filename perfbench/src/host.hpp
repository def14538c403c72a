// Host and build fingerprint stamped on every result, plus the process
// measurements the end-to-end report needs.
#pragma once

#include <string>
#include <string_view>

#include "common/types.hpp"

namespace perfbench {

struct Host {
  selfsched::u32 nproc = 0;  // CPUs this process may run on
  std::string cpu_model;
  selfsched::u64 l2_kb = 0;
  selfsched::u64 l3_kb = 0;
  std::string compiler;
  std::string build_type;
  bool optimized = false;  // compiled with optimization enabled
};

Host probe_host();

/// Peak resident set size of this process so far (ru_maxrss), in MiB.
double peak_rss_mb();

/// `s` as a quoted, escaped JSON string.
std::string json_string(std::string_view s);

}  // namespace perfbench
