// Core pin-set parsing for the runtime's placement options.
//
// A pin set is written in the kernel's cpulist syntax ("0-3,8,10-11"), the
// format `taskset -c` takes. Pinning itself stays best-effort
// (common/thread_utils.hpp): a denied pin downgrades to an unpinned thread,
// never to an error.
#pragma once

#include <string_view>
#include <vector>

namespace rtopex::runtime {

/// Parses a kernel cpulist string ("0-3,8,10-11") into sorted CPU ids.
/// Malformed fragments are skipped rather than thrown: the valid remainder
/// survives, and the caller checks that it covers every worker.
std::vector<unsigned> parse_cpulist(std::string_view text);

}  // namespace rtopex::runtime
