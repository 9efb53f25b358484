#include "runtime/affinity.hpp"

#include <algorithm>
#include <charconv>

namespace rtopex::runtime {
namespace {

bool parse_unsigned(std::string_view s, unsigned& out) {
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\n' ||
                        s.front() == '\t' || s.front() == '\r'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\n' ||
                        s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

}  // namespace

std::vector<unsigned> parse_cpulist(std::string_view text) {
  std::vector<unsigned> cpus;
  std::string_view rest = trim(text);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view item = trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t dash = item.find('-');
    unsigned lo = 0, hi = 0;
    if (dash == std::string_view::npos) {
      if (!parse_unsigned(item, lo)) continue;
      hi = lo;
    } else {
      if (!parse_unsigned(trim(item.substr(0, dash)), lo) ||
          !parse_unsigned(trim(item.substr(dash + 1)), hi) || hi < lo)
        continue;
    }
    // Guard against a corrupt range exploding the list.
    if (hi - lo > 4096) continue;
    for (unsigned c = lo; c <= hi; ++c) cpus.push_back(c);
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

}  // namespace rtopex::runtime
