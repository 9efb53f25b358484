// Reloads the flat CSV written by obs::write_trace_csv back into a
// TraceStore, so the analyzer (and the rtopex_analyze CLI) can run on an
// exported trace file long after the run that produced it.
//
// The format is the one version write_trace_csv emits: header first column
// "ts_ns_v3"; after the events, per-track ring-drop rows (kind =
// kTraceCsvTrackDropsKind, core = track, a = that ring's drops) and a
// footer sentinel (kind = kTraceCsvFooterKind) carrying the event count and
// the ring/store drop counters. Any other header is rejected, and so is a
// file with a missing footer or a mismatched count: its tail was cut off.
#include <cmath>
#include <stdexcept>

#include "common/csv.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/chrome_trace.hpp"

namespace rtopex::obs::analysis {

namespace {

std::int64_t as_i64(double v) { return std::llround(v); }

std::uint32_t as_u32(double v) {
  const std::int64_t n = std::llround(v);
  if (n < 0 || n > 0xffffffffLL)
    throw std::runtime_error("load_trace_csv: field out of 32-bit range");
  return static_cast<std::uint32_t>(n);
}

}  // namespace

TraceStore load_trace_csv(const std::string& path) {
  CsvTable table = read_csv(path);

  // Version gate on the first header column. Headerless files (or files
  // whose first row parsed as data) are rejected outright.
  if (table.header.empty())
    throw std::runtime_error("load_trace_csv: missing header in " + path);
  const std::string& version = table.header.front();
  if (version != "ts_ns_v3")
    throw std::runtime_error("load_trace_csv: unknown trace CSV version \"" +
                             version + "\" in " + path);

  // The footer must be the last row; anything else means the file lost its
  // tail (truncated download, interrupted writer, ...).
  if (table.rows.empty() || table.rows.back().size() != 8 ||
      as_u32(table.rows.back()[2]) != kTraceCsvFooterKind)
    throw std::runtime_error(
        "load_trace_csv: trace CSV footer missing (file truncated?): " + path);
  TraceStore store;
  const std::vector<double>& footer = table.rows.back();
  const std::uint64_t expected = static_cast<std::uint64_t>(as_i64(footer[0]));
  store.ring_drops = as_u32(footer[6]);
  store.store_drops = as_u32(footer[7]);
  table.rows.pop_back();
  // Per-track ring-drop rows sit just before the footer.
  while (!table.rows.empty() && table.rows.back().size() == 8 &&
         as_u32(table.rows.back()[2]) == kTraceCsvTrackDropsKind) {
    const std::vector<double>& row = table.rows.back();
    const std::uint32_t track = as_u32(row[1]);
    if (store.ring_drops_per_track.size() <= track)
      store.ring_drops_per_track.resize(track + 1, 0);
    store.ring_drops_per_track[track] = as_u32(row[6]);
    table.rows.pop_back();
  }
  if (table.rows.size() != expected)
    throw std::runtime_error(
        "load_trace_csv: event count mismatch (footer says " +
        std::to_string(expected) + ", file has " +
        std::to_string(table.rows.size()) + "): " + path);

  store.events.reserve(table.rows.size());
  for (const std::vector<double>& row : table.rows) {
    if (row.size() != 8)
      throw std::runtime_error("load_trace_csv: expected 8 columns in " +
                               path);
    TraceEvent ev;
    ev.ts = as_i64(row[0]);
    ev.core = as_u32(row[1]);
    const std::uint32_t kind = as_u32(row[2]);
    if (kind > static_cast<std::uint32_t>(EventKind::kAlertClear))
      throw std::runtime_error("load_trace_csv: unknown event kind in " +
                               path);
    ev.kind = static_cast<EventKind>(kind);
    const std::uint32_t stage = as_u32(row[3]);
    if (stage >= kNumStages)
      throw std::runtime_error("load_trace_csv: unknown stage in " + path);
    ev.stage = static_cast<Stage>(stage);
    ev.bs = as_u32(row[4]);
    ev.index = as_u32(row[5]);
    ev.a = as_u32(row[6]);
    ev.b = as_u32(row[7]);
    store.events.push_back(ev);
  }
  return store;
}

}  // namespace rtopex::obs::analysis
