// What-if trace replay engine (ROADMAP item 5): inverts the postmortem
// analyzer into a counterfactual evaluator. A run that captured its
// offered workload (capture_workload: one kJobSpec event per field per
// subframe, riding in the ordinary trace stream and surviving the CSV
// export) can be re-run through ANY sim scheduler/config in virtual time
// — "would RT-OPEX have saved these misses?" — and the two postmortem
// reports diffed per cause.
//
// Correctness anchor: *self-replay identity*. Replaying a captured trace
// under its own original scheduler/config reproduces the original
// per-cause miss counts exactly, because the capture carries the full
// ground truth of every SubframeWork (sampled costs, iteration draws,
// fault flags, arrival/deadline offsets) and the sim is deterministic.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "obs/analysis/analysis.hpp"
#include "sched/global.hpp"
#include "sched/partitioned.hpp"
#include "sched/rt_opex.hpp"
#include "sim/workload.hpp"

namespace rtopex::obs::analysis {

/// Field vocabulary of kJobSpec events (TraceEvent.a = field id,
/// TraceEvent.b = value, ts = the subframe's radio time). kMeta opens each
/// subframe's record; the remaining fields follow on the same track.
/// Durations are nanoseconds clamped to 32 bits (far above any
/// per-subframe quantity); times are offsets from the radio time so they
/// fit the payload word. The WCET subtask *counts* equal the actual-cost
/// counts (the model derives both from the same MCS), so only the
/// per-subtask durations are carried twice.
enum class JobSpecField : std::uint32_t {
  kMeta = 0,          ///< mcs | lm << 8 | decodable << 16 | lost << 17.
  kIterations,        ///< sampled turbo iterations L.
  kArrivalOffsetNs,   ///< arrival - radio_time.
  kDeadlineOffsetNs,  ///< deadline - radio_time.
  kFftNs,             ///< costs.fft.
  kDemodNs,           ///< costs.demod.
  kDecodeNs,          ///< costs.decode (includes the jitter draw).
  kFftSubtasks,       ///< costs.fft_subtasks == wcet.fft_subtasks.
  kFftSubtaskNs,      ///< costs.fft_subtask.
  kDecodeSubtasks,    ///< costs.decode_subtasks == wcet.decode_subtasks.
  kDecodeSubtaskNs,   ///< costs.decode_subtask.
  kWcetFftNs,         ///< wcet.fft.
  kWcetDemodNs,       ///< wcet.demod.
  kWcetDecodeNs,      ///< wcet.decode.
  kWcetFftSubtaskNs,  ///< wcet.fft_subtask.
  kWcetDecodeSubtaskNs,  ///< wcet.decode_subtask.
  kDecodeOptimisticNs,   ///< decode_optimistic (L = 1 bound).
};

inline constexpr unsigned kNumJobSpecFields = 17;

/// Emits one subframe's kJobSpec record: the 17 fields of `w` on `track`,
/// stamped at its radio time. The capture format's one writer:
/// capture_workload calls it per subframe, and NodeRuntime per processed,
/// dropped, late or lost subframe (its measured costs, or the estimates in
/// force for a subframe it never decoded). The caller owns `track`.
void emit_job_spec(Tracer& tracer, const sim::SubframeWork& w,
                   unsigned track);

/// Emits the full ground truth of `work` as kJobSpec events on `track`
/// (the sim is single-threaded, so any track is a legal producer) and
/// drains the tracer periodically so the capture never overflows a ring.
/// Call before (or after) the scheduler runs over the same tracer — the
/// analyzer ignores kJobSpec, so analyze() output is unaffected.
void capture_workload(Tracer& tracer, std::span<const sim::SubframeWork> work,
                      unsigned track = 0);

/// Rebuilds the offered workload from a captured trace (store order, which
/// preserves the generator's arrival-sorted order). Returns an empty
/// vector when the trace carries no kJobSpec events; throws
/// std::runtime_error on a malformed capture (field before its kMeta).
std::vector<sim::SubframeWork> recover_workload(const TraceStore& store);

/// Scheduler/config to re-run a workload under, in virtual time.
struct ReplayConfig {
  sched::SchedulerKind policy = sched::SchedulerKind::kPartitioned;
  sched::PartitionedConfig partitioned;
  sched::GlobalConfig global;
  sched::RtOpexConfig rtopex;
  /// 0: derived from the workload (max bs + 1).
  unsigned num_basestations = 0;
  /// Tracer sizing for the virtual re-run.
  std::size_t ring_capacity = 1 << 15;
  std::size_t max_stored_events = 4 << 20;
  /// Postmortem options for the replayed trace (pass the config's RTT/2 as
  /// nominal_transport for faithful cloud-tail attribution).
  AnalyzerOptions analyzer;
};

struct ReplayResult {
  AnalysisReport report;          ///< postmortem of the replayed run.
  sim::SchedulerMetrics metrics;  ///< scheduler metrics of the replayed run.
  std::string scheduler_name;
  unsigned num_cores = 0;
};

/// Re-runs `workload` under `config` in virtual time with a fresh tracer
/// and analyzes the resulting trace. The tracer embedded in the policy
/// configs is ignored (replay always uses its own).
ReplayResult replay(std::span<const sim::SubframeWork> workload,
                    const ReplayConfig& config);

/// recover_workload() + replay(). Throws std::runtime_error when the trace
/// carries no workload capture.
ReplayResult replay(const TraceStore& captured, const ReplayConfig& config);

/// Per-cause and headline-counter difference of two postmortem reports
/// (replayed - baseline). Horizon and utilization are excluded: they
/// depend on tracer wall-clock details, not scheduling outcomes.
struct ReportDelta {
  std::array<long long, kNumMissCauses> cause_delta{};
  long long subframes = 0;
  long long completed = 0;
  long long misses = 0;
  long long lost = 0;
  long long late = 0;
  long long dropped = 0;
  long long terminated = 0;
  long long degraded = 0;

  bool empty() const {
    for (const long long d : cause_delta)
      if (d != 0) return false;
    return subframes == 0 && completed == 0 && misses == 0 && lost == 0 &&
           late == 0 && dropped == 0 && terminated == 0 && degraded == 0;
  }
};

ReportDelta diff_reports(const AnalysisReport& baseline,
                         const AnalysisReport& replayed);

/// Single-line JSON rendering of a delta (cause names as keys).
std::string delta_json(const ReportDelta& delta);

}  // namespace rtopex::obs::analysis
