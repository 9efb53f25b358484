// Public facade: one-call experiment runner combining workload generation,
// transport model and scheduler policy. This is the API the examples and the
// benchmark harness drive.
#pragma once

#include <memory>
#include <string>

#include "model/timing_model.hpp"
#include "sched/global.hpp"
#include "sched/partitioned.hpp"
#include "sched/rt_opex.hpp"
#include "sim/metrics.hpp"
#include "sim/workload.hpp"

namespace rtopex::core {

using sched::SchedulerKind;
using sched::to_string;

struct ExperimentConfig {
  sim::WorkloadConfig workload;

  /// Budgeted one-way transport delay (RTT/2). With `stochastic_transport`
  /// false this is also the exact per-subframe delay (the paper's §4.2
  /// fixed-transport evaluation); with it true, a fronthaul + cloud-network
  /// model centred near this value is used instead.
  Duration rtt_half = microseconds(500);
  bool stochastic_transport = false;

  SchedulerKind scheduler = SchedulerKind::kRtOpex;
  sched::GlobalConfig global;   ///< consulted for kGlobal.
  sched::RtOpexConfig rtopex;   ///< consulted for kRtOpex (rtt_half synced).

  /// Graceful degradation, applied to whichever scheduler runs (fronthaul
  /// faults live in `workload.fronthaul_faults` — they are a property of
  /// the generated arrivals, not of the scheduler).
  sched::DegradeConfig degrade;

  /// Online adaptive estimation, applied to whichever scheduler runs. The
  /// Eq. (1) regressor context (antennas, PRBs, iteration cap) is synced
  /// from `workload` automatically — set only `adaptive.enabled`.
  sched::AdaptiveConfig adaptive;

  model::TimingModel timing = model::paper_gpp_model();
  model::IterationModelParams iteration;
  model::PlatformErrorParams platform_error;

  /// Fill the raw gap_us / processing_time_us sample vectors in addition to
  /// the bounded histograms (forwarded to whichever scheduler runs).
  bool record_samples = false;
  /// Optional trace sink, forwarded to whichever scheduler runs. Needs at
  /// least as many tracks as that scheduler's num_cores().
  obs::Tracer* tracer = nullptr;
};

struct ExperimentResult {
  sim::SchedulerMetrics metrics;
  std::string scheduler_name;
  unsigned num_cores = 0;
};

/// Generates the workload and runs the selected scheduler over it.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Runs the scheduler over a pre-generated workload (reuse one workload
/// across scheduler comparisons for paired evaluation).
ExperimentResult run_scheduler(const ExperimentConfig& config,
                               std::span<const sim::SubframeWork> work);

/// Builds the workload for a config (sorted by arrival).
std::vector<sim::SubframeWork> make_workload(const ExperimentConfig& config);

}  // namespace rtopex::core
