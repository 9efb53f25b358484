// Real-thread C-RAN compute node: pinned 1:1 worker threads, a 1 ms
// transport ticker, semaphore handshakes, the shared CPU-state table and the
// migration mailboxes — the paper's implementation layer (§4.1), driving the
// real PHY chain from src/phy.
//
// Scope note (DESIGN.md §2): this runtime demonstrates and tests the
// *mechanisms* (partitioned/global dispatch, subtask migration with result
// flags and recovery) with real decoding work. Multicore wall-clock numbers
// are only meaningful on a multicore host; the virtual-time simulator in
// src/sim is the substrate used to regenerate the paper's figures.
//
// Every mode runs the same worker loop over the same job queue type; only
// the wait differs (an RT-OPEX worker polls and hosts migrated chunks while
// idle, the others block). Each worker pre-warms its own thread's decode
// workspace on its own pinned thread before the schedule starts, so first
// touch places the pages on its NUMA node and no subframe grows scratch
// memory mid-schedule.
//
// One deliberate divergence from the paper's state machine: a hosting core
// finishes the migrated subtask it is executing before it switches to a
// newly arrived subframe of its own (preemption happens between subtasks,
// not within one). Subtask claiming is per-index via a shared atomic, so
// local recovery and the remote host never execute the same subtask twice.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/resilience.hpp"
#include "common/time_types.hpp"
#include "obs/health/health.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profile/profile.hpp"
#include "obs/tracer.hpp"
#include "phy/uplink_rx.hpp"
#include "sched/scheduler.hpp"
#include "transport/transport.hpp"

namespace rtopex::runtime {

enum class RuntimeMode { kPartitioned, kGlobal, kRtOpex };

/// Degraded-mode and failure-handling knobs. All default to off so existing
/// configurations behave exactly as before.
struct ResilienceConfig {
  /// Ticker-side watchdog: a worker with queued work whose heartbeat has not
  /// advanced for `watchdog_timeout` is declared dead; its basestation slots
  /// are repartitioned round-robin across the survivors and its queued jobs
  /// requeued. Requires >= 2 workers to do anything.
  bool enable_watchdog = false;
  Duration watchdog_timeout = milliseconds(20);

  /// Graceful degradation, the same sched::DegradeConfig the sim schedulers
  /// take: when the full-quality slack check fails, sched::admit_decode
  /// retries with the turbo-iteration cap shrunk (down to min_iterations,
  /// which must lie in [1, Lm) when enabled) before dropping the subframe.
  sched::DegradeConfig degrade;

  /// Bound on the migration-recovery completion-flag wait. Zero means wait
  /// forever (the pre-resilience behaviour). On expiry the migrator checks
  /// whether the hosting worker died and, if so, re-executes the unfinished
  /// subtasks itself.
  Duration completion_flag_timeout = 0;

  /// Fronthaul loss / late-delivery process applied by the ticker.
  transport::FronthaulFaultParams fronthaul_faults;
};

/// Throughput-mode knobs (FlexRAN-style batched operation). Defaults keep
/// the original latency-oriented behaviour bit-for-bit.
///
/// Batching applies to partitioned and global mode: a worker
/// opportunistically drains up to `batch` already-queued subframes per
/// pass, runs each through FFT/demod, then decodes all their code blocks in
/// one cross-subframe SoA batch (UplinkRxProcessor::run_decode_batch) so
/// blocks from different basestations fill out SIMD lanes a single
/// subframe would leave empty. Draining never waits for more jobs, so an
/// underloaded node degenerates to batch-of-1 and adds no latency. RT-OPEX
/// mode rejects batch > 1: its migration protocol claims decode subtasks
/// per-block across cores, which is exactly the granularity batching fuses
/// away.
struct ThroughputConfig {
  /// Max subframes decoded per worker pass (1 = off; capped at 16 by the
  /// cross-subframe batch decoder).
  unsigned batch = 1;
  /// Dedicated ticker core: the thread calling run() pins itself here
  /// before starting the schedule (-1 = leave it unpinned).
  int ticker_core = -1;
  /// Explicit worker pin set: worker i runs on worker_cores[i]. Empty
  /// falls back to the legacy id-modulo-cores placement. When non-empty it
  /// must list at least one core per worker (validated). A pinned worker
  /// pre-warms its workspace after pinning, so its pages are node-local.
  std::vector<unsigned> worker_cores;
};

/// Validated by the NodeRuntime constructor: at least one basestation,
/// subframe and worker core; a non-empty `mcs_cycle` of valid MCS indices;
/// positive period and budget; and `rtt_half` in [0, deadline_budget) —
/// anything else throws std::invalid_argument instead of hanging a worker.
struct RuntimeConfig {
  RuntimeMode mode = RuntimeMode::kRtOpex;
  unsigned num_basestations = 2;
  unsigned cores_per_bs = 2;     ///< partitioned/rt-opex cores per BS.
  unsigned global_cores = 4;     ///< worker count in global mode.
  std::size_t subframes_per_bs = 20;

  /// Real-time pacing. On slow or single-core hosts, scale the period up so
  /// that processing fits; the deadline budget scales alongside.
  Duration subframe_period = milliseconds(1);
  Duration deadline_budget = milliseconds(2);
  Duration rtt_half = microseconds(500);  ///< emulated transport delay.

  double snr_db = 30.0;
  /// MCS sequence cycled across ticks (per basestation, offset by BS id).
  std::vector<unsigned> mcs_cycle = {4, 16, 27};

  phy::UplinkConfig phy;          ///< antennas, bandwidth, Lm.
  /// Seeds of the run's one stage-estimate state (model::OnlineEstimators):
  /// its per-FFT-subtask, demod and per-code-block decode trackers start
  /// here, and every measured stage moves them a quarter of the way toward
  /// the sample. The paper's testbed seeds these from offline WCET
  /// profiling; deploys on different hardware should calibrate them (all
  /// must be positive).
  Duration initial_fft_subtask_est = microseconds(50);
  Duration initial_decode_subtask_est = microseconds(500);
  Duration initial_demod_est = microseconds(500);
  /// Slack-check dropping (paper §4.1): before the FFT, the estimated stage
  /// times go through sched::admit_decode, the admission rule the sim
  /// schedulers share, which drops the subframe (or, with
  /// resilience.degrade, caps its turbo iterations) when it cannot fit.
  /// Disabled configs admit everything at full quality and only record
  /// misses.
  bool enforce_deadlines = true;
  /// Online adaptive estimation (opt-in): the shared state's per-basestation
  /// turbo-iteration predictors and streaming Eq. (1) decode fit sharpen
  /// the slack check. The tracker figures stay in force until the fit warms
  /// up; with `adaptive` false the fit is never consulted.
  bool adaptive = false;
  bool pin_threads = false;       ///< attempt CPU affinity (best effort).
  std::uint64_t seed = 1;

  ResilienceConfig resilience;

  ThroughputConfig throughput;

  /// Tracing. When enabled, each worker thread emits TraceEvents onto its
  /// own SPSC track; the transport ticker owns a dedicated extra track
  /// (index = worker count) and is the sole collector, draining every ring
  /// once per tick. The drained store is returned in RuntimeReport::trace.
  obs::TraceConfig trace;

  /// Periodic Prometheus snapshots: every `metrics_period` of run time the
  /// ticker renders the live (lock-free readable) counters and hands the
  /// text to `metrics_sink`. Zero period or a null sink disables this; the
  /// full post-run snapshot comes from fill_registry() below either way.
  Duration metrics_period = 0;
  std::function<void(const std::string&)> metrics_sink;

  /// Live SLO/alerting engine (obs/health) fed by the ticker from the same
  /// event stream the trace records — enabling it implies the internal
  /// tracer even when `trace.enabled` is false (the report's trace stays
  /// empty then). Alerts ride the ticker track as kAlert/kAlertClear
  /// events; live snapshots land in the metrics_sink stream, final state
  /// in RuntimeReport::alerts / RuntimeReport::health. Wall-clock periods
  /// slower than the 1 ms default should scale the windows alongside.
  obs::health::HealthConfig health;

  /// Continuous profiling (obs/profile). When enabled, every stage section
  /// a worker executes — the fft/demod/decode stages of a subframe and the
  /// hosted migration chunks — runs inside a profile span carrying hardware
  /// counter deltas (perf_event_open when permitted, the portable
  /// thread-CPU/rusage fallback otherwise), stamped at the StageScope edges
  /// that stamp the trace. Each worker owns one track (SPSC, same contract
  /// as the tracer); the drained samples are returned in
  /// RuntimeReport::profile after the workers have joined.
  obs::profile::ProfileConfig profile;
};

struct StageTiming {
  Duration fft = 0;
  Duration demod = 0;
  Duration decode = 0;
  unsigned fft_migrated = 0;     ///< subtasks executed on remote cores.
  unsigned decode_migrated = 0;
  unsigned recovered = 0;        ///< subtasks recovered locally.
};

struct SubframeRecord {
  unsigned bs = 0;
  std::uint32_t index = 0;
  unsigned mcs = 0;
  TimePoint radio_time = 0;
  TimePoint arrival = 0;     ///< when the job became available to a worker.
  TimePoint start = 0;       ///< when a worker began processing.
  TimePoint completion = 0;
  bool crc_ok = false;
  unsigned iterations = 0;
  bool deadline_missed = false;
  bool dropped = false;  ///< rejected by a slack check; never decoded.
  bool lost = false;          ///< fronthaul loss: never reached the node.
  bool late_arrival = false;  ///< arrived after its deadline had passed.
  DegradeLevel degrade = DegradeLevel::kNone;
  StageTiming timing;
};

struct RuntimeReport {
  std::vector<SubframeRecord> records;
  std::size_t deadline_misses = 0;
  std::size_t dropped = 0;       ///< slack-check rejections (subset of misses).
  std::size_t crc_failures = 0;  ///< decode failures among processed subframes.
  std::size_t migrations = 0;  ///< migrated subtasks (fft + decode).
  std::size_t recoveries = 0;
  /// Subframes whose decode ran inside a cross-subframe batch of >= 2
  /// (throughput mode only; zero whenever ThroughputConfig::batch <= 1).
  std::size_t batched_subframes = 0;
  ResilienceMetrics resilience;
  /// Drained trace events (empty unless RuntimeConfig::trace.enabled).
  obs::TraceStore trace;
  /// Health engine outputs (empty unless RuntimeConfig::health.enabled).
  std::vector<obs::health::Alert> alerts;
  obs::health::HealthSnapshot health;
  /// Drained profile samples (empty unless RuntimeConfig::profile.enabled).
  obs::profile::ProfileStore profile;
};

/// Renders the full post-run report as Prometheus metrics: subframe /
/// miss / migration counters, resilience counters, per-stage latency
/// histograms built from the subframe records, and trace-loss counters.
void fill_registry(const RuntimeReport& report, obs::MetricsRegistry& registry);

class NodeRuntime {
 public:
  explicit NodeRuntime(const RuntimeConfig& config);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Runs the configured workload to completion and returns the report.
  /// Worker setup (job buffers, workspace pre-warm) runs inside run(),
  /// before the schedule's epoch: it is charged to no subframe, but a
  /// caller timing run() sees it.
  RuntimeReport run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rtopex::runtime
