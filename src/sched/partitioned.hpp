// Partitioned scheduler (paper §3.1.1): an offline schedule that maps
// basestation i's subframe j to core i * ceil(Tmax) + (j mod ceil(Tmax)),
// giving each subframe ceil(Tmax) milliseconds of exclusive core time.
// Gaps left by early-finishing subframes are not reused.
//
// PartitionedConfig is also the partition RT-OPEX runs on (RtOpexConfig
// extends it): the two schedulers share its fields, its validation, its
// core_of and its subframe-to-core assignment.
#pragma once

#include "obs/tracer.hpp"
#include "sched/failover.hpp"
#include "sched/scheduler.hpp"

namespace rtopex::sched {

struct PartitionedConfig {
  /// Budgeted one-way transport delay; Tmax = 2 ms - rtt_half (Eq. 3).
  Duration rtt_half = microseconds(500);
  /// Slack-check prediction for the decode task (paper: WCET).
  AdmissionPolicy admission = AdmissionPolicy::kWcet;
  /// Populate SchedulerMetrics::timeline (costs memory on big runs).
  bool record_timeline = false;
  /// Graceful degradation on a failed decode slack check.
  DegradeConfig degrade;
  /// Online adaptive decode-admission estimation (off: static WCET seeds).
  AdaptiveConfig adaptive;
  /// Fill the raw gap_us / processing_time_us sample vectors in addition to
  /// the bounded histograms (costs memory on big runs).
  bool record_samples = false;
  /// Injected fail-stop core failures, with PR-2 round-robin repartition
  /// semantics (see sched/failover.hpp).
  std::vector<CoreFailure> core_failures;
  /// Core slots in the offline partition never backed by a physical core;
  /// their subframes fold onto the provisioned cores from t = 0, silently.
  /// The cluster layer re-homes a dead node's basestations through this.
  std::vector<unsigned> unprovisioned_cores;
  /// Optional trace sink: virtual-time-stamped events on track = core id.
  /// Needs at least num_cores() tracks; drained once per subframe.
  obs::Tracer* tracer = nullptr;

  /// Cores per basestation: ceil(Tmax in ms). For the paper's sweep
  /// (RTT/2 in 0.4–0.7 ms) this is always 2.
  unsigned cores_per_bs() const {
    const Duration tmax = kEndToEndBudget - rtt_half;
    return static_cast<unsigned>((tmax + kSubframePeriod - 1) /
                                 kSubframePeriod);
  }

  /// The offline mapping: subframe j of basestation i -> core id.
  unsigned core_of(unsigned bs, std::uint32_t subframe_index) const {
    const unsigned c = cores_per_bs();
    return bs * c + subframe_index % c;
  }

  /// Throws std::invalid_argument unless the partition of
  /// `num_basestations` basestations is well formed: at least one
  /// basestation, rtt_half in [0, 2 ms), and every failed or unprovisioned
  /// core inside it.
  void validate(unsigned num_basestations) const;

  /// Fills `assign` (subframe i of `active` -> core) with the offline
  /// partition, then lets the shared outage machinery fold unprovisioned
  /// slots onto real cores and repartition each failed core's subframes
  /// across survivors (sched/failover.hpp). Returns the per-core fail
  /// instants. Throws on a basestation id outside the partition.
  std::vector<TimePoint> assign_cores(std::span<const sim::SubframeWork> active,
                                      unsigned num_basestations,
                                      std::vector<unsigned>& assign,
                                      sim::SchedulerMetrics& metrics) const;
};

class PartitionedScheduler final : public NodeScheduler {
 public:
  PartitionedScheduler(unsigned num_basestations, const PartitionedConfig& cfg);

  sim::SchedulerMetrics run(std::span<const sim::SubframeWork> work) override;

  unsigned num_cores() const override {
    return num_basestations_ * config_.cores_per_bs();
  }
  const char* name() const override { return "partitioned"; }

 private:
  unsigned num_basestations_;
  PartitionedConfig config_;
};

}  // namespace rtopex::sched
