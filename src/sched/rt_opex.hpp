// RT-OPEX (paper §3.2): partitioned scheduling underneath, plus
// opportunistic runtime migration of parallelizable subtasks (FFT and turbo
// code blocks) into the idle gaps of other cores, planned by Algorithm 1
// and guarded by the recovery path. It runs the partitioned scheduler's
// partition (RtOpexConfig extends PartitionedConfig) and the sim's one
// stage chain (sched/serial_exec.hpp); what it adds is how the chain's FFT
// and decode execute.
//
// Semantics implemented (faithful to the paper's state machine, Fig. 12):
//  * Migration decisions use the *predicted* preemption time of each idle
//    core (the nominal arrival of its next partitioned subframe); actual
//    arrivals can differ (transport jitter), in which case the migrated
//    subtask is preempted and its result flag stays "not ready".
//  * When the local core finishes its local subtasks, any migrated subtask
//    without a ready result is recomputed locally (recovery) — the local
//    core never waits on a remote, so RT-OPEX is never slower than the
//    no-migration baseline (the paper's key guarantee).
//  * A migrated chunk pays the migration cost delta once on arrival at the
//    remote core (shared-memory state fetch, Fig. 18 ~20 us), while
//    Algorithm 1 budgets delta per subtask as printed in the paper —
//    planning is therefore slightly conservative.
//
// How the partition's shared fields read under RT-OPEX:
//  * admission: under kWcet the decode slack check runs *after* migration
//    planning, against the post-migration local worst case — which is
//    exactly how RT-OPEX admits (and saves) high-MCS subframes the
//    partitioned scheduler must drop.
//  * degrade: when that check fails, a capped decode runs serially on its
//    own core (migration plans assume full-quality subtask times).
//  * adaptive: Algorithm-1 migration chunks are sized with the learned
//    per-code-block decode time (EWMA over executed subtask durations)
//    instead of the fixed WCET constant, and the post-migration admission
//    estimate is built from it.
//  * core_failures, unprovisioned_cores: such cores are never migration
//    targets.
//  * tracer: offloads carry flow metadata; host spans land on the remote
//    track.
#pragma once

#include "sched/migration.hpp"
#include "sched/partitioned.hpp"

namespace rtopex::sched {

struct RtOpexConfig : PartitionedConfig {
  /// Per-chunk migration cost delta (paper Fig. 18: ~20 us).
  Duration migration_cost = microseconds(20);
  bool migrate_fft = true;
  bool migrate_decode = true;
  /// Algorithm 1 constraint toggles (ablation; defaults are the paper's).
  MigrationConstraints constraints;
  /// Ablation: with recovery disabled, the local core waits for its
  /// migrated chunks instead of recomputing them, and a chunk preempted
  /// before it finished makes the subframe unrecoverable (a miss that is
  /// not a termination).
  bool enable_recovery = true;
};

class RtOpexScheduler final : public NodeScheduler {
 public:
  RtOpexScheduler(unsigned num_basestations, const RtOpexConfig& cfg);

  sim::SchedulerMetrics run(std::span<const sim::SubframeWork> work) override;

  unsigned num_cores() const override {
    return num_basestations_ * config_.cores_per_bs();
  }
  const char* name() const override { return "rt-opex"; }

 private:
  unsigned num_basestations_;
  RtOpexConfig config_;
};

}  // namespace rtopex::sched
