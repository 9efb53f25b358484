// ClusterSim: the failure-aware control plane (placement, heartbeat
// detection, re-homing, shedding, rebalancing) runs as a deterministic
// pre-pass over the arrival-sorted cluster workload, deciding every
// subframe's disposition — dispatch to a node, shed at ingress, or lost in
// a dead node's detection window. Each node then runs its slice through an
// unchanged per-node scheduler in shared virtual time (timestamps are
// cluster-global), and the per-node traces merge back into one store with
// disjoint track ranges and global basestation ids.
//
// Failure semantics mirror PR-2 one level up: a subframe that arrived
// before the fail instant is processed (failure is detected between jobs,
// like the runtime watchdog's kill semantics); arrivals inside the
// detection window are lost-and-attributed; arrivals after detection follow
// the basestation to its re-homed survivor, which hosts them on
// unprovisioned core slots (sched/failover.hpp) so the survivor's own
// capacity absorbs the extra load.
#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "model/online_fit.hpp"
#include "obs/analysis/replay.hpp"
#include "phy/lte_params.hpp"
#include "sched/failover.hpp"
#include "sim/metrics.hpp"

namespace rtopex::cluster {

namespace {

/// One validated, deduplicated node failure with its detection instant.
struct FailureEvent {
  unsigned node = 0;
  TimePoint at = 0;
  TimePoint detected_at = 0;
};

/// What the control pass decided for one node.
struct NodePlan {
  std::vector<unsigned> residents;       ///< global bs ids, ascending.
  std::vector<unsigned> local_to_global; ///< residents, then adopted.
  std::vector<sim::SubframeWork> slice;  ///< local-bs workload.
  TimePoint failed_at = -1;
  TimePoint detected_at = -1;
};

/// Recovery bookkeeping for one detected failure.
struct RehomeRecord {
  FailureEvent failure;
  /// (global bs, new node) pairs re-homed at detection.
  std::vector<std::pair<unsigned, unsigned>> moves;
};

}  // namespace

unsigned ClusterSim::cores_per_bs() const {
  sched::PartitionedConfig partition;
  partition.rtt_half = node_config_.rtt_half;
  return partition.cores_per_bs();
}

ClusterSim::ClusterSim(const core::ExperimentConfig& node_config,
                       const ClusterConfig& cluster_config)
    : node_config_(node_config),
      cluster_(cluster_config),
      num_bs_(node_config.workload.num_basestations) {
  if (cluster_.num_nodes == 0)
    throw std::invalid_argument("ClusterConfig: zero nodes");
  if (num_bs_ == 0)
    throw std::invalid_argument(
        "ClusterConfig: no basestations to place (empty placement)");
  if (!cluster_.explicit_placement.empty()) {
    if (cluster_.explicit_placement.size() != num_bs_)
      throw std::invalid_argument(
          "ClusterConfig: explicit placement must cover every basestation");
    for (const unsigned n : cluster_.explicit_placement)
      if (n >= cluster_.num_nodes)
        throw std::invalid_argument(
            "ClusterConfig: explicit placement names an invalid node");
  }
  if (cluster_.heartbeat_period <= 0)
    throw std::invalid_argument("ClusterConfig: heartbeat period must be > 0");
  if (cluster_.detection_timeout <= 0)
    throw std::invalid_argument(
        "ClusterConfig: detection timeout must be > 0");
  if (cluster_.heartbeat_period >= cluster_.detection_timeout)
    throw std::invalid_argument(
        "ClusterConfig: heartbeat period must be shorter than the detection "
        "timeout");
  if (!(cluster_.shed_threshold > 0.0 && cluster_.shed_threshold <= 1.0))
    throw std::invalid_argument(
        "ClusterConfig: shed threshold outside (0, 1]");
  for (const NodeFailure& f : cluster_.failures) {
    if (f.node >= cluster_.num_nodes)
      throw std::invalid_argument(
          "ClusterConfig: failure names an invalid node");
    if (f.at < 0)
      throw std::invalid_argument(
          "ClusterConfig: failure instant must be >= 0");
  }
  if (cluster_.rebalance_enabled) {
    if (cluster_.rebalance_period <= 0)
      throw std::invalid_argument(
          "ClusterConfig: rebalance period must be > 0");
    if (!(cluster_.hotspot_utilization > 0.0 &&
          cluster_.hotspot_utilization <= 1.0))
      throw std::invalid_argument(
          "ClusterConfig: hotspot utilization outside (0, 1]");
  }
  if (!(cluster_.load_alpha > 0.0 && cluster_.load_alpha <= 1.0))
    throw std::invalid_argument("ClusterConfig: load alpha outside (0, 1]");
  if (cluster_.health.enabled) cluster_.health.validate();
}

ClusterResult ClusterSim::run() {
  const auto work = core::make_workload(node_config_);
  return run(work);
}

ClusterResult ClusterSim::run(std::span<const sim::SubframeWork> work) {
  const unsigned M = cluster_.num_nodes;
  const unsigned cpb = cores_per_bs();
  // Health needs the event stream, so enabling it implies tracing.
  const bool tracing = cluster_.trace.enabled || cluster_.health.enabled;

  ClusterResult result;
  result.placement = make_placement(cluster_, num_bs_, work);
  ClusterMetrics& agg = result.metrics;
  agg.offered = work.size();

  // --- Control-plane state -------------------------------------------------
  std::vector<NodePlan> plans(M);
  for (unsigned bs = 0; bs < num_bs_; ++bs)
    plans[result.placement[bs]].residents.push_back(bs);
  std::vector<std::vector<int>> local_id(M, std::vector<int>(num_bs_, -1));
  for (unsigned n = 0; n < M; ++n) {
    plans[n].local_to_global = plans[n].residents;
    for (unsigned i = 0; i < plans[n].residents.size(); ++i)
      local_id[n][plans[n].residents[i]] = static_cast<int>(i);
  }
  // Fixed provisioned capacity per node: its residents' cores. Adopted
  // basestations ride unprovisioned slots and never add capacity.
  auto capacity_ns = [&](unsigned n) {
    return static_cast<Duration>(plans[n].residents.size()) * cpb *
           kSubframePeriod;
  };

  std::vector<unsigned> home = result.placement;
  std::vector<TimePoint> rehome_time(num_bs_, -1);
  std::vector<unsigned> rehome_from(num_bs_, 0);
  std::vector<bool> declared_dead(M, false);
  std::vector<TimePoint> fail_at(M, -1);

  // First failure per node wins; detection at the first heartbeat check at
  // or after at + detection_timeout.
  std::vector<FailureEvent> detections;
  for (const NodeFailure& f : cluster_.failures) {
    if (fail_at[f.node] >= 0 && fail_at[f.node] <= f.at) continue;
    fail_at[f.node] = f.at;
  }
  for (unsigned n = 0; n < M; ++n) {
    if (fail_at[n] < 0) continue;
    plans[n].failed_at = fail_at[n];
    const TimePoint earliest = fail_at[n] + cluster_.detection_timeout;
    const TimePoint detected =
        ((earliest + cluster_.heartbeat_period - 1) /
         cluster_.heartbeat_period) *
        cluster_.heartbeat_period;
    detections.push_back({n, fail_at[n], detected});
  }
  std::sort(detections.begin(), detections.end(),
            [](const FailureEvent& a, const FailureEvent& b) {
              if (a.detected_at != b.detected_at)
                return a.detected_at < b.detected_at;
              return a.node < b.node;
            });

  // Demand estimators (the PR-6 online headroom hook): per-tick WCET demand
  // EWMAs per node and per basestation.
  std::vector<model::DurationEwma> node_ewma(
      M, model::DurationEwma(cluster_.load_alpha));
  std::vector<model::DurationEwma> bs_ewma(
      num_bs_, model::DurationEwma(cluster_.load_alpha));

  // Cluster-track events, assembled by hand (the control plane is the
  // single-threaded sweep; track id is remapped at merge time).
  std::vector<obs::TraceEvent> control;
  auto control_emit = [&](obs::TraceEvent ev) {
    if (tracing) control.push_back(ev);
  };

  std::vector<RehomeRecord> rehomes;
  std::size_t detection_next = 0;
  std::size_t rr = 0;  // round-robin cursor across survivors (PR-2 style).
  TimePoint next_rebalance =
      cluster_.rebalance_enabled ? cluster_.rebalance_period : -1;

  // Survivor eligibility: believed alive and with real (resident) cores.
  auto eligible_target = [&](unsigned n) {
    return !declared_dead[n] && !plans[n].residents.empty();
  };

  auto adopt = [&](unsigned n, unsigned bs) {
    if (local_id[n][bs] >= 0) return;
    local_id[n][bs] = static_cast<int>(plans[n].local_to_global.size());
    plans[n].local_to_global.push_back(bs);
  };

  auto process_detection = [&](const FailureEvent& ev) {
    declared_dead[ev.node] = true;
    plans[ev.node].detected_at = ev.detected_at;
    ++agg.node_failovers;
    ++agg.resilience.failovers;
    ++agg.resilience.repartitions;
    control_emit({.ts = ev.detected_at, .a = ev.node,
                  .kind = obs::EventKind::kWatchdogFire});
    std::vector<unsigned> survivors;
    for (unsigned n = 0; n < M; ++n)
      if (eligible_target(n)) survivors.push_back(n);
    RehomeRecord record{ev, {}};
    if (!survivors.empty()) {
      for (unsigned bs = 0; bs < num_bs_; ++bs) {
        if (home[bs] != ev.node) continue;
        const unsigned target = survivors[rr++ % survivors.size()];
        home[bs] = target;
        rehome_time[bs] = ev.detected_at;
        rehome_from[bs] = ev.node;
        ++agg.rehomed_basestations;
        record.moves.emplace_back(bs, target);
      }
    }
    rehomes.push_back(std::move(record));
  };

  auto process_rebalance = [&](TimePoint now) {
    // Hottest vs coolest believed-alive node by estimated utilization.
    int hot = -1, cool = -1;
    double hot_util = 0.0, cool_util = 0.0;
    for (unsigned n = 0; n < M; ++n) {
      if (!eligible_target(n)) continue;
      const Duration cap = capacity_ns(n);
      if (cap <= 0) continue;
      const double util =
          static_cast<double>(node_ewma[n].value_or(0)) /
          static_cast<double>(cap);
      if (hot < 0 || util > hot_util) { hot = static_cast<int>(n); hot_util = util; }
      if (cool < 0 || util < cool_util) { cool = static_cast<int>(n); cool_util = util; }
    }
    if (hot < 0 || cool < 0 || hot == cool) return;
    if (hot_util <= cluster_.hotspot_utilization) return;
    // Largest-demand basestation on the hot node whose move strictly
    // improves the imbalance: its share of the cool node's capacity must
    // stay under the utilization gap, or the move merely relocates the
    // hotspot (and would ping-pong back next period).
    const double gap = hot_util - cool_util;
    const double cool_cap = static_cast<double>(
        capacity_ns(static_cast<unsigned>(cool)));
    int victim = -1;
    Duration victim_demand = 0;
    for (unsigned bs = 0; bs < num_bs_; ++bs) {
      if (home[bs] != static_cast<unsigned>(hot)) continue;
      const Duration d = bs_ewma[bs].value_or(0);
      if (static_cast<double>(d) / cool_cap >= gap) continue;
      if (victim < 0 || d > victim_demand) {
        victim = static_cast<int>(bs);
        victim_demand = d;
      }
    }
    if (victim < 0) return;
    home[victim] = static_cast<unsigned>(cool);
    ++agg.rebalance_moves;
    (void)now;
  };

  // --- Tick sweep ----------------------------------------------------------
  // Group the workload by radio tick (phase-aligned basestations: one
  // subframe per basestation per tick), preserving arrival order within a
  // tick. Control events apply on tick boundaries.
  std::map<TimePoint, std::vector<std::size_t>> ticks;
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (work[i].bs >= num_bs_)
      throw std::invalid_argument("ClusterSim: basestation id out of range");
    ticks[work[i].radio_time].push_back(i);
  }

  std::vector<Duration> node_tick_demand(M, 0);
  for (const auto& [tick_time, members] : ticks) {
    while (detection_next < detections.size() &&
           detections[detection_next].detected_at <= tick_time)
      process_detection(detections[detection_next++]);
    while (next_rebalance >= 0 && next_rebalance <= tick_time) {
      process_rebalance(next_rebalance);
      next_rebalance += cluster_.rebalance_period;
    }

    // Ingress admission control: shed the largest WCET jobs while the
    // tick's aggregate demand exceeds the believed surviving capacity.
    std::vector<bool> shed_here(members.size(), false);
    if (cluster_.shed_enabled) {
      Duration demand = 0;
      for (const std::size_t i : members)
        if (!work[i].lost) demand += work[i].wcet.total();
      Duration believed_capacity = 0;
      for (unsigned n = 0; n < M; ++n)
        if (!declared_dead[n]) believed_capacity += capacity_ns(n);
      const Duration limit = static_cast<Duration>(
          cluster_.shed_threshold * static_cast<double>(believed_capacity));
      if (demand > limit) {
        std::vector<std::size_t> order(members.size());
        for (std::size_t k = 0; k < members.size(); ++k) order[k] = k;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                    const sim::SubframeWork& wa = work[members[a]];
                    const sim::SubframeWork& wb = work[members[b]];
                    if (wa.wcet.total() != wb.wcet.total())
                      return wa.wcet.total() > wb.wcet.total();
                    if (wa.bs != wb.bs) return wa.bs < wb.bs;
                    return wa.index < wb.index;
                  });
        for (const std::size_t k : order) {
          if (demand <= limit) break;
          const sim::SubframeWork& w = work[members[k]];
          if (w.lost) continue;
          shed_here[k] = true;
          demand -= w.wcet.total();
          ++agg.shed;
          control_emit({.ts = w.arrival, .bs = w.bs, .index = w.index,
                        .a = obs::clamp_payload_ns(w.deadline - w.arrival),
                        .b = obs::clamp_payload_ns(w.arrival - w.radio_time),
                        .kind = obs::EventKind::kShed});
        }
      }
    }

    // Dispatch the remainder and feed the demand estimators.
    std::fill(node_tick_demand.begin(), node_tick_demand.end(), 0);
    for (std::size_t k = 0; k < members.size(); ++k) {
      const sim::SubframeWork& w = work[members[k]];
      if (!w.lost) bs_ewma[w.bs].observe(w.wcet.total());
      if (shed_here[k]) continue;
      const unsigned n = home[w.bs];
      if (fail_at[n] >= 0 && w.arrival >= fail_at[n]) {
        // The home node is dead and the basestation has not (yet) been
        // re-homed: the subframe lands on a silent node and is lost —
        // attributed, not hidden.
        ++agg.lost;
        ++agg.failure_lost;
        ++agg.resilience.lost_subframes;
        control_emit({.ts = w.radio_time, .bs = w.bs, .index = w.index,
                      .a = 1, .kind = obs::EventKind::kLost});
        continue;
      }
      node_tick_demand[n] += w.wcet.total();
      adopt(n, w.bs);
      sim::SubframeWork local = w;
      local.bs = static_cast<unsigned>(local_id[n][w.bs]);
      plans[n].slice.push_back(local);
      ++agg.dispatched;
      if (rehome_time[w.bs] >= 0) {
        ++agg.rehomed_subframes;
        control_emit({.ts = w.arrival, .bs = w.bs, .index = w.index,
                      .a = n, .b = rehome_from[w.bs],
                      .kind = obs::EventKind::kRehome});
        // In-flight at re-homing time: the orphan sat in the dead node's
        // queue and was requeued on the survivor, PR-2's requeue semantics
        // one level up.
        if (w.radio_time < rehome_time[w.bs] &&
            w.arrival >= rehome_time[w.bs])
          ++agg.resilience.requeued_jobs;
      }
    }
    for (unsigned n = 0; n < M; ++n)
      if (!plans[n].residents.empty() && !declared_dead[n])
        node_ewma[n].observe(node_tick_demand[n]);
  }

  // --- Per-node scheduler runs --------------------------------------------
  const bool need_timeline = !detections.empty();
  sched::AdaptiveConfig adaptive = node_config_.adaptive;
  adaptive.num_antennas = node_config_.workload.num_antennas;
  adaptive.num_prb =
      phy::bandwidth_config(node_config_.workload.bandwidth).num_prb;
  adaptive.max_iterations = node_config_.workload.max_iterations;

  std::vector<std::unique_ptr<obs::Tracer>> tracers(M);
  std::vector<std::unique_ptr<sched::NodeScheduler>> schedulers(M);
  std::vector<unsigned> track_offset(M, 0);
  unsigned total_tracks = 0;
  for (unsigned n = 0; n < M; ++n) {
    NodePlan& plan = plans[n];
    const unsigned hosted =
        static_cast<unsigned>(plan.local_to_global.size());
    if (hosted == 0) continue;
    // Sort each slice back into arrival order (ticks can interleave when
    // per-basestation transport delays differ by more than a period).
    std::stable_sort(plan.slice.begin(), plan.slice.end(),
                     [](const sim::SubframeWork& a,
                        const sim::SubframeWork& b) {
                       return a.arrival < b.arrival;
                     });
    const unsigned residents =
        static_cast<unsigned>(plan.residents.size());
    std::vector<unsigned> unprovisioned;
    for (unsigned c = residents * cpb; c < hosted * cpb; ++c)
      unprovisioned.push_back(c);
    // Adopted basestations extend the partition table (phantom slots) on
    // the partitioned-style schedulers; the global scheduler just shares
    // its queue, so its core count stays the provisioned one either way.
    const unsigned node_cores =
        node_config_.scheduler == core::SchedulerKind::kGlobal
            ? residents * cpb
            : hosted * cpb;
    if (tracing)
      tracers[n] = std::make_unique<obs::Tracer>(
          node_cores, cluster_.trace.ring_capacity,
          cluster_.trace.max_stored_events);
    switch (node_config_.scheduler) {
      case core::SchedulerKind::kPartitioned: {
        sched::PartitionedConfig pc;
        pc.rtt_half = node_config_.rtt_half;
        pc.degrade = node_config_.degrade;
        pc.adaptive = adaptive;
        pc.record_samples = node_config_.record_samples;
        pc.record_timeline = need_timeline;
        pc.unprovisioned_cores = std::move(unprovisioned);
        pc.tracer = tracers[n].get();
        schedulers[n] =
            std::make_unique<sched::PartitionedScheduler>(hosted, pc);
        break;
      }
      case core::SchedulerKind::kGlobal: {
        sched::GlobalConfig gc = node_config_.global;
        gc.num_cores = residents * cpb;
        gc.degrade = node_config_.degrade;
        gc.adaptive = adaptive;
        gc.record_samples = node_config_.record_samples;
        gc.record_timeline = gc.record_timeline || need_timeline;
        gc.tracer = tracers[n].get();
        schedulers[n] = std::make_unique<sched::GlobalScheduler>(hosted, gc);
        break;
      }
      case core::SchedulerKind::kRtOpex: {
        sched::RtOpexConfig rc = node_config_.rtopex;
        rc.rtt_half = node_config_.rtt_half;
        rc.degrade = node_config_.degrade;
        rc.adaptive = adaptive;
        rc.record_samples = node_config_.record_samples;
        rc.record_timeline = rc.record_timeline || need_timeline;
        // Whole-node failures are the cluster's job; per-core failure
        // injection does not compose across nodes.
        rc.core_failures.clear();
        rc.unprovisioned_cores = std::move(unprovisioned);
        rc.tracer = tracers[n].get();
        schedulers[n] = std::make_unique<sched::RtOpexScheduler>(hosted, rc);
        break;
      }
    }
    track_offset[n] = total_tracks;
    total_tracks += schedulers[n]->num_cores();
    result.node_tracks.push_back(
        {n, track_offset[n], schedulers[n]->num_cores()});
  }
  result.cluster_track = total_tracks;
  result.health_track =
      cluster_.health.enabled ? total_tracks + 1 : total_tracks;
  result.total_tracks = total_tracks + (cluster_.health.enabled ? 2 : 1);

  agg.nodes.reserve(M);
  for (unsigned n = 0; n < M; ++n) {
    NodeReport report;
    report.node = n;
    report.resident_basestations =
        static_cast<unsigned>(plans[n].residents.size());
    report.hosted_basestations =
        static_cast<unsigned>(plans[n].local_to_global.size());
    report.failed_at = plans[n].failed_at;
    report.detected_at = plans[n].detected_at;
    if (schedulers[n]) {
      sched::NodeScheduler& node = *schedulers[n];
      report.scheduler_name = node.name();
      report.num_cores = report.resident_basestations * cpb;
      result.scheduler_name = node.name();
      report.metrics = node.run(plans[n].slice);
    }
    agg.nodes.push_back(std::move(report));
  }

  // --- Rollup + conservation ----------------------------------------------
  for (const NodeReport& nr : agg.nodes) {
    const sim::SchedulerMetrics& m = nr.metrics;
    agg.processed += m.total_subframes - m.deadline_misses -
                     m.resilience.lost_subframes;
    agg.deadline_misses += m.deadline_misses;
    agg.dropped += m.dropped;
    agg.terminated += m.terminated;
    agg.late += m.resilience.late_arrivals;
    agg.lost += m.resilience.lost_subframes;
    agg.resilience.failovers += m.resilience.failovers;
    agg.resilience.repartitions += m.resilience.repartitions;
    agg.resilience.requeued_jobs += m.resilience.requeued_jobs;
    agg.resilience.lost_subframes += m.resilience.lost_subframes;
    agg.resilience.late_arrivals += m.resilience.late_arrivals;
    agg.resilience.degraded += m.resilience.degraded;
    agg.resilience.degraded_decode_failures +=
        m.resilience.degraded_decode_failures;
    agg.resilience.flag_timeouts += m.resilience.flag_timeouts;
    for (std::size_t i = 0; i < kNumDegradeLevels; ++i)
      agg.resilience.degrade_histogram[i] +=
          m.resilience.degrade_histogram[i];
  }
  // Shed subframes are deadline misses of the dropped flavour at cluster
  // scope (classified, never blocking).
  agg.deadline_misses += agg.shed;
  agg.dropped += agg.shed;

  // --- Recovery-time histogram --------------------------------------------
  if (!rehomes.empty()) {
    TimePoint horizon_end = 0;
    for (const sim::SubframeWork& w : work)
      horizon_end = std::max(horizon_end, w.deadline);
    for (const RehomeRecord& record : rehomes) {
      TimePoint recovered_at = record.failure.detected_at;
      for (const auto& [bs, node] : record.moves) {
        const int local = local_id[node][bs];
        TimePoint first_ok = -1;
        if (local >= 0) {
          for (const sim::SchedulerMetrics::TimelineEntry& e :
               agg.nodes[node].metrics.timeline) {
            if (e.bs != static_cast<unsigned>(local) || e.missed) continue;
            if (e.start < record.failure.detected_at) continue;
            first_ok = e.end;
            break;
          }
        }
        recovered_at =
            std::max(recovered_at, first_ok >= 0 ? first_ok : horizon_end);
      }
      agg.recovery_ms.add(to_ms(recovered_at - record.failure.at));
    }
  }

  // --- Trace merge ---------------------------------------------------------
  if (tracing) {
    obs::TraceStore merged;
    for (unsigned n = 0; n < M; ++n) {
      if (!tracers[n]) continue;
      obs::TraceStore store = tracers[n]->take();
      merged.ring_drops += store.ring_drops;
      merged.store_drops += store.store_drops;
      for (obs::TraceEvent ev : store.events) {
        const bool global_kind = ev.kind == obs::EventKind::kGapBegin ||
                                 ev.kind == obs::EventKind::kGapEnd ||
                                 ev.kind == obs::EventKind::kWatchdogFire;
        if (!global_kind)
          ev.bs = plans[n].local_to_global[ev.bs];
        // Core-valued payloads move with the track remap.
        if (ev.kind == obs::EventKind::kOffload ||
            ev.kind == obs::EventKind::kHostBegin ||
            ev.kind == obs::EventKind::kHostEnd ||
            ev.kind == obs::EventKind::kWatchdogFire)
          ev.a += track_offset[n];
        ev.core += track_offset[n];
        merged.events.push_back(ev);
      }
    }
    for (obs::TraceEvent ev : control) {
      ev.core = result.cluster_track;
      merged.events.push_back(ev);
    }
    // Workload capture on the cluster track so rtopex_analyze's replay
    // path works on merged traces ("what if one big node?").
    obs::Tracer capture(1, cluster_.trace.ring_capacity,
                        cluster_.trace.max_stored_events);
    obs::analysis::capture_workload(capture, work, 0);
    obs::TraceStore captured = capture.take();
    merged.ring_drops += captured.ring_drops;
    merged.store_drops += captured.store_drops;
    for (obs::TraceEvent ev : captured.events) {
      ev.core = result.cluster_track;
      merged.events.push_back(ev);
    }
    result.trace = std::move(merged);

    // --- Health scan over the merged trace --------------------------------
    if (cluster_.health.enabled) {
      obs::health::Topology topo;
      topo.num_nodes = M;
      topo.num_basestations = num_bs_;
      // Utilization denominator is the *provisioned* capacity (residents'
      // cores); phantom slots for adopted basestations carry busy time but
      // no capacity, so an overloaded survivor reads util > 1.
      topo.node_cores.assign(M, 0);
      for (unsigned n = 0; n < M; ++n)
        topo.node_cores[n] =
            static_cast<unsigned>(plans[n].residents.size()) * cpb;
      topo.track_to_node.assign(result.cluster_track, 0);
      for (const ClusterResult::NodeTracks& nt : result.node_tracks)
        for (unsigned t = 0; t < nt.num_tracks; ++t)
          topo.track_to_node[nt.first_track + t] = nt.node;
      // Control-track events (failure_lost, shed) attribute via the
      // *initial* placement: losses in a detection window belong to the
      // node that died, not to the basestation's eventual new home.
      topo.bs_to_node = result.placement;

      const std::unique_ptr<obs::health::HealthMonitor> monitor =
          obs::health::scan_store(result.trace, cluster_.health, topo);
      for (obs::TraceEvent ev : monitor->alert_events()) {
        ev.core = result.health_track;
        result.trace.events.push_back(ev);
      }
      result.alerts = monitor->alerts();
      result.health = monitor->snapshot();
      result.health_history = monitor->history();
    }
  }
  return result;
}

void fill_registry(const ClusterMetrics& metrics, const std::string& scheduler,
                   obs::MetricsRegistry& registry) {
  auto counter = [&](const char* name, const char* help, std::size_t value) {
    registry.add_counter(name, help, static_cast<double>(value),
                         {{"scheduler", scheduler}});
  };
  counter("rtopex_cluster_offered_total", "Subframes offered to the cluster.",
          metrics.offered);
  counter("rtopex_cluster_dispatched_total",
          "Subframes dispatched to a node scheduler.", metrics.dispatched);
  counter("rtopex_cluster_shed_total",
          "Subframes shed at ingress by admission control.", metrics.shed);
  counter("rtopex_cluster_failure_lost_total",
          "Subframes lost in a dead node's detection window.",
          metrics.failure_lost);
  counter("rtopex_cluster_node_failovers_total",
          "Nodes declared dead by the cluster watchdog.",
          metrics.node_failovers);
  counter("rtopex_cluster_rehomed_basestations_total",
          "Basestations re-homed off dead nodes.",
          metrics.rehomed_basestations);
  counter("rtopex_cluster_rehomed_subframes_total",
          "Subframes dispatched to a re-homed basestation's new node.",
          metrics.rehomed_subframes);
  counter("rtopex_cluster_rebalance_moves_total",
          "Hotspot rebalancing moves.", metrics.rebalance_moves);
  counter("rtopex_cluster_misses_total", "Cluster-wide deadline misses.",
          metrics.deadline_misses);
  counter("rtopex_cluster_processed_total",
          "Subframes completed in time across all nodes.", metrics.processed);
  registry.add_histogram("rtopex_cluster_recovery_ms",
                         "Per-failure recovery time: fail instant until every "
                         "re-homed basestation completed on its new node (ms).",
                         metrics.recovery_ms, {{"scheduler", scheduler}});
}

void fill_federated_registry(const ClusterResult& result,
                             obs::MetricsRegistry& registry) {
  // Cluster control-plane rollup.
  fill_registry(result.metrics, result.scheduler_name, registry);

  // Fleet-wide latency/gap distributions: every node's histogram merged
  // into one (identical default layouts, so merge() never throws here).
  obs::Histogram fleet_processing, fleet_gap;
  for (const NodeReport& nr : result.metrics.nodes) {
    fleet_processing.merge(nr.metrics.processing_us_hist);
    fleet_gap.merge(nr.metrics.gap_us_hist);
  }
  registry.add_histogram(
      "rtopex_fleet_processing_time_us",
      "Per-subframe processing time across every node (us).", fleet_processing,
      {{"scheduler", result.scheduler_name}});
  registry.add_histogram("rtopex_fleet_gap_us",
                         "Idle-gap durations across every node (us).",
                         fleet_gap, {{"scheduler", result.scheduler_name}});

  // Health series (only meaningful when the run had health enabled — the
  // snapshot carries per-node rows then).
  if (!result.health.nodes.empty())
    obs::health::fill_registry(result.health, result.alerts, registry);

  // Every node's full sim series, kept distinct by a node="N" label.
  for (const NodeReport& nr : result.metrics.nodes) {
    obs::MetricsRegistry node_registry;
    sim::fill_registry(nr.metrics, nr.scheduler_name, node_registry);
    registry.merge(node_registry, {{"node", std::to_string(nr.node)}});
  }
}

}  // namespace rtopex::cluster
