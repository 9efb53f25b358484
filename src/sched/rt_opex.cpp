#include "sched/rt_opex.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sched/migration.hpp"
#include "sched/serial_exec.hpp"

namespace rtopex::sched {
namespace {

constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();

/// Per-core runtime state.
struct CoreState {
  TimePoint free_at = 0;        ///< own (partitioned) work completion.
  TimePoint mig_busy_until = 0; ///< occupied by a migrated chunk until then.
  std::size_t next_own = 0;     ///< index into `own` of the next subframe.
  bool used = false;
  /// This core's partitioned subframes in arrival order: (nominal arrival,
  /// actual arrival).
  std::vector<std::pair<TimePoint, TimePoint>> own;
};

/// A migrated chunk executing on its remote core: it runs until it
/// completes or its core is preempted by that core's next partitioned
/// subframe (actual arrival).
struct RunningChunk {
  unsigned count;
  TimePoint abort_at;
};

/// Outcome of running one parallelizable stage with migration.
struct StageOutcome {
  TimePoint end = 0;
  unsigned migrated = 0;    ///< subtasks placed on remote cores.
  unsigned recovered = 0;   ///< subtasks recomputed locally.
  bool lost_results = false;///< only without recovery: results missing.
  int first_host = -1;      ///< first remote core that hosted a chunk.
};

}  // namespace

RtOpexScheduler::RtOpexScheduler(unsigned num_basestations,
                                 const RtOpexConfig& cfg)
    : num_basestations_(num_basestations), config_(cfg) {
  if (num_basestations == 0)
    throw std::invalid_argument("RtOpexScheduler: no basestations");
  if (cfg.rtt_half < 0 || cfg.rtt_half >= kEndToEndBudget)
    throw std::invalid_argument("RtOpexScheduler: invalid rtt_half");
  for (const auto& f : cfg.core_failures)
    if (f.core >= num_basestations * cfg.cores_per_bs())
      throw std::invalid_argument("RtOpexScheduler: core_failure id out of range");
  for (const unsigned c : cfg.unprovisioned_cores)
    if (c >= num_basestations * cfg.cores_per_bs())
      throw std::invalid_argument(
          "RtOpexScheduler: unprovisioned core id out of range");
}

unsigned RtOpexScheduler::core_of(unsigned bs,
                                  std::uint32_t subframe_index) const {
  const unsigned c = config_.cores_per_bs();
  return bs * c + subframe_index % c;
}

sim::SchedulerMetrics RtOpexScheduler::run(
    std::span<const sim::SubframeWork> work) {
  sim::SchedulerMetrics metrics;
  metrics.per_bs.resize(num_basestations_);

  obs::Tracer* const tracer = config_.tracer;
  const auto filtered = filter_faulted(work, metrics, tracer);
  const std::span<const sim::SubframeWork> active =
      filtered ? std::span<const sim::SubframeWork>(*filtered) : work;

  // Subframe -> core assignment: the offline partition, then the shared
  // outage machinery folds unprovisioned slots onto real cores and
  // repartitions each failed core's subframes across survivors (see
  // sched/failover.hpp).
  std::vector<unsigned> assign(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (active[i].bs >= num_basestations_)
      throw std::invalid_argument("run: basestation id out of range");
    assign[i] = core_of(active[i].bs, active[i].index);
  }
  const std::vector<TimePoint> fails = apply_core_outages(
      active, assign, num_cores(), config_.core_failures,
      config_.unprovisioned_cores, metrics, tracer);

  std::vector<CoreState> cores(num_cores());
  {
    std::vector<std::size_t> own_count(cores.size(), 0);
    for (const unsigned c : assign) ++own_count[c];
    for (std::size_t c = 0; c < cores.size(); ++c)
      cores[c].own.reserve(own_count[c]);
  }
  for (std::size_t i = 0; i < active.size(); ++i)
    cores[assign[i]].own.emplace_back(
        active[i].radio_time + config_.rtt_half, active[i].arrival);

  // Per-run scratch for the per-stage planning and execution below, sized
  // for the most any stage can use (one entry per other core), so the
  // subframe loop never allocates.
  std::vector<MigrationCandidate> cands;
  std::vector<RunningChunk> running;
  MigrationPlan plan;
  cands.reserve(cores.size());
  running.reserve(cores.size());
  plan.chunks.reserve(cores.size());

  std::optional<model::OnlineEstimators> estimators =
      make_estimators(config_.adaptive, num_basestations_);
  model::OnlineEstimators* const adaptive =
      estimators ? &*estimators : nullptr;

  // Predicted idle window of core k at time t: until the *nominal* arrival
  // of its next own subframe. Actual preemption happens at the *actual*
  // arrival.
  auto predicted_preempt = [&](const CoreState& k, TimePoint t) {
    for (std::size_t i = k.next_own; i < k.own.size(); ++i)
      if (k.own[i].first > t) return k.own[i].first;
    return kNever;
  };
  auto actual_preempt = [&](const CoreState& k) {
    return k.next_own < k.own.size() ? k.own[k.next_own].second : kNever;
  };

  // Candidate idle cores for a migration decision taken at time `t`, into
  // `cands`.
  auto gather_candidates =
      [&](unsigned self, TimePoint t) -> std::span<const MigrationCandidate> {
    cands.clear();
    for (unsigned k = 0; k < cores.size(); ++k) {
      if (k == self) continue;
      if (fails[k] <= t) continue;  // failed cores host nothing
      const CoreState& ck = cores[k];
      if (ck.free_at > t || ck.mig_busy_until > t) continue;
      // A core whose next own subframe has already arrived is (about to be)
      // busy in its active state, not waiting — never a migration target.
      if (actual_preempt(ck) <= t) continue;
      const TimePoint preempt = predicted_preempt(ck, t);
      if (preempt == kNever) {
        cands.push_back({k, kEndToEndBudget});  // idle "forever": cap window
        continue;
      }
      const Duration window = preempt - t;
      if (window > 0) cands.push_back({k, window});
    }
    std::sort(cands.begin(), cands.end(),
              [](const MigrationCandidate& a, const MigrationCandidate& b) {
                if (a.free_window != b.free_window)
                  return a.free_window > b.free_window;
                return a.core < b.core;
              });
    return cands;
  };

  // Executes a previously planned parallelizable stage starting at `t` on
  // core `self`, with actual per-subtask time `tp`. The plan may have been
  // made slightly earlier (and with WCET subtask times); a planned target
  // that is no longer available behaves like a failed mailbox claim — its
  // subtasks simply stay local.
  auto run_stage = [&](TimePoint t, const MigrationPlan& plan,
                       unsigned subtasks, Duration tp,
                       const sim::SubframeWork& w, unsigned self,
                       obs::Stage stage) {
    StageOutcome out;
    if (tp <= 0 || subtasks == 0 || plan.chunks.empty()) {
      out.end = t + static_cast<Duration>(subtasks) * tp;
      return out;
    }

    // Execute migrated chunks on their remote cores.
    running.clear();
    unsigned local_count = subtasks;
    for (const auto& chunk : plan.chunks) {
      CoreState& ck = cores[chunk.core];
      const bool still_available = fails[chunk.core] > t &&
                                   ck.free_at <= t &&
                                   ck.mig_busy_until <= t &&
                                   actual_preempt(ck) > t;
      if (!still_available) continue;  // failed claim: stays local
      const TimePoint abort_at = actual_preempt(ck);
      const TimePoint natural_end =
          t + config_.migration_cost + static_cast<Duration>(chunk.count) * tp;
      ck.mig_busy_until = std::min(natural_end, abort_at);
      running.push_back({chunk.count, abort_at});
      out.migrated += chunk.count;
      local_count -= chunk.count;
      if (out.first_host < 0) out.first_host = static_cast<int>(chunk.core);
      // Offload instant + flow start on the migrator's track, host span on
      // the remote track (b = subtasks the host completed before its own
      // work preempted the chunk).
      RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                         .a = chunk.core, .b = chunk.count, .core = self,
                         .kind = obs::EventKind::kOffload, .stage = stage);
      RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                         .a = self, .core = chunk.core,
                         .kind = obs::EventKind::kHostBegin, .stage = stage);
      const Duration usable =
          ck.mig_busy_until - t - config_.migration_cost;
      const unsigned completed = static_cast<unsigned>(std::clamp<Duration>(
          usable > 0 ? usable / tp : 0, 0, chunk.count));
      RTOPEX_TRACE_EVENT(tracer, .ts = ck.mig_busy_until, .bs = w.bs,
                         .index = w.index, .a = self, .b = completed,
                         .core = chunk.core,
                         .kind = obs::EventKind::kHostEnd, .stage = stage);
    }
    const TimePoint local_end =
        t + static_cast<Duration>(local_count) * tp;

    // Subtasks a chunk has completed by time tau (remote runs them in order
    // after the delta state fetch, stopping at preemption).
    auto done_by = [&](const RunningChunk& c, TimePoint tau) {
      const Duration usable =
          std::min(tau, c.abort_at) - t - config_.migration_cost;
      return static_cast<unsigned>(
          std::clamp<Duration>(usable > 0 ? usable / tp : 0, 0, c.count));
    };
    // Outstanding (not naturally completed) subtasks at time tau.
    auto outstanding_at = [&](TimePoint tau) {
      unsigned n = 0;
      for (const auto& c : running) n += c.count - done_by(c, tau);
      return n;
    };

    // When the local core finishes, it checks the result flags and recovers
    // incomplete migrated subtasks one at a time; remotes keep completing
    // meanwhile. The stage ends at the smallest R with
    // outstanding(local_end + R * tp) <= R.
    unsigned recovery = 0;
    while (outstanding_at(local_end +
                          static_cast<Duration>(recovery) * tp) > recovery)
      ++recovery;

    if (recovery > 0 && !config_.enable_recovery) {
      out.lost_results = true;
      out.end = local_end;
      return out;
    }
    out.recovered = recovery;
    out.end = local_end + static_cast<Duration>(recovery) * tp;
    if (recovery > 0)
      RTOPEX_TRACE_EVENT(tracer, .ts = local_end, .bs = w.bs,
                         .index = w.index, .b = recovery, .core = self,
                         .kind = obs::EventKind::kRecovery, .stage = stage);
    return out;
  };

  for (std::size_t wi = 0; wi < active.size(); ++wi) {
    const auto& w = active[wi];
    const unsigned self = assign[wi];
    CoreState& core = cores[self];
    // This subframe must be the core's next own work item.
    if (core.next_own >= core.own.size() ||
        core.own[core.next_own].second != w.arrival)
      throw std::logic_error("RtOpexScheduler: core work list out of sync");
    ++core.next_own;

    const TimePoint start = std::max(w.arrival, core.free_at);
    begin_subframe(w, self, start, core.free_at, core.used,
                   config_.record_samples, tracer, metrics);
    core.used = true;

    SerialOutcome o;
    TimePoint t = start;

    // --- FFT stage (deterministic duration; exact slack check) ---
    if (t + w.costs.fft > w.deadline) {
      o.miss = o.dropped = true;
      o.missed_stage = obs::Stage::kFft;
      RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                         .core = self, .kind = obs::EventKind::kDrop,
                         .stage = obs::Stage::kFft);
    } else {
      RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                         .a = obs::clamp_payload_ns(w.costs.fft),
                         .core = self, .kind = obs::EventKind::kStageBegin,
                         .stage = obs::Stage::kFft);
      const TimePoint fft_start = t;
      metrics.fft_subtasks_total += w.costs.fft_subtasks;
      if (config_.migrate_fft) {
        plan_migration(w.costs.fft_subtasks,
                       std::max<Duration>(w.costs.fft_subtask, 1),
                       config_.migration_cost, gather_candidates(self, t),
                       plan, config_.constraints);
        const StageOutcome so = run_stage(t, plan, w.costs.fft_subtasks,
                                          w.costs.fft_subtask, w, self,
                                          obs::Stage::kFft);
        metrics.fft_subtasks_migrated += so.migrated;
        metrics.recoveries += so.recovered;
        if (o.host_core < 0) o.host_core = so.first_host;
        // Serial residue of the FFT stage (rounding of fft / subtasks).
        const Duration residue =
            w.costs.fft -
            static_cast<Duration>(w.costs.fft_subtasks) * w.costs.fft_subtask;
        t = so.end + residue;
        if (so.lost_results) {
          o.miss = true;
          o.missed_stage = obs::Stage::kFft;
        }
      } else {
        t += w.costs.fft;
      }
      o.fft_ns = t - fft_start;
      RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                         .core = self, .kind = obs::EventKind::kStageEnd,
                         .stage = obs::Stage::kFft);
    }

    // --- Demod stage (serial, deterministic) ---
    if (!o.miss)
      run_fixed_stage(o, obs::Stage::kDemod, w.costs.demod, w, t, tracer,
                      self);

    // --- Decode stage ---
    // Plan the migration first (using the model's WCET subtask time and the
    // predicted start of the parallelizable part), then run the slack check
    // against the post-migration worst case: migration is what lets RT-OPEX
    // admit high-MCS subframes that partitioned scheduling must drop.
    if (!o.miss) {
      // Per-subtask time the migration planner and the admission check
      // assume: the WCET constant, or — adaptive — the learned EWMA over
      // executed per-code-block times (Algorithm 1 with adaptive chunks).
      const Duration planning_subtask =
          adaptive ? adaptive->decode_subtask_or(w.wcet.decode_subtask)
                   : w.wcet.decode_subtask;
      plan.chunks.clear();  // empty unless decode migration is enabled
      unsigned planned_local = w.wcet.decode_subtasks;
      if (config_.migrate_decode && w.costs.decode_subtasks > 1) {
        const TimePoint par_start_pred = t + w.wcet.decode_serial();
        plan_migration(w.wcet.decode_subtasks,
                       std::max<Duration>(planning_subtask, 1),
                       config_.migration_cost,
                       gather_candidates(self, par_start_pred), plan,
                       config_.constraints);
        planned_local = plan.local_subtasks;
      }
      // The full estimate is the post-migration local worst case costed
      // with the planning subtask time; the static reference costs the
      // same plan with the frozen WCET constant.
      const auto local_worst_case = [&](Duration subtask) {
        return config_.admission == AdmissionPolicy::kWcet
                   ? w.wcet.decode_serial() +
                         static_cast<Duration>(planned_local) * subtask
                   : w.decode_optimistic;
      };
      o.decode_static_est_ns = local_worst_case(w.wcet.decode_subtask);
      const TimePoint decode_start = t;
      const Admission adm = admit_decode(
          t, w.deadline, local_worst_case(planning_subtask),
          sim_decode_line(w, config_.degrade, adaptive),
          assumed_iterations(w, config_.admission, adaptive), w.lm,
          config_.degrade);
      if (apply_admission(o, adm, w, t, tracer, self)) {
        // The serial decode work this subframe executes. Migration plans
        // assume full-quality subtask times, so a capped decode runs
        // serially on its own core.
        const bool capped = adm.level != DegradeLevel::kNone;
        const Duration work =
            capped ? degraded_decode_time(w, adm.cap) : w.costs.decode;
        if (!capped) metrics.decode_subtasks_total += w.costs.decode_subtasks;
        if (capped || !config_.migrate_decode) {
          t += work;
        } else {
          t += w.costs.decode_serial();
          const StageOutcome so =
              run_stage(t, plan, w.costs.decode_subtasks,
                        w.costs.decode_subtask, w, self, obs::Stage::kDecode);
          metrics.decode_subtasks_migrated += so.migrated;
          metrics.recoveries += so.recovered;
          if (o.host_core < 0) o.host_core = so.first_host;
          t = so.end;
          if (so.lost_results) {
            o.miss = true;
            o.missed_stage = obs::Stage::kDecode;
          }
        }
        if (!o.miss && t > w.deadline) {
          o.miss = o.terminated = true;
          o.missed_stage = obs::Stage::kDecode;
          t = w.deadline;
        }
        o.decode_ns = t - decode_start;
        RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                           .core = self, .kind = obs::EventKind::kStageEnd,
                           .stage = obs::Stage::kDecode);
        if (o.terminated)
          RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                             .core = self,
                             .kind = obs::EventKind::kTerminate,
                             .stage = obs::Stage::kDecode);
        if (adaptive && !o.miss) {
          // Feed the executed stage back: the full serial decode work
          // content (what a single core would have run) as the Eq. (1)
          // sample, plus the per-code-block time for chunk sizing.
          adaptive->observe_fft(w.costs.fft_subtask);
          adaptive->observe_decode(w.bs, w.mcs, o.executed_iterations, work,
                                   w.costs.decode_subtask);
        }
      }
    }

    o.end = t;
    o.completed = !o.miss;
    core.free_at = t;
    finish_subframe(o, w, self, start, config_.record_timeline,
                    config_.record_samples, tracer, metrics);
  }
  return metrics;
}

}  // namespace rtopex::sched
