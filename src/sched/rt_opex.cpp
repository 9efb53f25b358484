#include "sched/rt_opex.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

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

  /// Predicted idle window at time t: until the *nominal* arrival of the
  /// next own subframe. Actual preemption happens at the *actual* arrival.
  TimePoint predicted_preempt(TimePoint t) const {
    for (std::size_t i = next_own; i < own.size(); ++i)
      if (own[i].first > t) return own[i].first;
    return kNever;
  }
  TimePoint actual_preempt() const {
    return next_own < own.size() ? own[next_own].second : kNever;
  }
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

/// RT-OPEX's FFT and decode for the stage chain: Algorithm 1 plans chunks
/// of each stage's subtasks into other cores' predicted idle windows, and
/// run_stage plays the migration model out (claims, preemption at actual
/// arrivals, recovery). The decode's full-quality estimate is the
/// post-plan local worst case, planned before the slack check; it stands
/// under adaptive estimation too (no Eq. (1) fit replaces it). Per-run
/// scratch, sized for one entry per core, so the subframe loop never
/// allocates.
struct MigratingStages {
  static constexpr bool kFitsFull = false;
  const RtOpexConfig& config;
  std::vector<CoreState>& cores;
  std::span<const TimePoint> fails;
  sim::SchedulerMetrics& metrics;
  obs::Tracer* tracer;
  const model::OnlineEstimators* adaptive;
  unsigned self = 0;  ///< the core running the current subframe.
  std::vector<MigrationCandidate> cands{};
  std::vector<RunningChunk> running{};
  MigrationPlan plan{};

  StageRun fft(const sim::SubframeWork& w, TimePoint t, SerialOutcome& o) {
    metrics.fft_subtasks_total += w.costs.fft_subtasks;
    if (!config.migrate_fft) return {t + w.costs.fft};
    plan_migration(w.costs.fft_subtasks,
                   std::max<Duration>(w.costs.fft_subtask, 1),
                   config.migration_cost, gather_candidates(t), plan,
                   config.constraints);
    const StageOutcome so = run_stage(t, w.costs.fft_subtasks,
                                      w.costs.fft_subtask, w, obs::Stage::kFft);
    metrics.fft_subtasks_migrated += so.migrated;
    note(so, o);
    // Serial residue of the FFT stage (rounding of fft / subtasks).
    const Duration residue =
        w.costs.fft -
        static_cast<Duration>(w.costs.fft_subtasks) * w.costs.fft_subtask;
    return {so.end + residue, 0, so.lost_results};
  }

  // Plans the decode migration first (with the planning subtask time and
  // the predicted start of the parallelizable part); the full estimate is
  // the post-migration local worst case costed with that subtask time, the
  // static reference the same plan costed with the frozen WCET constant.
  DecodeEstimates decode_estimates(const sim::SubframeWork& w, TimePoint t) {
    // Per-subtask time the planner and the admission check assume: the
    // WCET constant, or — adaptive — the learned EWMA over executed
    // per-code-block times (Algorithm 1 with adaptive chunks).
    const Duration planning_subtask =
        adaptive ? adaptive->decode_subtask_or(w.wcet.decode_subtask)
                 : w.wcet.decode_subtask;
    plan.chunks.clear();  // empty unless decode migration is enabled
    unsigned planned_local = w.wcet.decode_subtasks;
    if (config.migrate_decode && w.costs.decode_subtasks > 1) {
      plan_migration(w.wcet.decode_subtasks,
                     std::max<Duration>(planning_subtask, 1),
                     config.migration_cost,
                     gather_candidates(t + w.wcet.decode_serial()), plan,
                     config.constraints);
      planned_local = plan.local_subtasks;
    }
    const auto local_worst_case = [&](Duration subtask) {
      return config.admission == AdmissionPolicy::kWcet
                 ? w.wcet.decode_serial() +
                       static_cast<Duration>(planned_local) * subtask
                 : w.decode_optimistic;
    };
    return {local_worst_case(planning_subtask),
            local_worst_case(w.wcet.decode_subtask)};
  }

  StageRun decode(const sim::SubframeWork& w, TimePoint t, SerialOutcome& o) {
    metrics.decode_subtasks_total += w.costs.decode_subtasks;
    if (!config.migrate_decode) return {t + w.costs.decode, w.costs.decode};
    const StageOutcome so =
        run_stage(t + w.costs.decode_serial(), w.costs.decode_subtasks,
                  w.costs.decode_subtask, w, obs::Stage::kDecode);
    metrics.decode_subtasks_migrated += so.migrated;
    note(so, o);
    return {so.end, w.costs.decode, so.lost_results};
  }

  void note(const StageOutcome& so, SerialOutcome& o) {
    metrics.recoveries += so.recovered;
    if (o.host_core < 0) o.host_core = so.first_host;
  }

  // Candidate idle cores for a migration decision taken at time `t`.
  std::span<const MigrationCandidate> gather_candidates(TimePoint t) {
    cands.clear();
    for (unsigned k = 0; k < cores.size(); ++k) {
      if (k == self) continue;
      if (fails[k] <= t) continue;  // failed cores host nothing
      const CoreState& ck = cores[k];
      if (ck.free_at > t || ck.mig_busy_until > t) continue;
      // A core whose next own subframe has already arrived is (about to be)
      // busy in its active state, not waiting — never a migration target.
      if (ck.actual_preempt() <= t) continue;
      const TimePoint preempt = ck.predicted_preempt(t);
      if (preempt == kNever) {
        cands.push_back({k, kEndToEndBudget});  // idle "forever": cap window
        continue;
      }
      const Duration window = preempt - t;
      if (window > 0) cands.push_back({k, window});
    }
    sort_candidates(cands);
    return cands;
  }

  // Executes the planned parallelizable stage starting at `t` on `self`,
  // with actual per-subtask time `tp`. The plan may have been made slightly
  // earlier (and with WCET subtask times); a planned target that is no
  // longer available behaves like a failed mailbox claim — its subtasks
  // simply stay local.
  StageOutcome run_stage(TimePoint t, unsigned subtasks, Duration tp,
                         [[maybe_unused]] const sim::SubframeWork& w,
                         [[maybe_unused]] obs::Stage stage) {
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
                                   ck.actual_preempt() > t;
      if (!still_available) continue;  // failed claim: stays local
      const TimePoint abort_at = ck.actual_preempt();
      const TimePoint natural_end =
          t + config.migration_cost + static_cast<Duration>(chunk.count) * tp;
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
          ck.mig_busy_until - t - config.migration_cost;
      [[maybe_unused]] const unsigned completed =
          static_cast<unsigned>(std::clamp<Duration>(
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
          std::min(tau, c.abort_at) - t - config.migration_cost;
      return static_cast<unsigned>(
          std::clamp<Duration>(usable > 0 ? usable / tp : 0, 0, c.count));
    };
    // Outstanding (not naturally completed) subtasks at time tau.
    auto outstanding_at = [&](TimePoint tau) {
      unsigned n = 0;
      for (const auto& c : running) n += c.count - done_by(c, tau);
      return n;
    };

    // Without recovery the local core waits for its chunks: the stage ends
    // at the later of its own end and each chunk's natural end, and a chunk
    // its host preempted before it finished loses the stage's results.
    if (!config.enable_recovery) {
      out.end = local_end;
      for (const auto& c : running) {
        const TimePoint natural_end =
            t + config.migration_cost + static_cast<Duration>(c.count) * tp;
        if (c.abort_at < natural_end) {
          out.lost_results = true;
          out.end = local_end;
          return out;
        }
        out.end = std::max(out.end, natural_end);
      }
      return out;
    }

    // When the local core finishes, it checks the result flags and recovers
    // incomplete migrated subtasks one at a time; remotes keep completing
    // meanwhile. The stage ends at the smallest R with
    // outstanding(local_end + R * tp) <= R.
    unsigned recovery = 0;
    while (outstanding_at(local_end +
                          static_cast<Duration>(recovery) * tp) > recovery)
      ++recovery;
    out.recovered = recovery;
    out.end = local_end + static_cast<Duration>(recovery) * tp;
    if (recovery > 0)
      RTOPEX_TRACE_EVENT(tracer, .ts = local_end, .bs = w.bs,
                         .index = w.index, .b = recovery, .core = self,
                         .kind = obs::EventKind::kRecovery, .stage = stage);
    return out;
  }
};

}  // namespace

RtOpexScheduler::RtOpexScheduler(unsigned num_basestations,
                                 const RtOpexConfig& cfg)
    : num_basestations_(num_basestations), config_(cfg) {
  cfg.validate(num_basestations);
}

sim::SchedulerMetrics RtOpexScheduler::run(
    std::span<const sim::SubframeWork> work) {
  sim::SchedulerMetrics metrics;
  metrics.per_bs.resize(num_basestations_);

  obs::Tracer* const tracer = config_.tracer;
  const auto filtered = filter_faulted(work, metrics, tracer);
  const std::span<const sim::SubframeWork> active =
      filtered ? std::span<const sim::SubframeWork>(*filtered) : work;

  std::vector<unsigned> assign;
  const std::vector<TimePoint> fails =
      config_.assign_cores(active, num_basestations_, assign, metrics);

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

  std::optional<model::OnlineEstimators> estimators =
      make_estimators(config_.adaptive, num_basestations_);
  model::OnlineEstimators* const adaptive =
      estimators ? &*estimators : nullptr;
  MigratingStages stages{config_, cores, fails, metrics, tracer, adaptive};
  stages.cands.reserve(cores.size());
  stages.running.reserve(cores.size());
  stages.plan.chunks.reserve(cores.size());

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

    stages.self = self;
    const SerialOutcome o =
        run_stage_chain(w, start, stages, 0, config_.admission,
                        config_.degrade, tracer, self, adaptive);
    core.free_at = o.end;
    finish_subframe(o, w, self, start, config_.record_timeline,
                    config_.record_samples, tracer, metrics);
  }
  return metrics;
}

}  // namespace rtopex::sched
