// Node-scheduler interface: consumes an arrival-sorted workload, simulates
// the compute node in virtual time, returns metrics.
//
// Common execution semantics shared by all policies (paper §3/§4.1):
//  * A subframe is processed stage by stage (FFT -> demod -> decode).
//  * Before each stage, a slack check against the task model runs; a
//    subframe whose predicted execution cannot meet the deadline is dropped
//    (deadline miss) and the remaining stages are skipped.
//  * If actual execution crosses the deadline anyway (platform jitter), the
//    task is terminated at the deadline (deadline miss), freeing the core.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "common/resilience.hpp"
#include "model/online_fit.hpp"
#include "sim/metrics.hpp"
#include "sim/workload.hpp"

namespace rtopex::obs {
class Tracer;
}

namespace rtopex::sched {

/// What the slack check predicts for the decode task, whose iteration count
/// is unknowable at admission time.
enum class AdmissionPolicy {
  /// The paper's choice: predict with L = Lm (the WCET bound of §2.1).
  /// Subframes whose worst case cannot fit are dropped up front — this is
  /// what makes the partitioned scheduler miss 100% of high-MCS subframes
  /// at tight budgets (Fig. 17).
  kWcet,
  /// Ablation: admit whenever even the best case (L = 1) could fit, and
  /// terminate at the deadline when it does not.
  kOptimistic,
};

/// The three node-scheduling policies (paper §3): partitioned, global and
/// RT-OPEX.
enum class SchedulerKind { kPartitioned, kGlobal, kRtOpex };

inline const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kPartitioned: return "partitioned";
    case SchedulerKind::kGlobal: return "global";
    case SchedulerKind::kRtOpex: return "rt-opex";
  }
  return "unknown";
}

class NodeScheduler {
 public:
  virtual ~NodeScheduler() = default;

  /// `work` must be sorted by arrival time (WorkloadGenerator guarantees
  /// this). Returns the collected metrics.
  virtual sim::SchedulerMetrics run(std::span<const sim::SubframeWork> work) = 0;

  /// Number of processing cores this scheduler occupies.
  virtual unsigned num_cores() const = 0;

  /// Human-readable policy name for reports.
  virtual const char* name() const = 0;
};

/// Graceful-degradation knobs, shared by every policy and by the real-thread
/// runtime: when the decode slack check fails at full quality, retry with
/// the turbo-iteration cap shrunk (down to min_iterations) before dropping
/// the subframe.
struct DegradeConfig {
  bool enabled = false;
  unsigned min_iterations = 1;
};

/// Eq. (1)'s decode cost as a line in the iteration count L (model/).
using DecodeLine = model::DecodeLine;

/// The decode admission decision: cap 0 drops the subframe, cap Lm runs it
/// at full quality, anything between is a degraded decode.
struct Admission {
  unsigned cap = 0;
  DegradeLevel level = DegradeLevel::kNone;
  Duration estimate = 0;    ///< decode estimate admitted at (0 on a drop).
  unsigned iterations = 0;  ///< turbo iterations the estimate assumes.
};

/// The one decode admission rule (paper §4.1 plus graceful degradation),
/// shared by every sim scheduler and the real-thread runtime. Admits at full
/// quality when `decode_start + full_estimate` meets the deadline (inclusive).
/// Otherwise, with degradation enabled, it tries caps from Lm - 1 down to
/// the floor clamp(min_iterations, 1, Lm - 1), costing cap c at
/// line.at(min(c, assumed_iters)). A cap at or above `assumed_iters` caps
/// nothing the estimate assumed — it is the decode that just failed — so it
/// is never admitted. The first cap that fits wins; none fitting drops.
inline Admission admit_decode(TimePoint decode_start, TimePoint deadline,
                              Duration full_estimate, const DecodeLine& line,
                              unsigned assumed_iters, unsigned lm,
                              const DegradeConfig& degrade) {
  if (decode_start + full_estimate <= deadline)
    return {lm, DegradeLevel::kNone, full_estimate, assumed_iters};
  if (!degrade.enabled || lm <= 1) return {};
  const unsigned floor = std::clamp(degrade.min_iterations, 1u, lm - 1);
  for (unsigned cap = std::min(lm, assumed_iters); cap-- > floor;) {
    const Duration est = line.at(cap, lm);
    if (decode_start + est <= deadline)
      return {cap,
              cap == floor ? DegradeLevel::kMinimalIterations
                           : DegradeLevel::kReducedIterations,
              est, cap};
  }
  return {};
}

/// Opt-in online adaptive estimation (ROADMAP item 5), shared by every
/// policy. When enabled, run() builds a model::OnlineEstimators bundle and
/// the decode admission estimate becomes the streaming Eq. (1) fit at the
/// per-BS predicted iteration count instead of the frozen WCET/optimistic
/// seed; RT-OPEX additionally sizes Algorithm-1 migration chunks with the
/// learned per-code-block time. Disabled (the default), every decision is
/// bit-identical to the static path. The estimators keep
/// model::AdaptiveParams' defaults; the regressor context fields are synced
/// from the workload config by core::run_scheduler.
struct AdaptiveConfig {
  bool enabled = false;
  unsigned num_antennas = 2;
  unsigned num_prb = 50;        ///< PRBs of the cell (10 MHz default).
  unsigned max_iterations = 4;  ///< turbo Lm (PR-2 iteration cap).
};

/// The per-run estimator bundle, or nullopt when adaptive is disabled.
std::optional<model::OnlineEstimators> make_estimators(
    const AdaptiveConfig& cfg, unsigned num_basestations);

/// Classifies fronthaul-faulted subframes (lost / arrived past deadline)
/// into `metrics` and returns the remaining executable workload. Lost
/// subframes never occupy a core; a late arrival is a deadline miss of its
/// own category (late_arrivals), also skipped — by the time it lands the
/// deadline is gone. Returns nullopt when nothing was filtered (the caller
/// keeps using the original span: no copy on the clean path). A non-null
/// `tracer` receives a kLost marker per lost subframe (at its radio time)
/// and a kLate marker per late arrival (at its arrival, a = ns past the
/// deadline), both on track 0 — the sim is single-threaded, so any track
/// is a legal producer.
std::optional<std::vector<sim::SubframeWork>> filter_faulted(
    std::span<const sim::SubframeWork> work, sim::SchedulerMetrics& metrics,
    obs::Tracer* tracer = nullptr);

/// Actual (jittered) decode duration when capped at `cap` iterations: the
/// sampled decode cost scaled down to the executed iteration count
/// min(L, cap) along the model's per-iteration slope.
Duration degraded_decode_time(const sim::SubframeWork& w, unsigned cap);

}  // namespace rtopex::sched
