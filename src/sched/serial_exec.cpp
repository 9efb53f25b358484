#include "sched/serial_exec.hpp"

#include <algorithm>

#include "sched/scheduler.hpp"

namespace rtopex::sched {

std::optional<model::OnlineEstimators> make_estimators(
    const AdaptiveConfig& cfg, unsigned num_basestations) {
  if (!cfg.enabled) return std::nullopt;
  return model::OnlineEstimators(cfg.num_antennas, cfg.num_prb,
                                 num_basestations, cfg.max_iterations);
}

namespace {

/// The chain's stages on the core itself. The decode's full-quality
/// estimate is the WCET (kWcet) or best-case (kOptimistic) decode, which
/// the Eq. (1) fit at the assumed iterations replaces under adaptive
/// estimation.
struct SerialStages {
  static constexpr bool kFitsFull = true;
  AdmissionPolicy admission;

  StageRun fft(const sim::SubframeWork& w, TimePoint t, SerialOutcome&) const {
    return {t + w.costs.fft};
  }
  DecodeEstimates decode_estimates(const sim::SubframeWork& w,
                                   TimePoint) const {
    const Duration full = admission == AdmissionPolicy::kWcet
                              ? w.wcet.decode
                              : w.decode_optimistic;
    return {full, full};
  }
  StageRun decode(const sim::SubframeWork& w, TimePoint t,
                  SerialOutcome&) const {
    return {t + w.costs.decode, w.costs.decode};
  }
};

}  // namespace

std::optional<std::vector<sim::SubframeWork>> filter_faulted(
    std::span<const sim::SubframeWork> work, sim::SchedulerMetrics& metrics,
    obs::Tracer* tracer) {
  bool any = false;
  for (const auto& w : work)
    if (w.lost || w.arrival > w.deadline) {
      any = true;
      break;
    }
  if (!any) return std::nullopt;
  std::vector<sim::SubframeWork> rest;
  rest.reserve(work.size());
  for (const auto& w : work) {
    if (!w.lost && w.arrival <= w.deadline) {
      rest.push_back(w);
      continue;
    }
    ++metrics.total_subframes;
    if (w.bs < metrics.per_bs.size()) ++metrics.per_bs[w.bs].subframes;
    if (w.lost) {
      ++metrics.resilience.lost_subframes;
      RTOPEX_TRACE_EVENT(tracer, .ts = w.radio_time, .bs = w.bs,
                         .index = w.index, .kind = obs::EventKind::kLost);
      continue;  // never arrived: not a processing miss
    }
    ++metrics.resilience.late_arrivals;
    ++metrics.deadline_misses;
    if (w.bs < metrics.per_bs.size()) ++metrics.per_bs[w.bs].misses;
    RTOPEX_TRACE_EVENT(tracer, .ts = w.arrival, .bs = w.bs, .index = w.index,
                       .a = obs::clamp_payload_ns(w.arrival - w.deadline),
                       .b = obs::clamp_payload_ns(w.arrival - w.radio_time),
                       .kind = obs::EventKind::kLate);
  }
  if (tracer) tracer->collect();
  return rest;
}

Duration degraded_decode_time(const sim::SubframeWork& w, unsigned cap) {
  const unsigned executed = std::min(w.iterations, cap);
  // Scale the sampled (jittered) cost to the executed iteration count
  // along the model slope: jitter multiplies the whole decode, so the
  // ratio of model predictions carries it.
  const DecodeLine line = static_decode_line(w);
  const Duration predicted = line.at(w.iterations, w.lm);
  if (predicted <= 0) return w.costs.decode;
  return static_cast<Duration>(
      static_cast<double>(w.costs.decode) *
      static_cast<double>(line.at(executed, w.lm)) /
      static_cast<double>(predicted));
}

bool apply_admission(SerialOutcome& o, const Admission& adm,
                     const sim::SubframeWork& w, TimePoint t,
                     obs::Tracer* tracer, unsigned core) {
  if (adm.cap == 0) {
    o.end = t;
    o.miss = o.dropped = true;
    o.missed_stage = obs::Stage::kDecode;
    RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                       .core = core, .kind = obs::EventKind::kDrop,
                       .stage = obs::Stage::kDecode);
    return false;
  }
  o.degrade = adm.level;
  o.degraded_failure = w.decodable && w.iterations > adm.cap;
  o.executed_iterations = std::min(w.iterations, adm.cap);
  o.decode_est_ns = adm.estimate;
  if (adm.level != DegradeLevel::kNone)
    RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                       .a = adm.cap, .core = core,
                       .kind = obs::EventKind::kDegrade,
                       .stage = obs::Stage::kDecode);
  RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                     .a = obs::clamp_payload_ns(adm.estimate),
                     .b = adm.iterations, .core = core,
                     .kind = obs::EventKind::kStageBegin,
                     .stage = obs::Stage::kDecode);
  return true;
}

SerialOutcome execute_serial(const sim::SubframeWork& w, TimePoint start,
                             Duration entry_penalty,
                             AdmissionPolicy admission,
                             const DegradeConfig& degrade,
                             obs::Tracer* tracer, unsigned core,
                             model::OnlineEstimators* adaptive) {
  SerialStages stages{admission};
  return run_stage_chain(w, start, stages, entry_penalty, admission, degrade,
                         tracer, core, adaptive);
}

void finish_subframe(const SerialOutcome& o, const sim::SubframeWork& w,
                     unsigned core, TimePoint start, bool record_timeline,
                     bool record_samples, obs::Tracer* tracer,
                     sim::SchedulerMetrics& metrics) {
  RTOPEX_TRACE_EVENT(tracer, .ts = o.end, .bs = w.bs, .index = w.index,
                     .a = o.miss ? 1u : 0u, .b = o.executed_iterations,
                     .core = core, .kind = obs::EventKind::kSubframeEnd);
  if (tracer) tracer->collect();
  if (record_timeline)
    metrics.timeline.push_back({w.bs, w.index, core, start, o.end, o.miss,
                                o.missed_stage, o.host_core});

  ++metrics.total_subframes;
  ++metrics.per_bs[w.bs].subframes;
  // Quality level over executed subframes; capped-decode NACKs are counted
  // apart from ordinary decode failures.
  if (!o.dropped) {
    metrics.resilience.degrade_histogram[static_cast<unsigned>(o.degrade)] +=
        1;
    if (o.degrade != DegradeLevel::kNone) {
      ++metrics.resilience.degraded;
      if (o.completed && o.degraded_failure)
        ++metrics.resilience.degraded_decode_failures;
    }
  }
  if (o.fft_ns >= 0) metrics.record_stage(obs::Stage::kFft, to_us(o.fft_ns));
  if (o.demod_ns >= 0)
    metrics.record_stage(obs::Stage::kDemod, to_us(o.demod_ns));
  if (o.decode_ns >= 0)
    metrics.record_stage(obs::Stage::kDecode, to_us(o.decode_ns));
  // Estimate accuracy: the estimate actually used vs the frozen static seed,
  // each against the executed decode. Only decodes that ran to natural
  // completion count (a terminated decode's duration is deadline-truncated).
  if (o.decode_ns >= 0 && !o.terminated && o.decode_est_ns >= 0)
    metrics.record_decode_estimate(to_us(o.decode_est_ns),
                                   to_us(o.decode_static_est_ns),
                                   to_us(o.decode_ns));
  if (o.miss) {
    ++metrics.deadline_misses;
    ++metrics.per_bs[w.bs].misses;
    if (o.dropped) ++metrics.dropped;
    if (o.terminated) ++metrics.terminated;
  } else {
    metrics.record_processing(w.bs, to_us(o.end - w.arrival), record_samples);
    if (!w.decodable) ++metrics.decode_failures;
  }
}

}  // namespace rtopex::sched
