// The simulator's one FFT -> demod -> decode stage chain, shared by the
// three sim policies, with what it needs: the decode-admission inputs, the
// checked stage step, and the per-subframe prologue and epilogue. Each
// policy supplies only how its two parallelizable stages execute: on the
// core itself (execute_serial: partitioned, global) or through Algorithm 1
// and the migration model (RT-OPEX, rt_opex.cpp).
#pragma once

#include "obs/tracer.hpp"
#include "sched/scheduler.hpp"
#include "sim/workload.hpp"

namespace rtopex::sched {

struct SerialOutcome {
  TimePoint end = 0;       ///< when the core becomes free.
  bool miss = false;       ///< dropped or terminated (deadline miss).
  bool dropped = false;    ///< rejected by a slack check (no decode ran).
  bool terminated = false; ///< killed mid-execution at the deadline.
  bool completed = false;  ///< all stages ran to completion in time.
  /// Quality level the decode ran at (degradation enabled only).
  DegradeLevel degrade = DegradeLevel::kNone;
  /// Decodable subframe that NACKed *because* of the iteration cap.
  bool degraded_failure = false;
  /// Stage at which the miss occurred (kNone when the subframe completed).
  obs::Stage missed_stage = obs::Stage::kNone;
  /// Turbo iterations the decode executed (capped under degradation; 0 when
  /// the decode never ran). Mirrored into kSubframeEnd's `b` payload.
  unsigned executed_iterations = 0;
  /// Per-stage execution time in ns; -1 when the stage never ran. The FFT
  /// figure includes the entry penalty (charged before the stage).
  Duration fft_ns = -1;
  Duration demod_ns = -1;
  Duration decode_ns = -1;
  /// Admission estimate the decode ran under (post-degradation when the
  /// cap shrank; -1 when the decode was never admitted). Compared against
  /// decode_ns for estimate-accuracy accounting.
  Duration decode_est_ns = -1;
  /// The frozen static seed's full-quality estimate for the same decode:
  /// the reference decode_est_ns is scored against.
  Duration decode_static_est_ns = -1;
  /// First remote core that hosted a migrated chunk (RT-OPEX only; -1 when
  /// nothing migrated).
  int host_core = -1;
};

/// How a scheduler ran one of the chain's parallelizable stages.
struct StageRun {
  TimePoint end = 0;   ///< when the stage's results are complete.
  Duration work = 0;   ///< serial decode work executed (the Eq. (1) sample).
  bool lost = false;   ///< migrated results lost (RT-OPEX, recovery off).
};

/// A scheduler's pair of fit-free full-quality decode estimates: the one
/// admission checks (before refine_decode) and the frozen static seed's,
/// which decode_est_ns is scored against.
struct DecodeEstimates {
  Duration full = 0;
  Duration reference = 0;
};

/// The static task model's (jitter-free) decode line: the sim's seed for
/// the Eq. (1) line capped decodes are costed on.
inline DecodeLine static_decode_line(const sim::SubframeWork& w) {
  return {w.decode_optimistic, w.wcet.decode};
}

/// Runs FFT -> demod -> decode on the core itself from `start`: the stage
/// chain below with SerialStages. `entry_penalty` models extra
/// per-dispatch cost (e.g. the global scheduler's cache-refill after a
/// basestation switch); it is charged before the FFT stage. The decode is
/// admitted by admit_decode (with `degrade.enabled`, a failed full-quality
/// check shrinks the iteration cap before dropping). A non-null `tracer`
/// receives stage spans, degrade markers and drop/terminate instants on
/// track `core`, stamped with virtual time. A non-null `adaptive` bundle
/// replaces the static decode estimate and line with the learned Eq. (1)
/// fit and is fed the executed stage observations afterwards; null keeps
/// the static path bit-identical.
SerialOutcome execute_serial(const sim::SubframeWork& w, TimePoint start,
                             Duration entry_penalty = 0,
                             AdmissionPolicy admission = AdmissionPolicy::kWcet,
                             const DegradeConfig& degrade = {},
                             obs::Tracer* tracer = nullptr,
                             unsigned core = 0,
                             model::OnlineEstimators* adaptive = nullptr);

/// Applies a decode admission to `o` at decode start `t`: a drop marks the
/// outcome and emits kDrop; otherwise it records the quality level, the
/// admitted estimate and the iterations the decode will execute, and emits
/// kDegrade (capped decodes only) and the decode kStageBegin. Returns whether
/// the decode runs.
bool apply_admission(SerialOutcome& o, const Admission& adm,
                     const sim::SubframeWork& w, TimePoint t,
                     obs::Tracer* tracer, unsigned core);

/// The per-subframe prologue every sim scheduler runs once `w` starts on
/// `core` at `start`: the idle gap since the core's previous subframe ended
/// at `free_at` (when the core has run one), then the kArrival and
/// kSubframeBegin events.
inline void begin_subframe([[maybe_unused]] const sim::SubframeWork& w,
                           [[maybe_unused]] unsigned core, TimePoint start,
                           TimePoint free_at, bool used, bool record_samples,
                           [[maybe_unused]] obs::Tracer* tracer,
                           sim::SchedulerMetrics& metrics) {
  if (used && start > free_at) {
    metrics.record_gap(to_us(start - free_at), record_samples);
    RTOPEX_TRACE_EVENT(tracer, .ts = free_at, .core = core,
                       .kind = obs::EventKind::kGapBegin);
    RTOPEX_TRACE_EVENT(tracer, .ts = start, .core = core,
                       .kind = obs::EventKind::kGapEnd);
  }
  RTOPEX_TRACE_EVENT(tracer, .ts = w.arrival, .bs = w.bs, .index = w.index,
                     .a = obs::clamp_payload_ns(w.deadline - w.arrival),
                     .b = obs::clamp_payload_ns(w.arrival - w.radio_time),
                     .core = core, .kind = obs::EventKind::kArrival);
  RTOPEX_TRACE_EVENT(tracer, .ts = start, .bs = w.bs, .index = w.index,
                     .core = core, .kind = obs::EventKind::kSubframeBegin);
}

/// One FFT or demod stage of `w` on `core` from `t`, slack-checked exactly
/// against its deterministic duration `cost`: when that would overrun the
/// deadline the subframe drops there (kDrop, `o` marked dropped at `t`);
/// otherwise kStageBegin carries `cost`, `execute(t)` runs the stage and
/// returns its end, `t` advances to it and kStageEnd closes the stage,
/// whose time lands in `o`. Returns whether the stage ran.
template <class Execute>
bool run_checked_stage(SerialOutcome& o, obs::Stage stage, Duration cost,
                       const sim::SubframeWork& w, TimePoint& t,
                       [[maybe_unused]] obs::Tracer* tracer,
                       [[maybe_unused]] unsigned core, Execute&& execute) {
  if (t + cost > w.deadline) {
    o.end = t;
    o.miss = o.dropped = true;
    o.missed_stage = stage;
    RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                       .core = core, .kind = obs::EventKind::kDrop,
                       .stage = stage);
    return false;
  }
  RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                     .a = obs::clamp_payload_ns(cost), .core = core,
                     .kind = obs::EventKind::kStageBegin, .stage = stage);
  const TimePoint begin = t;
  t = execute(t);
  (stage == obs::Stage::kFft ? o.fft_ns : o.demod_ns) = t - begin;
  RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                     .core = core, .kind = obs::EventKind::kStageEnd,
                     .stage = stage);
  return true;
}

/// The sim's one FFT -> demod -> decode chain for `w` on `core` from
/// `start`. It owns what the three schedulers share: the exact FFT (plus
/// `entry_penalty`) and demod slack checks, decode admission through
/// admit_decode, termination at the deadline, the miss of a stage whose
/// migrated results were lost, every stage, drop, degrade and terminate
/// event, and the feedback into a non-null `adaptive`. `stages`, chosen at
/// compile time, runs the FFT (`fft(w, t, o)`), gives the decode's
/// fit-free estimates at its start (`decode_estimates(w, t)`) and runs a
/// decode admitted at full quality (`decode(w, t, o)`); a capped decode
/// runs serially on the core in every scheduler. model::refine_decode
/// turns that estimate, the static line and the policy's iterations (Lm
/// under kWcet, 1 under kOptimistic) into admit_decode's inputs: a
/// non-null `adaptive` supplies the per-BS iteration prediction, the line
/// (under degradation only) and, where `Stages::kFitsFull`, the full
/// estimate.
template <class Stages>
SerialOutcome run_stage_chain(const sim::SubframeWork& w, TimePoint start,
                              Stages& stages, Duration entry_penalty,
                              AdmissionPolicy admission,
                              const DegradeConfig& degrade,
                              obs::Tracer* tracer, unsigned core,
                              model::OnlineEstimators* adaptive) {
  SerialOutcome o;
  TimePoint t = start;
  bool fft_lost = false;
  if (!run_checked_stage(o, obs::Stage::kFft, w.costs.fft + entry_penalty, w,
                         t, tracer, core, [&](TimePoint at) {
                           const StageRun fft =
                               stages.fft(w, at + entry_penalty, o);
                           fft_lost = fft.lost;
                           return fft.end;
                         }))
    return o;
  if (adaptive) adaptive->observe_fft(w.costs.fft_subtask);
  if (fft_lost) {
    o.end = t;
    o.miss = true;
    o.missed_stage = obs::Stage::kFft;
    return o;
  }
  if (!run_checked_stage(o, obs::Stage::kDemod, w.costs.demod, w, t, tracer,
                         core,
                         [&](TimePoint at) { return at + w.costs.demod; }))
    return o;

  // Decode: the scheduler's full-quality estimate, refined by the online
  // state, through the one admission rule, then execution with termination
  // at the deadline.
  const DecodeEstimates own = stages.decode_estimates(w, t);
  o.decode_static_est_ns = own.reference;
  const model::DecodeEstimate est = model::refine_decode(
      {own.full, static_decode_line(w),
       admission == AdmissionPolicy::kWcet ? w.lm : 1u},
      adaptive, w.bs, w.mcs, w.lm, Stages::kFitsFull, degrade.enabled);
  const Admission adm = admit_decode(t, w.deadline, est.full, est.line,
                                     est.assumed, w.lm, degrade);
  if (!apply_admission(o, adm, w, t, tracer, core)) return o;
  StageRun decode;
  if (adm.level == DegradeLevel::kNone) {
    decode = stages.decode(w, t, o);
  } else {  // migration plans assume full-quality subtask times
    decode.work = degraded_decode_time(w, adm.cap);
    decode.end = t + decode.work;
  }
  o.end = decode.end;
  if (decode.lost) {
    o.miss = true;
    o.missed_stage = obs::Stage::kDecode;
  } else if (o.end > w.deadline) {
    o.end = w.deadline;
    o.miss = o.terminated = true;
    o.missed_stage = obs::Stage::kDecode;
  }
  o.decode_ns = o.end - t;
  RTOPEX_TRACE_EVENT(tracer, .ts = o.end, .bs = w.bs, .index = w.index,
                     .core = core, .kind = obs::EventKind::kStageEnd,
                     .stage = obs::Stage::kDecode);
  if (o.terminated)
    RTOPEX_TRACE_EVENT(tracer, .ts = o.end, .bs = w.bs, .index = w.index,
                       .core = core, .kind = obs::EventKind::kTerminate,
                       .stage = obs::Stage::kDecode);
  if (o.miss) return o;
  o.completed = true;
  // Close the loop: the executed iteration count and the serial work it
  // produced are a consistent Eq. (1) sample even on the degraded path.
  if (adaptive)
    adaptive->observe_decode(w.bs, w.mcs, o.executed_iterations, decode.work,
                             w.costs.decode_subtask);
  return o;
}

/// The per-subframe epilogue every sim scheduler runs once `w` finished on
/// `core` (started at `start`): the kSubframeEnd event and a tracer collect,
/// the timeline entry, and the outcome folded into the metrics.
void finish_subframe(const SerialOutcome& o, const sim::SubframeWork& w,
                     unsigned core, TimePoint start, bool record_timeline,
                     bool record_samples, obs::Tracer* tracer,
                     sim::SchedulerMetrics& metrics);

}  // namespace rtopex::sched
