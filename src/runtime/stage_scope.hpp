// The real-thread runtime's one instrumentation point. A StageScope follows
// one subframe, or one hosted migration chunk, on one worker track. Each
// edge reads the GlobalClock once and hands that instant to the trace
// event, to the profile span and to the caller, so a stage's
// kStageBegin/kStageEnd, its profile sample and the width the caller stores
// in SubframeRecord::timing are one interval. Adjacent stages share their
// edge (FFT end = demod begin, demod end = decode begin).
#pragma once

#include <cstdint>

#include "common/time_types.hpp"
#include "obs/profile/profile.hpp"
#include "obs/tracer.hpp"
#include "runtime/clock.hpp"

namespace rtopex::runtime {

class StageScope {
 public:
  StageScope() = default;
  /// Events and spans go to `track`; the tracer and the profiler may each
  /// be null, and the clock is read either way (the caller needs the
  /// instants).
  StageScope(const GlobalClock& clock, obs::Tracer* tracer,
             obs::profile::Profiler* profiler, std::uint32_t track,
             std::uint32_t bs, std::uint32_t index)
      : clock_(&clock),
        tracer_(tracer),
        profiler_(profiler),
        track_(track),
        bs_(bs),
        index_(index) {}

  /// The subframe begins: kSubframeBegin and the "subframe" span. A `fused`
  /// subframe decodes in a cross-subframe window that the pass profiles as
  /// a span of its own, so its "subframe" span ends where its decode begins
  /// and its decode stage has trace events only. Returns the instant.
  TimePoint open(bool fused) {
    fused_ = fused;
    at_ = clock_->now();
    emit(obs::EventKind::kSubframeBegin, obs::Stage::kNone, 0, 0);
    begin_span(root_, "subframe", obs::Stage::kNone);
    return at_;
  }

  /// One edge: ends the open stage, if any (kStageEnd, and its span with
  /// the payload set_payload() left), then begins `next` unless it is
  /// kNone (kStageBegin carries the admission estimate `a`/`b`). Returns
  /// the width of the stage it ended, 0 when none was open. edge() alone
  /// is a subframe's end edge.
  Duration edge(obs::Stage next = obs::Stage::kNone, std::uint32_t a = 0,
                std::uint32_t b = 0) {
    const TimePoint since = at_;
    at_ = clock_->now();
    const obs::Stage ended = stage_;
    if (ended != obs::Stage::kNone) {
      emit(obs::EventKind::kStageEnd, ended, 0, 0);
      end_span(stage_span_, payload_a_, payload_b_);
    }
    stage_ = next;
    payload_a_ = payload_b_ = 0;
    if (next != obs::Stage::kNone) {
      emit(obs::EventKind::kStageBegin, next, a, b);
      if (fused_ && next == obs::Stage::kDecode)
        end_span(root_, 0, 0);
      else
        begin_span(stage_span_, obs::to_string(next), next);
    }
    return ended != obs::Stage::kNone ? at_ - since : 0;
  }

  /// Profile payload the open stage's span ends with.
  void set_payload(std::uint32_t a, std::uint32_t b) {
    payload_a_ = a;
    payload_b_ = b;
  }

  /// The instant of the latest edge.
  TimePoint at() const { return at_; }

  /// The subframe ends at its latest edge: kSubframeEnd (a = deadline
  /// missed, b = turbo iterations executed) and the "subframe" span.
  void close(bool missed, unsigned iterations) {
    emit(obs::EventKind::kSubframeEnd, obs::Stage::kNone, missed ? 1u : 0u,
         iterations);
    end_span(root_, 0, 0);
  }

  /// A hosted chunk of `stage` subtasks migrated from `src_core` begins:
  /// kHostBegin, the "host" span and its stage child.
  void open_host(std::uint32_t src_core, obs::Stage stage) {
    at_ = clock_->now();
    emit(obs::EventKind::kHostBegin, stage, src_core, 0);
    begin_span(root_, "host", obs::Stage::kNone);
    begin_span(stage_span_, obs::to_string(stage), stage);
  }

  /// The hosted chunk ends after `served` subtasks. The stage child carries
  /// no payload: a/b on decode-stage spans are reserved for the packed
  /// Eq. (1) regressors the fit consumes.
  void close_host(std::uint32_t src_core, obs::Stage stage,
                  std::uint32_t served) {
    at_ = clock_->now();
    end_span(stage_span_, 0, 0);
    end_span(root_, src_core, served);
    emit(obs::EventKind::kHostEnd, stage, src_core, served);
  }

 private:
  struct Span {
    obs::profile::Profiler::SpanToken token;
    bool open = false;
  };

  void emit([[maybe_unused]] obs::EventKind kind,
            [[maybe_unused]] obs::Stage stage, [[maybe_unused]] std::uint32_t a,
            [[maybe_unused]] std::uint32_t b) {
    RTOPEX_TRACE_EVENT(tracer_, .ts = at_, .bs = bs_, .index = index_, .a = a,
                       .b = b, .core = track_, .kind = kind, .stage = stage);
  }

  void begin_span(Span& span, const char* name, obs::Stage stage) {
    if (!profiler_) return;
    span.token = profiler_->begin(track_, at_, name, stage, bs_, index_);
    span.open = true;
  }

  void end_span(Span& span, std::uint32_t a, std::uint32_t b) {
    if (!span.open) return;
    profiler_->end(track_, span.token, at_, a, b);
    span.open = false;
  }

  const GlobalClock* clock_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::profile::Profiler* profiler_ = nullptr;
  std::uint32_t track_ = 0;
  std::uint32_t bs_ = 0;
  std::uint32_t index_ = 0;
  bool fused_ = false;
  TimePoint at_ = 0;
  obs::Stage stage_ = obs::Stage::kNone;
  Span root_;
  Span stage_span_;
  std::uint32_t payload_a_ = 0;
  std::uint32_t payload_b_ = 0;
};

}  // namespace rtopex::runtime
