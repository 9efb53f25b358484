// Continuous-profiling layer: scoped spans that carry hardware-counter
// deltas next to the stage-span vocabulary the tracer records. Each span
// samples a per-thread counter group at begin and end; the delta (cycles,
// instructions, LLC misses, branch misses, thread CPU time, page faults)
// is appended to a preallocated per-track sample slab, so steady-state
// profiling allocates nothing and never blocks the real-time path.
//
// Backends:
//  * kPerf      — perf_event_open grouped reads (one leader + 3 siblings
//                 per thread, PERF_FORMAT_GROUP with enabled/running time
//                 so multiplexed counts are rescaled). Linux only; needs
//                 perf_event_paranoid to permit unprivileged self-profiling.
//  * kSoftware  — CLOCK_THREAD_CPUTIME_ID + getrusage(RUSAGE_THREAD) minor/
//                 major fault counters. Always available; hardware fields
//                 stay zero. The span *structure* (frames, stages, nesting)
//                 is identical to the perf backend, so every consumer
//                 degrades gracefully.
//  * kSynthetic — a caller-supplied counter function, for deterministic
//                 golden tests under the virtual clock.
//  * kAuto      — probe perf at construction, fall back to software. This
//                 is the default: containers commonly deny perf_event_open
//                 (EPERM/EACCES) and the profiler must keep working.
//
// Threading contract mirrors obs::Tracer: each track is owned by exactly
// one producer thread (begin/end on that track must come from its owner);
// take()/aggregation happen after the producers have quiesced (joined, or
// provably done emitting on that track).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_utils.hpp"
#include "common/time_types.hpp"
#include "obs/trace_event.hpp"

namespace rtopex::obs::profile {

/// One counter snapshot / delta. Hardware fields are zero under the
/// software backend; software fields are filled under every backend, which
/// is what makes the two span streams structurally identical.
struct Counters {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t cpu_time_ns = 0;   ///< CLOCK_THREAD_CPUTIME_ID.
  std::uint64_t minor_faults = 0;  ///< ru_minflt.
  std::uint64_t major_faults = 0;  ///< ru_majflt.

  Counters operator-(const Counters& o) const {
    auto sub = [](std::uint64_t a, std::uint64_t b) {
      return a >= b ? a - b : 0;  // clamp: multiplex rescaling can jitter.
    };
    return {sub(cycles, o.cycles),
            sub(instructions, o.instructions),
            sub(llc_misses, o.llc_misses),
            sub(branch_misses, o.branch_misses),
            sub(cpu_time_ns, o.cpu_time_ns),
            sub(minor_faults, o.minor_faults),
            sub(major_faults, o.major_faults)};
  }
  Counters& operator+=(const Counters& o) {
    cycles += o.cycles;
    instructions += o.instructions;
    llc_misses += o.llc_misses;
    branch_misses += o.branch_misses;
    cpu_time_ns += o.cpu_time_ns;
    minor_faults += o.minor_faults;
    major_faults += o.major_faults;
    return *this;
  }
  friend bool operator==(const Counters&, const Counters&) = default;
};

enum class Backend : std::uint8_t { kAuto = 0, kPerf, kSoftware, kSynthetic };

const char* to_string(Backend backend);

/// Profiling knobs embedded in substrate configs (RuntimeConfig etc.).
struct ProfileConfig {
  bool enabled = false;
  Backend backend = Backend::kAuto;
  /// Preallocated samples per track; spans past this are counted as drops.
  std::size_t max_samples_per_track = 1 << 15;
  /// kSynthetic only: returns the next counter snapshot. Called once at
  /// span begin and once at end, on the owning thread.
  std::function<Counters()> synthetic_read;
};

/// Deepest span nesting a track keeps; a begin() past this depth records a
/// drop and its end() is a no-op. Four levels cover the runtime's deepest
/// stack (process; subframe; stage; substage).
inline constexpr unsigned kMaxSpanDepth = 8;

/// One closed span. `frames` are the open-span names root-first (string
/// literals with static storage — the profiler never copies them). `a`/`b`
/// are caller payload words, conventionally mirroring the trace vocabulary
/// (decode spans: a = packed regressors, b = D | L << 16; see
/// pack_decode_regressors below).
struct ProfileSample {
  TimePoint ts_begin = 0;
  TimePoint ts_end = 0;
  Counters delta;
  const char* frames[kMaxSpanDepth] = {};
  std::uint8_t depth = 0;  ///< number of valid entries in frames.
  Stage stage = Stage::kNone;
  std::uint32_t bs = 0;
  std::uint32_t index = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t core = 0;  ///< track the span ran on.
};

/// Everything the profiler recorded, plus the loss counters (spans dropped
/// on full slabs or past kMaxSpanDepth) and the backend that actually ran.
struct ProfileStore {
  std::vector<ProfileSample> samples;
  std::uint64_t drops = 0;
  Backend backend = Backend::kSoftware;
};

/// Packs the Eq. (1) regressors a decode span carries: a = modulation
/// order | antennas << 8 | mcs << 16, b = code blocks | iterations << 16.
inline std::uint32_t pack_decode_regressors(unsigned mod_order,
                                            unsigned antennas, unsigned mcs) {
  return (mod_order & 0xffu) | ((antennas & 0xffu) << 8) |
         ((mcs & 0xffu) << 16);
}
inline std::uint32_t pack_decode_load(unsigned code_blocks,
                                      unsigned iterations) {
  return (code_blocks & 0xffffu) | ((iterations & 0xffffu) << 16);
}

class Profiler {
 public:
  /// Resolves kAuto by probing perf_event_open on the calling thread. The
  /// per-track counter groups are opened lazily by each track's owner on
  /// its first begin(); a track whose open fails (perf revoked mid-run)
  /// degrades to software counters for its own samples.
  Profiler(unsigned num_tracks, const ProfileConfig& config);
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  unsigned num_tracks() const { return static_cast<unsigned>(tracks_.size()); }
  /// The backend spans actually sample with (never kAuto).
  Backend backend() const { return backend_; }

  /// Opaque span token; pass the value begin() returned to the matching
  /// end() on the same track/thread.
  struct SpanToken {
    std::uint8_t depth = 0;
    bool live = false;
  };

  /// Opens a span on `track` (owner thread only) at the caller's instant
  /// `ts`: the profiler reads no clock of its own, so a span can share its
  /// timestamps with the trace events of the same edge. `name` must be a
  /// string literal or otherwise outlive the profiler.
  SpanToken begin(unsigned track, TimePoint ts, const char* name,
                  Stage stage = Stage::kNone, std::uint32_t bs = 0,
                  std::uint32_t index = 0);

  /// Closes the span `token` opened on `track` at instant `ts`, recording
  /// the counter delta. `a`/`b` are stored on the sample verbatim.
  void end(unsigned track, SpanToken token, TimePoint ts, std::uint32_t a = 0,
           std::uint32_t b = 0);

  /// Spans dropped (full slab or depth overflow) on one track / overall.
  std::uint64_t drops(unsigned track) const;
  std::uint64_t total_drops() const;

  /// Moves everything recorded so far out (slabs keep their reserved
  /// capacity, so profiling can continue allocation-free afterwards).
  /// Producers must be quiescent across the call.
  ProfileStore take();

 private:
  struct Track;

  Counters read_counters(Track& track);

  std::vector<std::unique_ptr<Track>> tracks_;
  ProfileConfig config_;
  Backend backend_ = Backend::kSoftware;
};

/// RAII convenience over Profiler::begin/end for bench, example and test
/// code, stamping both ends with the process monotonic clock. (The runtime
/// stamps its spans through runtime::StageScope instead.)
class ProfileSpan {
 public:
  ProfileSpan(Profiler* profiler, unsigned track, const char* name,
              Stage stage = Stage::kNone, std::uint32_t bs = 0,
              std::uint32_t index = 0)
      : profiler_(profiler), track_(track) {
    if (profiler_)
      token_ = profiler_->begin(track, monotonic_ns(), name, stage, bs, index);
  }
  ~ProfileSpan() { close(); }

  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

  void set_payload(std::uint32_t a, std::uint32_t b) {
    a_ = a;
    b_ = b;
  }
  /// Ends the span early (the destructor becomes a no-op).
  void close() {
    if (profiler_ && token_.live)
      profiler_->end(track_, token_, monotonic_ns(), a_, b_);
    token_.live = false;
  }

 private:
  Profiler* profiler_ = nullptr;
  unsigned track_ = 0;
  Profiler::SpanToken token_;
  std::uint32_t a_ = 0;
  std::uint32_t b_ = 0;
};

/// True when perf_event_open works for self-profiling on this system (the
/// probe the kAuto resolution uses). False on kernels without perf, under
/// seccomp filters, or with perf_event_paranoid locked down.
bool perf_available();

}  // namespace rtopex::obs::profile
