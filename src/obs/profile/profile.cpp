#include "obs/profile/profile.hpp"

#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#endif

namespace rtopex::obs::profile {

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kAuto: return "auto";
    case Backend::kPerf: return "perf";
    case Backend::kSoftware: return "software";
    case Backend::kSynthetic: return "synthetic";
  }
  return "unknown";
}

namespace {

#if defined(__linux__)

/// One grouped perf_event fd set for the calling thread: cycles (leader),
/// instructions, LLC misses, branch misses. Grouped so one read() returns
/// all four atomically, with enabled/running times for multiplex rescaling.
struct PerfGroup {
  static constexpr int kNumEvents = 4;
  int fd[kNumEvents] = {-1, -1, -1, -1};
  bool open_ok = false;

  static long perf_event_open(perf_event_attr* attr, pid_t pid, int cpu,
                              int group_fd, unsigned long flags) {
    return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
  }

  bool open() {
    const std::uint64_t configs[kNumEvents] = {
        PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
        PERF_COUNT_HW_CACHE_MISSES, PERF_COUNT_HW_BRANCH_MISSES};
    for (int i = 0; i < kNumEvents; ++i) {
      perf_event_attr attr;
      std::memset(&attr, 0, sizeof(attr));
      attr.type = PERF_TYPE_HARDWARE;
      attr.size = sizeof(attr);
      attr.config = configs[i];
      attr.disabled = i == 0 ? 1 : 0;
      attr.exclude_kernel = 1;
      attr.exclude_hv = 1;
      attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                         PERF_FORMAT_TOTAL_TIME_RUNNING;
      const long r = perf_event_open(&attr, /*pid=*/0, /*cpu=*/-1,
                                     /*group_fd=*/i == 0 ? -1 : fd[0],
                                     PERF_FLAG_FD_CLOEXEC);
      if (r < 0) {
        close();
        return false;
      }
      fd[i] = static_cast<int>(r);
    }
    if (ioctl(fd[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP) != 0 ||
        ioctl(fd[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
      close();
      return false;
    }
    open_ok = true;
    return true;
  }

  /// Fills the four hardware fields of `out`, rescaled for multiplexing
  /// (count * enabled / running). Leaves them untouched on a failed read.
  void read_into(Counters& out) const {
    struct {
      std::uint64_t nr;
      std::uint64_t time_enabled;
      std::uint64_t time_running;
      std::uint64_t values[kNumEvents];
    } data;
    if (!open_ok) return;
    const ssize_t n = ::read(fd[0], &data, sizeof(data));
    if (n < static_cast<ssize_t>(sizeof(std::uint64_t) * 3) ||
        data.nr != kNumEvents)
      return;
    const double scale =
        data.time_running > 0 ? static_cast<double>(data.time_enabled) /
                                    static_cast<double>(data.time_running)
                              : 1.0;
    auto scaled = [scale](std::uint64_t v) {
      return static_cast<std::uint64_t>(static_cast<double>(v) * scale);
    };
    out.cycles = scaled(data.values[0]);
    out.instructions = scaled(data.values[1]);
    out.llc_misses = scaled(data.values[2]);
    out.branch_misses = scaled(data.values[3]);
  }

  void close() {
    for (int& f : fd) {
      if (f >= 0) ::close(f);
      f = -1;
    }
    open_ok = false;
  }
};

void read_software(Counters& out) {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    out.cpu_time_ns = static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
                      static_cast<std::uint64_t>(ts.tv_nsec);
  rusage ru;
  if (getrusage(RUSAGE_THREAD, &ru) == 0) {
    out.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
    out.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
  }
}

#else  // !__linux__

struct PerfGroup {
  bool open_ok = false;
  bool open() { return false; }
  void read_into(Counters&) const {}
  void close() {}
};

void read_software(Counters&) {}

#endif

}  // namespace

bool perf_available() {
  PerfGroup probe;
  const bool ok = probe.open();
  probe.close();
  return ok;
}

/// Per-track state. Owned by exactly one producer thread between begin()
/// and end(); the sample slab is preallocated so the steady state never
/// touches the heap.
struct Profiler::Track {
  struct OpenSpan {
    const char* name = nullptr;
    Stage stage = Stage::kNone;
    std::uint32_t bs = 0;
    std::uint32_t index = 0;
    TimePoint ts = 0;
    Counters at_begin;
  };
  OpenSpan stack[kMaxSpanDepth];
  std::uint8_t depth = 0;
  std::uint32_t overflow = 0;  ///< spans open past kMaxSpanDepth.
  std::vector<ProfileSample> samples;
  std::uint64_t drops = 0;
  PerfGroup perf;
  bool perf_tried = false;
};

Profiler::Profiler(unsigned num_tracks, const ProfileConfig& config)
    : config_(config) {
  backend_ = config.backend;
  if (backend_ == Backend::kAuto)
    backend_ = perf_available() ? Backend::kPerf : Backend::kSoftware;
  if (backend_ == Backend::kSynthetic && !config_.synthetic_read)
    backend_ = Backend::kSoftware;
  tracks_.reserve(num_tracks);
  for (unsigned i = 0; i < num_tracks; ++i) {
    tracks_.push_back(std::make_unique<Track>());
    tracks_.back()->samples.reserve(config_.max_samples_per_track);
  }
}

Profiler::~Profiler() {
  for (auto& t : tracks_) t->perf.close();
}

Counters Profiler::read_counters(Track& track) {
  Counters c;
  if (backend_ == Backend::kSynthetic) return config_.synthetic_read();
  read_software(c);
  if (backend_ == Backend::kPerf) {
    // Lazy per-thread open: perf groups count the opening thread, so the
    // owner must open its own. A failed open (perf revoked after the
    // construction-time probe) leaves this track on software counters.
    if (!track.perf_tried) {
      track.perf_tried = true;
      track.perf.open();
    }
    track.perf.read_into(c);
  }
  return c;
}

Profiler::SpanToken Profiler::begin(unsigned track_id, TimePoint ts,
                                    const char* name, Stage stage,
                                    std::uint32_t bs, std::uint32_t index) {
  Track& t = *tracks_[track_id];
  if (t.depth >= kMaxSpanDepth) {
    ++t.overflow;
    ++t.drops;
    return SpanToken{t.depth, false};
  }
  Track::OpenSpan& s = t.stack[t.depth];
  s.name = name;
  s.stage = stage;
  s.bs = bs;
  s.index = index;
  s.ts = ts;
  s.at_begin = read_counters(t);
  const SpanToken token{t.depth, true};
  ++t.depth;
  return token;
}

void Profiler::end(unsigned track_id, SpanToken token, TimePoint ts,
                   std::uint32_t a, std::uint32_t b) {
  Track& t = *tracks_[track_id];
  if (!token.live) {
    // The matching begin() overflowed; unwind its overflow marker.
    if (t.overflow > 0) --t.overflow;
    return;
  }
  // Spans close innermost-first; an out-of-order end() closes everything
  // above it too (their samples are lost — counted as drops).
  while (t.depth > token.depth + 1) {
    --t.depth;
    ++t.drops;
  }
  if (t.depth == 0) return;  // unmatched end(); nothing to close.
  --t.depth;
  const Track::OpenSpan& s = t.stack[t.depth];
  if (t.samples.size() >= config_.max_samples_per_track) {
    ++t.drops;
    return;
  }
  ProfileSample sample;
  sample.ts_begin = s.ts;
  sample.ts_end = ts;
  sample.delta = read_counters(t) - s.at_begin;
  for (std::uint8_t d = 0; d <= t.depth && d < kMaxSpanDepth; ++d)
    sample.frames[d] = t.stack[d].name;
  sample.depth = static_cast<std::uint8_t>(t.depth + 1);
  sample.stage = s.stage;
  sample.bs = s.bs;
  sample.index = s.index;
  sample.a = a;
  sample.b = b;
  sample.core = track_id;
  t.samples.push_back(sample);
}

std::uint64_t Profiler::drops(unsigned track) const {
  return tracks_[track]->drops;
}

std::uint64_t Profiler::total_drops() const {
  std::uint64_t total = 0;
  for (const auto& t : tracks_) total += t->drops;
  return total;
}

ProfileStore Profiler::take() {
  ProfileStore store;
  store.backend = backend_;
  std::size_t total = 0;
  for (const auto& t : tracks_) total += t->samples.size();
  store.samples.reserve(total);
  for (auto& t : tracks_) {
    store.samples.insert(store.samples.end(), t->samples.begin(),
                         t->samples.end());
    store.drops += t->drops;
    t->drops = 0;
    t->samples.clear();  // capacity retained: profiling can continue.
  }
  return store;
}

}  // namespace rtopex::obs::profile
