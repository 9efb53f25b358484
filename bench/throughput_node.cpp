// Throughput-mode node benchmark: drives the real-thread NodeRuntime
// end-to-end and reports what the FlexRAN-style batched configuration buys
// over the default latency-oriented one. Three measurements:
//
//   1. Saturating pipeline rate (deadlines off, one worker, arrival period
//      far below service time): subframes/sec, wall ns/subframe and
//      process-CPU ns/subframe for the batched+pinned configuration vs the
//      plain batch-of-1 runtime. Both figures include the worker's
//      workspace pre-warm, which runs inside NodeRuntime::run() in every
//      configuration. A single worker makes the figure "work per subframe
//      through one core" — what batching changes — instead of a
//      measurement of worker time-slicing; the win check and the baseline
//      gate use the CPU figure, which additionally survives noisy hosts
//      where wall time measures the kernel scheduler.
//   2. Per-stage mean microseconds from the batched run's subframe records.
//   3. Capacity sweep: the largest basestation count that stays under a 1%
//      deadline-miss rate at the sweep period with batching on.
//
// Flags (beyond nothing — this binary does not use google-benchmark):
//   --json=PATH       write bench/baselines-style BENCH_throughput.json
//                     (gated "results" plus an ungated "summary" object)
//   --baseline=PATH   gate ns/subframe + stage means against a committed
//                     baseline; exit 1 on regression beyond --threshold
//   --threshold=PCT   regression threshold (default 30)
//   --require-win     exit 1 unless batched beats unbatched CPU ns/subframe
//                     (CI's SIMD perf-smoke asserts the win; scalar builds
//                     may legitimately tie — the SoA sweep needs vector
//                     lanes to be cheaper than the per-block loop)
//   --bs=N            basestations for the pipeline runs (default 2)
//   --subframes=N     subframes per basestation (default 16)
//   --period-us=N     saturating arrival period (default 200)
//   --reps=N          pipeline repetitions per configuration, best-of (default
//                     2: the first-ever run pays cold caches and frequency
//                     ramp, which would otherwise flake the win check)
//   --sweep-period-ms=N  real-time period for the capacity sweep (default 4)
//   --max-bs=N        sweep upper bound (default 4; 0 skips the sweep)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "bench_gate.hpp"
#include "bench_util.hpp"
#include "common/thread_utils.hpp"
#include "runtime/node_runtime.hpp"

namespace rtopex::bench {
namespace {

/// Process CPU time: every thread's user+system time summed by the kernel.
/// On an oversubscribed host the wall clock mostly measures the scheduler,
/// so the work comparison (and the baseline gate) runs on CPU time.
std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct PipelineResult {
  double ns_per_subframe = 0.0;
  double cpu_ns_per_subframe = 0.0;
  double subframes_per_sec = 0.0;
  double fft_us = 0.0;
  double demod_us = 0.0;
  double decode_us = 0.0;
  std::size_t batched_subframes = 0;
  std::size_t records = 0;
  std::size_t crc_failures = 0;
};

runtime::RuntimeConfig base_config(unsigned bs, std::size_t subframes) {
  runtime::RuntimeConfig cfg;
  cfg.mode = runtime::RuntimeMode::kGlobal;
  cfg.num_basestations = bs;
  cfg.global_cores = 2 * bs;
  cfg.subframes_per_bs = subframes;
  cfg.phy.num_antennas = 2;
  cfg.mcs_cycle = {4, 16, 27};
  cfg.seed = 42;
  return cfg;
}

/// One saturating end-to-end run; wall time spans run() so it covers the
/// ticker schedule plus the drain of the backlog the short period creates.
PipelineResult run_pipeline(unsigned bs, std::size_t subframes,
                            long period_us, bool batched) {
  runtime::RuntimeConfig cfg = base_config(bs, subframes);
  cfg.subframe_period = microseconds(period_us);
  cfg.deadline_budget = milliseconds(50);
  cfg.rtt_half = microseconds(50);
  cfg.enforce_deadlines = false;
  // One worker drains the whole backlog: the comparison is work per
  // subframe through a single core, which is what batching changes. With
  // several workers time-slicing (CI containers expose few cores) the wall
  // and CPU figures both measure preemption, not the pipeline, and the
  // saturating period keeps the queue deep enough that batch drains fill
  // their SoA lanes.
  cfg.global_cores = 1;
  if (batched) {
    cfg.throughput.batch = 16;
    cfg.pin_threads = true;
  }
  runtime::NodeRuntime node(cfg);
  const std::uint64_t c0 = process_cpu_ns();
  const std::uint64_t t0 = monotonic_ns();
  const runtime::RuntimeReport report = node.run();
  const std::uint64_t wall = monotonic_ns() - t0;
  const std::uint64_t cpu = process_cpu_ns() - c0;

  PipelineResult r;
  r.records = report.records.size();
  r.crc_failures = report.crc_failures;
  r.batched_subframes = report.batched_subframes;
  if (r.records == 0) return r;
  r.ns_per_subframe = static_cast<double>(wall) / r.records;
  r.cpu_ns_per_subframe = static_cast<double>(cpu) / r.records;
  r.subframes_per_sec = 1e9 * r.records / static_cast<double>(wall);
  double fft = 0.0, demod = 0.0, decode = 0.0;
  for (const auto& rec : report.records) {
    fft += static_cast<double>(rec.timing.fft);
    demod += static_cast<double>(rec.timing.demod);
    decode += static_cast<double>(rec.timing.decode);
  }
  r.fft_us = fft / r.records / 1e3;
  r.demod_us = demod / r.records / 1e3;
  r.decode_us = decode / r.records / 1e3;
  return r;
}

/// `reps` back-to-back (batched, unbatched) pairs; returns the pair from
/// the cleanest window (lowest combined CPU ns/subframe). The two runs of a
/// pair share whatever noise window the host is in, so their ratio is
/// meaningful even when an entire window runs 30% slow — picking each
/// side's best independently would compare measurements from different
/// windows and scramble exactly that ratio. A rep that breaks the
/// conservation/CRC contract is returned as-is so the caller's check fires.
struct PipelinePair {
  PipelineResult batched;
  PipelineResult plain;
};

PipelinePair best_pipelines(unsigned bs, std::size_t subframes,
                            long period_us, unsigned reps) {
  PipelinePair best;
  double best_combined = 0.0;
  for (unsigned r = 0; r < reps; ++r) {
    PipelinePair pair;
    pair.batched = run_pipeline(bs, subframes, period_us, true);
    pair.plain = run_pipeline(bs, subframes, period_us, false);
    for (const PipelineResult* p : {&pair.batched, &pair.plain}) {
      if (p->crc_failures > 0 || p->records != bs * subframes) return pair;
    }
    const double combined =
        pair.batched.cpu_ns_per_subframe + pair.plain.cpu_ns_per_subframe;
    if (r == 0 || combined < best_combined) {
      best = pair;
      best_combined = combined;
    }
  }
  return best;
}

/// Largest basestation count whose deadline-miss rate stays under 1% at the
/// given real-time period (batched configuration, deadlines enforced).
unsigned sweep_max_bs(unsigned max_bs, long period_ms, std::size_t subframes) {
  unsigned best = 0;
  for (unsigned bs = 1; bs <= max_bs; ++bs) {
    // Real-time miss tests flake on shared/virtualized hosts (a noisy
    // window mid-run inflates service times); a level only counts as
    // over-capacity when it misses twice.
    double miss_rate = 1.0;
    for (int attempt = 0; attempt < 2 && miss_rate >= 0.01; ++attempt) {
      runtime::RuntimeConfig cfg = base_config(bs, subframes);
      cfg.subframe_period = milliseconds(period_ms);
      cfg.deadline_budget = milliseconds(2 * period_ms);
      cfg.rtt_half = microseconds(100);
      cfg.throughput.batch = 16;
      cfg.pin_threads = true;
      runtime::NodeRuntime node(cfg);
      const runtime::RuntimeReport report = node.run();
      const double total = static_cast<double>(report.records.size());
      miss_rate = total > 0.0
                      ? static_cast<double>(report.deadline_misses) / total
                      : 1.0;
      std::printf("sweep bs=%u: %zu/%zu misses (%.2f%%)\n", bs,
                  report.deadline_misses, report.records.size(),
                  100.0 * miss_rate);
    }
    if (miss_rate >= 0.01) break;
    best = bs;
  }
  return best;
}

int run(int argc, char** argv) {
  std::string json_path, baseline_path;
  double threshold_pct = 30.0;
  bool require_win = false;
  unsigned bs = 2;
  std::size_t subframes = 16;
  long period_us = 200;
  unsigned reps = 2;
  long sweep_period_ms = 4;
  unsigned max_bs = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.rfind("--json=", 0) == 0) {
      json_path = val("--json=");
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = val("--baseline=");
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold_pct = std::stod(val("--threshold="));
    } else if (arg == "--require-win") {
      require_win = true;
    } else if (arg.rfind("--bs=", 0) == 0) {
      bs = static_cast<unsigned>(std::stoul(val("--bs=")));
    } else if (arg.rfind("--subframes=", 0) == 0) {
      subframes = std::stoul(val("--subframes="));
    } else if (arg.rfind("--period-us=", 0) == 0) {
      period_us = std::stol(val("--period-us="));
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1u, static_cast<unsigned>(std::stoul(val("--reps="))));
    } else if (arg.rfind("--sweep-period-ms=", 0) == 0) {
      sweep_period_ms = std::stol(val("--sweep-period-ms="));
    } else if (arg.rfind("--max-bs=", 0) == 0) {
      max_bs = static_cast<unsigned>(std::stoul(val("--max-bs=")));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }

  std::printf(
      "pipeline: %u bs x %zu subframes, %ld us arrival period, best of %u\n",
      bs, subframes, period_us, reps);
  const PipelinePair pair = best_pipelines(bs, subframes, period_us, reps);
  const PipelineResult& batched = pair.batched;
  const PipelineResult& plain = pair.plain;
  for (const auto* p : {&batched, &plain}) {
    std::printf(
        "  %-9s %8.0f subframes/s  %9.0f ns/subframe wall  %9.0f ns cpu  "
        "(fft %.0f us, demod %.0f us, decode %.0f us; %zu batch-decoded)\n",
        p == &batched ? "batched" : "unbatched", p->subframes_per_sec,
        p->ns_per_subframe, p->cpu_ns_per_subframe, p->fft_us, p->demod_us,
        p->decode_us, p->batched_subframes);
  }
  if (batched.crc_failures + plain.crc_failures > 0 ||
      batched.records != bs * subframes || plain.records != bs * subframes) {
    std::fprintf(stderr,
                 "pipeline run broke the conservation/CRC contract "
                 "(batched %zu/%zu crc %zu, plain %zu/%zu crc %zu)\n",
                 batched.records, bs * subframes, batched.crc_failures,
                 plain.records, bs * subframes, plain.crc_failures);
    return 1;
  }

  unsigned capacity = 0;
  if (max_bs > 0) {
    std::printf("capacity sweep: %ld ms period, <1%% miss target\n",
                sweep_period_ms);
    capacity = sweep_max_bs(max_bs, sweep_period_ms, subframes);
    std::printf("  max basestations under 1%% miss: %u\n", capacity);
  }

  // Gated entries: all "lower is better" nanosecond figures, so the shared
  // cpu-time gate applies directly. The capacity count is higher-better and
  // host-dependent, so it stays in the ungated summary.
  std::vector<CapturedRun> runs;
  runs.push_back({"node_batched_per_subframe", batched.ns_per_subframe,
                  batched.cpu_ns_per_subframe});
  runs.push_back({"node_unbatched_per_subframe", plain.ns_per_subframe,
                  plain.cpu_ns_per_subframe});
  runs.push_back({"stage_fft_mean", batched.fft_us * 1e3,
                  batched.fft_us * 1e3});
  runs.push_back({"stage_demod_mean", batched.demod_us * 1e3,
                  batched.demod_us * 1e3});
  runs.push_back({"stage_decode_mean", batched.decode_us * 1e3,
                  batched.decode_us * 1e3});

  if (!json_path.empty()) {
    JsonValue root = JsonValue::object();
    root.set("bench", "throughput_node");
    JsonValue config = JsonValue::object();
#ifdef RTOPEX_SIMD
    config.set("simd", JsonValue::boolean(true));
#else
    config.set("simd", JsonValue::boolean(false));
#endif
    config.set("basestations", static_cast<double>(bs));
    config.set("subframes_per_bs", static_cast<double>(subframes));
    config.set("period_us", static_cast<double>(period_us));
    root.set("config", std::move(config));
    JsonValue results = JsonValue::array();
    for (const auto& r : runs) {
      JsonValue entry = JsonValue::object();
      entry.set("name", r.name);
      entry.set("real_ns", r.real_ns);
      entry.set("cpu_ns", r.cpu_ns);
      results.push(std::move(entry));
    }
    root.set("results", std::move(results));
    JsonValue summary = JsonValue::object();
    summary.set("subframes_per_sec_batched", batched.subframes_per_sec);
    summary.set("subframes_per_sec_unbatched", plain.subframes_per_sec);
    summary.set("cpu_ns_per_subframe_batched", batched.cpu_ns_per_subframe);
    summary.set("cpu_ns_per_subframe_unbatched", plain.cpu_ns_per_subframe);
    summary.set("batch_decoded_subframes",
                static_cast<double>(batched.batched_subframes));
    summary.set("max_basestations_lt1pct_miss",
                static_cast<double>(capacity));
    root.set("summary", std::move(summary));
    write_bench_json(json_path, root);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // The win check runs on CPU time per subframe: batching exists to shrink
  // the work per subframe, and unlike wall time that number survives noisy
  // or oversubscribed hosts (a 1-core container timeslicing 4 workers
  // measures its scheduler, not the pipeline, through the wall clock).
  if (require_win &&
      batched.cpu_ns_per_subframe >= plain.cpu_ns_per_subframe) {
    std::fprintf(stderr,
                 "throughput gate: batched (%.0f cpu ns/subframe) did not "
                 "beat unbatched (%.0f cpu ns/subframe)\n",
                 batched.cpu_ns_per_subframe, plain.cpu_ns_per_subframe);
    return 1;
  }

  if (!baseline_path.empty()) {
    const auto baseline = read_baseline(baseline_path);
    const int regressions =
        gate_against_baseline(runs, baseline, threshold_pct);
    if (regressions > 0) {
      std::fprintf(stderr, "perf gate: %d regression(s) beyond +%.0f%%\n",
                   regressions, threshold_pct);
      return 1;
    }
    std::printf("perf gate: ok\n");
  }
  return 0;
}

}  // namespace
}  // namespace rtopex::bench

int main(int argc, char** argv) { return rtopex::bench::run(argc, argv); }
