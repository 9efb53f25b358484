// Self-overhead of the observability layer on the real-time path: the
// per-event cost of Tracer::emit (lock-free SPSC push), the per-span cost of
// a ProfileSpan begin/end pair under the software counter backend (the
// backend CI containers actually run) and the per-sample cost of
// Histogram::add, which the simulator calls about five times per subframe.
// Gated in CI's perf-smoke job against
// bench/baselines/BENCH_obs_overhead.json so an observability change that
// slows the hot path fails the build; a benchmark without a baseline entry
// is reported, not gated.
//
// Beyond the standard benchmark flags this binary understands
// --json=PATH / --baseline=PATH / --threshold=PCT (see bench_gate.hpp).
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <cstdint>

#include "bench_gate.hpp"
#include "obs/histogram.hpp"
#include "obs/profile/profile.hpp"
#include "obs/tracer.hpp"

namespace rtopex::obs {
namespace {

void BM_TraceEvent(benchmark::State& state) {
  // Ring sized to the iteration batch so steady state never overflows; a
  // collector drain per batch keeps the producer fast path honest.
  Tracer tracer(1, /*ring_capacity=*/1 << 16);
  TraceEvent ev;
  ev.kind = EventKind::kStageEnd;
  ev.stage = Stage::kFft;
  ev.bs = 1;
  ev.core = 0;
  std::uint64_t n = 0;
  for (auto _ : state) {
    ev.ts = static_cast<TimePoint>(++n);
    ev.index = static_cast<std::uint32_t>(n);
    tracer.emit(ev);
    if ((n & 0x7fff) == 0) {
      state.PauseTiming();
      tracer.collect();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TraceEvent);

void BM_ProfileSpan(benchmark::State& state) {
  profile::ProfileConfig cfg;
  cfg.enabled = true;
  cfg.backend = profile::Backend::kSoftware;
  cfg.max_samples_per_track = 1 << 15;
  profile::Profiler profiler(1, cfg);
  std::uint64_t n = 0;
  for (auto _ : state) {
    const auto ts = static_cast<TimePoint>(n);
    const auto token = profiler.begin(0, ts, "bench", Stage::kDecode, 0,
                                      static_cast<std::uint32_t>(n));
    profiler.end(0, token, ts, 1, 2);
    if ((++n & 0x3fff) == 0) {
      state.PauseTiming();
      benchmark::DoNotOptimize(profiler.take());
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ProfileSpan);

void BM_HistogramAdd(benchmark::State& state) {
  // Sim-like latencies: integer nanoseconds read as microseconds, spread
  // log-uniformly over 1 us .. 10 ms of the default layout and cycled from
  // a table, so the loop times add() and not the sample generator.
  std::array<double, 4096> samples{};
  std::uint64_t lcg = 1;
  for (double& x : samples) {
    lcg = lcg * 6364136223846793005u + 1442695040888963407u;
    const double u = static_cast<double>(lcg >> 11) * 0x1p-53;
    x = std::round(std::pow(10.0, 3.0 + 4.0 * u)) / 1000.0;
  }
  Histogram h;
  std::size_t i = 0;
  for (auto _ : state) {
    h.add(samples[i++ & (samples.size() - 1)]);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(h);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

}  // namespace
}  // namespace rtopex::obs

int main(int argc, char** argv) {
  rtopex::bench::GateMainOptions opts;
  opts.bench_name = "obs_overhead";
  // Span sampling reads OS clocks whose cost varies more run-to-run than
  // pure CPU benches; the gate threshold is correspondingly generous.
  opts.default_threshold_pct = 60.0;
  return rtopex::bench::gate_main(argc, argv, opts);
}
