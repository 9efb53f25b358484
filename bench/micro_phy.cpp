// Google-benchmark micro-benchmarks of the PHY kernels: the compute blocks
// whose costs the Eq. (1) model abstracts, plus warm per-stage and
// end-to-end uplink-subframe benchmarks at the paper's operating points
// (10 MHz / 50 PRB, N = 2 antennas, MCS 0/13/27).
//
// Beyond the standard benchmark flags this binary understands:
//   --json=PATH        write results as bench/baselines-style
//                      BENCH_micro_phy.json
//   --baseline=PATH    compare against a previously written JSON
//   --threshold=PCT    fail (exit 1) when any benchmark's cpu time
//                      regresses more than PCT percent vs the baseline
//                      (default 25)
//   --profile=PATH     after the benchmarks, decode a few subframes per
//                      operating point under obs/profile ProfileSpans and
//                      write collapsed-stack folded output to PATH (plus
//                      the per-stage counter table on stdout)
// CI's perf-smoke job runs this against the committed baseline in
// bench/baselines/ — see EXPERIMENTS.md "Kernel performance".
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_gate.hpp"
#include "bench_util.hpp"
#include "channel/channel.hpp"
#include "common/rng.hpp"
#include "obs/profile/profile_report.hpp"
#include "phy/crc.hpp"
#include "phy/fft.hpp"
#include "phy/modulation.hpp"
#include "phy/qpp_interleaver.hpp"
#include "phy/rate_match.hpp"
#include "phy/scrambler.hpp"
#include "phy/turbo.hpp"
#include "phy/uplink_rx.hpp"
#include "phy/uplink_tx.hpp"

namespace rtopex::phy {
namespace {

BitVector random_bits(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BitVector bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1);
  return bits;
}

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const FftPlan plan(n);
  Rng rng(1);
  IqVector data(n);
  for (auto& x : data)
    x = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
  for (auto _ : state) {
    plan.forward(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(512)->Arg(1024)->Arg(2048);

// The SoA path on caller-owned split buffers — what the uplink FFT subtasks
// actually run (no interleave/deinterleave shuffle).
void BM_FftSoa(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const FftPlan plan(n);
  Rng rng(1);
  std::vector<float> re(n), im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = static_cast<float>(rng.normal());
    im[i] = static_cast<float>(rng.normal());
  }
  for (auto _ : state) {
    plan.forward_soa(re, im);
    benchmark::DoNotOptimize(re.data());
    benchmark::DoNotOptimize(im.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftSoa)->Arg(1024)->Arg(2048);

void BM_Crc24a(benchmark::State& state) {
  const BitVector bits =
      random_bits(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) benchmark::DoNotOptimize(crc24a(bits));
}
BENCHMARK(BM_Crc24a)->Arg(6144);

void BM_TurboEncode(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const QppInterleaver qpp(k);
  const TurboEncoder enc(qpp);
  const BitVector bits = random_bits(k, 3);
  for (auto _ : state) benchmark::DoNotOptimize(enc.encode(bits));
}
BENCHMARK(BM_TurboEncode)->Arg(1024)->Arg(6144);

void BM_TurboDecode(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto iters = static_cast<unsigned>(state.range(1));
  const QppInterleaver qpp(k);
  const TurboEncoder enc(qpp);
  const TurboDecoder dec(qpp, iters);
  const BitVector bits = random_bits(k, 4);
  const auto cw = enc.encode(bits);
  LlrVector sys(k + 4), p1(k + 4), p2(k + 4);
  for (std::size_t i = 0; i < k + 4; ++i) {
    sys[i] = cw.systematic[i] ? -4.0f : 4.0f;
    p1[i] = cw.parity1[i] ? -4.0f : 4.0f;
    p2[i] = cw.parity2[i] ? -4.0f : 4.0f;
  }
  DecodeWorkspace ws;
  for (auto _ : state) {
    dec.decode_into(sys, p1, p2, ws);
    benchmark::DoNotOptimize(ws.bits.data());
  }
}
BENCHMARK(BM_TurboDecode)->Args({6144, 1})->Args({6144, 4});

// Eight-lane SoA batch decode: the cross-subframe throughput path's inner
// kernel, amortizing one trellis walk over kTurboBatchLanes blocks. Time is
// per batch; divide by 8 for the per-block figure comparable to
// BM_TurboDecode. The lane-major channel rows are built before the timed
// loop, as the node's row dematcher writes them before the decode.
void BM_TurboDecodeBatch(benchmark::State& state) {
  constexpr std::size_t kL = kTurboBatchLanes;
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto iters = static_cast<unsigned>(state.range(1));
  const std::size_t kd = k + 4;
  const QppInterleaver qpp(k);
  const TurboEncoder enc(qpp);
  const TurboDecoder dec(qpp, iters);
  std::vector<float> rows(3 * kd * kL);
  for (std::size_t b = 0; b < kL; ++b) {
    const auto cw = enc.encode(random_bits(k, 40 + b));
    const BitVector* streams[3] = {&cw.systematic, &cw.parity1, &cw.parity2};
    for (std::size_t s = 0; s < 3; ++s)
      for (std::size_t i = 0; i < kd; ++i)
        rows[(s * kd + i) * kL + b] = (*streams[s])[i] ? -4.0f : 4.0f;
  }
  const TurboBatchRows batch{rows.data(), rows.data() + kd * kL,
                             rows.data() + 2 * kd * kL};
  DecodeWorkspace ws;
  for (auto _ : state) {
    dec.decode_batch_into(batch, kL, ws, {}, 0);
    benchmark::DoNotOptimize(ws.bat_bits.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kL));
}
BENCHMARK(BM_TurboDecodeBatch)->Args({6144, 1})->Args({6144, 4});

void BM_Demodulate(benchmark::State& state) {
  const auto order = static_cast<unsigned>(state.range(0));
  const BitVector bits = random_bits(600 * order, 5);
  const IqVector symbols = modulate(bits, order);
  const std::vector<float> nv(symbols.size(), 0.01f);
  LlrVector out(symbols.size() * order);
  for (auto _ : state) {
    demodulate_into(symbols, nv, order, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(symbols.size()));
}
BENCHMARK(BM_Demodulate)->Arg(2)->Arg(4)->Arg(6);

void BM_RateMatch(benchmark::State& state) {
  const std::size_t k = 6144;
  const QppInterleaver qpp(k);
  const TurboEncoder enc(qpp);
  const RateMatcher rm(k);
  const auto cw = enc.encode(random_bits(k, 6));
  for (auto _ : state) benchmark::DoNotOptimize(rm.match(cw, 7200));
}
BENCHMARK(BM_RateMatch);

void BM_Scrambler(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(scrambling_sequence(0x1234, 43200));
}
BENCHMARK(BM_Scrambler);

// --- Warm per-stage and end-to-end subframe benchmarks ---------------------
//
// These measure the stage methods exactly as a NodeRuntime worker runs them:
// reused job, reused per-thread workspace, no allocations in steady state.
// The subframe fixture is noiseless (samples fanned out to both antennas),
// so the decode stage sees the paper's one-iteration fast path.

struct SubframeFixture {
  explicit SubframeFixture(unsigned mcs, unsigned antennas = 2)
      : cfg{}, mcs(mcs) {
    cfg.num_antennas = antennas;
    const UplinkTransmitter tx(cfg);
    rx = std::make_unique<UplinkRxProcessor>(cfg);
    const TxSubframe sf = tx.transmit(mcs, 1, 42);
    subframe_index = sf.subframe_index;
    antenna_samples.assign(antennas, sf.samples);
    job = rx->make_job();
    run_all();  // warm-up: every grow-only buffer reaches its high-water mark.
  }

  void run_all() {
    auto& ws = UplinkRxProcessor::thread_workspace();
    rx->begin(job, antenna_samples, mcs, subframe_index);
    for (std::size_t s = 0; s < rx->fft_subtask_count(); ++s)
      rx->run_fft_subtask(job, s, ws);
    rx->demod_prepare(job);
    for (std::size_t s = 0; s < rx->demod_subtask_count(); ++s)
      rx->run_demod_subtask(job, s);
    rx->decode_prepare(job, ws);
    rx->run_decode_batch(job, ws);
    rx->finalize_into(job, ws, result);
  }

  UplinkConfig cfg;
  unsigned mcs;
  std::uint32_t subframe_index = 0;
  std::vector<IqVector> antenna_samples;
  std::unique_ptr<UplinkRxProcessor> rx;
  UplinkRxJob job;
  UplinkRxResult result;
};

// One full FFT stage: 14 * N OFDM symbol transforms + subcarrier extraction.
void BM_UplinkStageFft(benchmark::State& state) {
  SubframeFixture f(static_cast<unsigned>(state.range(0)));
  auto& ws = UplinkRxProcessor::thread_workspace();
  for (auto _ : state) {
    for (std::size_t s = 0; s < f.rx->fft_subtask_count(); ++s)
      f.rx->run_fft_subtask(f.job, s, ws);
    benchmark::DoNotOptimize(f.job.grid.data());
  }
}
BENCHMARK(BM_UplinkStageFft)->Arg(27)->Unit(benchmark::kMicrosecond);

// One full demod stage: channel estimation + MRC + max-log demapping.
void BM_UplinkStageDemod(benchmark::State& state) {
  SubframeFixture f(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    f.rx->demod_prepare(f.job);
    for (std::size_t s = 0; s < f.rx->demod_subtask_count(); ++s)
      f.rx->run_demod_subtask(f.job, s);
    benchmark::DoNotOptimize(f.job.llrs.data());
  }
}
BENCHMARK(BM_UplinkStageDemod)->Arg(27)->Unit(benchmark::kMicrosecond);

// One full decode stage (rate dematch + turbo over all code blocks) as the
// blocking workers now run it: every code block of the subframe fused into
// SoA batches by run_decode_batch. decode_prepare is excluded: descrambling
// flips job.llrs in place, so repeating it would corrupt the fixture (it is
// measured by BM_Scrambler).
void BM_UplinkStageDecode(benchmark::State& state) {
  SubframeFixture f(static_cast<unsigned>(state.range(0)));
  auto& ws = UplinkRxProcessor::thread_workspace();
  for (auto _ : state) {
    f.rx->run_decode_batch(f.job, ws);
    benchmark::DoNotOptimize(f.job.cb_results.data());
  }
}
BENCHMARK(BM_UplinkStageDecode)->Arg(27)->Unit(benchmark::kMicrosecond);

// The per-subtask decode loop — the migratable granularity RT-OPEX mode
// still executes (one block per subtask). The gap to BM_UplinkStageDecode
// is the price of migration-grade preemption points.
void BM_UplinkStageDecodeSubtasks(benchmark::State& state) {
  SubframeFixture f(static_cast<unsigned>(state.range(0)));
  auto& ws = UplinkRxProcessor::thread_workspace();
  for (auto _ : state) {
    for (std::size_t s = 0; s < f.rx->decode_subtask_count(f.job); ++s)
      f.rx->run_decode_subtask(f.job, s, ws);
    benchmark::DoNotOptimize(f.job.cb_results.data());
  }
}
BENCHMARK(BM_UplinkStageDecodeSubtasks)
    ->Arg(27)
    ->Unit(benchmark::kMicrosecond);

// Steady-state end-to-end subframe: the number a worker core must beat
// every millisecond. Arg = MCS.
void BM_UplinkSubframe(benchmark::State& state) {
  SubframeFixture f(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    f.run_all();
    benchmark::DoNotOptimize(f.result.crc_ok);
  }
  state.counters["crc_ok"] = f.result.crc_ok ? 1 : 0;
}
BENCHMARK(BM_UplinkSubframe)->Arg(0)->Arg(13)->Arg(27)
    ->Unit(benchmark::kMicrosecond);

// The allocating convenience path (fresh job per call), kept for contrast
// with BM_UplinkSubframe and continuity with older baselines.
void BM_FullUplinkChain(benchmark::State& state) {
  const auto mcs = static_cast<unsigned>(state.range(0));
  UplinkConfig cfg;
  cfg.num_antennas = 2;
  const UplinkTransmitter tx(cfg);
  const UplinkRxProcessor rx(cfg);
  const TxSubframe sf = tx.transmit(mcs, 1, 42);
  channel::ChannelConfig ch;
  ch.snr_db = 30.0;
  ch.num_rx_antennas = 2;
  const auto samples = channel::pass_through_channel(sf.samples, ch, 43);
  for (auto _ : state)
    benchmark::DoNotOptimize(rx.process(samples, mcs, sf.subframe_index));
}
BENCHMARK(BM_FullUplinkChain)->Arg(0)->Arg(13)->Arg(27)
    ->Unit(benchmark::kMillisecond);

/// --profile=PATH: a post-benchmark profiled pass — the warm per-stage
/// loops the stage benchmarks time, run under ProfileSpans so the folded
/// collapsed stacks and the per-stage counter table cover the same code.
void run_profiled_pass(const std::string& folded_path) {
  namespace profile = rtopex::obs::profile;
  profile::ProfileConfig pcfg;
  pcfg.enabled = true;
  profile::Profiler profiler(1, pcfg);
  for (const unsigned mcs : {0u, 13u, 27u}) {
    SubframeFixture f(mcs);
    auto& ws = UplinkRxProcessor::thread_workspace();
    for (int rep = 0; rep < 8; ++rep) {
      profile::ProfileSpan sf_span(&profiler, 0, "subframe");
      f.rx->begin(f.job, f.antenna_samples, f.mcs, f.subframe_index);
      {
        profile::ProfileSpan span(&profiler, 0, "fft", rtopex::obs::Stage::kFft);
        for (std::size_t s = 0; s < f.rx->fft_subtask_count(); ++s)
          f.rx->run_fft_subtask(f.job, s, ws);
      }
      {
        profile::ProfileSpan span(&profiler, 0, "demod",
                                  rtopex::obs::Stage::kDemod);
        f.rx->demod_prepare(f.job);
        for (std::size_t s = 0; s < f.rx->demod_subtask_count(); ++s)
          f.rx->run_demod_subtask(f.job, s);
      }
      {
        profile::ProfileSpan span(&profiler, 0, "decode",
                                  rtopex::obs::Stage::kDecode);
        f.rx->decode_prepare(f.job, ws);
        const std::size_t dec_n = f.rx->decode_subtask_count(f.job);
        for (std::size_t s = 0; s < dec_n; ++s)
          f.rx->run_decode_subtask(f.job, s, ws);
        f.rx->finalize_into(f.job, ws, f.result);
        span.set_payload(
            profile::pack_decode_regressors(modulation_order(mcs),
                                            f.cfg.num_antennas, mcs),
            profile::pack_decode_load(static_cast<unsigned>(dec_n),
                                      f.result.iterations));
      }
    }
  }
  const profile::ProfileStore store = profiler.take();
  std::printf("\nprofile (%s backend, %zu spans)\n%s",
              profile::to_string(store.backend), store.samples.size(),
              profile::render_report(profile::aggregate(store)).c_str());
  const std::string text = profile::folded(store);
  std::ofstream out(folded_path);
  out << text;
  std::printf("folded stacks -> %s\n", folded_path.c_str());
}

}  // namespace
}  // namespace rtopex::phy

int main(int argc, char** argv) {
  rtopex::bench::GateMainOptions opts;
  opts.bench_name = "micro_phy";
  opts.extra_flag = "profile";
  opts.extra_handler = [](const std::string& path) {
    rtopex::phy::run_profiled_pass(path);
  };
  return rtopex::bench::gate_main(argc, argv, opts);
}
