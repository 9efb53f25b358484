// Standalone continuous-profiling demo: drives the real uplink PHY chain
// (FFT -> demod -> turbo decode) through the obs/profile layer and emits
// all three exports — the per-stage counter table, collapsed-stack folded
// output for flamegraph tooling, and (optionally) a Chrome trace with
// per-core counter lanes plus a Prometheus rtopex_profile_* exposition.
//
//   $ ./rtopex_profile [options]
//
//   --subframes N      subframes to decode (default 24)
//   --mcs A,B,C        MCS cycle (default 4,16,27 — enough variation for
//                      the cycles-domain Eq. (1) fit)
//   --antennas N       receive antennas (default 2)
//   --backend B        auto | perf | software (default auto: probe
//                      perf_event_open, fall back to software counters)
//   --folded FILE      collapsed stacks ("stage;substage count"); default
//                      rtopex_profile.folded
//   --trace FILE       Chrome trace JSON with the counter lanes
//   --metrics FILE     Prometheus exposition ("-" = stdout)
//
// Exit status is 1 on bad usage, 2 when a subframe fails CRC.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profile/profile_report.hpp"
#include "phy/lte_params.hpp"
#include "phy/uplink_rx.hpp"
#include "phy/uplink_tx.hpp"

int main(int argc, char** argv) {
  using namespace rtopex;
  namespace profile = obs::profile;

  std::size_t subframes = 24;
  unsigned antennas = 2;
  std::vector<unsigned> mcs_cycle = {4, 16, 27};
  profile::ProfileConfig pcfg;
  pcfg.enabled = true;
  std::string folded_path = "rtopex_profile.folded";
  std::string trace_path, metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--subframes") == 0 && i + 1 < argc) {
      subframes = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--mcs") == 0 && i + 1 < argc) {
      mcs_cycle.clear();
      for (const char* p = argv[++i]; *p;) {
        mcs_cycle.push_back(static_cast<unsigned>(std::atoi(p)));
        while (*p && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (std::strcmp(argv[i], "--antennas") == 0 && i + 1 < argc) {
      antennas = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      const char* b = argv[++i];
      if (std::strcmp(b, "auto") == 0) {
        pcfg.backend = profile::Backend::kAuto;
      } else if (std::strcmp(b, "perf") == 0) {
        pcfg.backend = profile::Backend::kPerf;
      } else if (std::strcmp(b, "software") == 0) {
        pcfg.backend = profile::Backend::kSoftware;
      } else {
        std::fprintf(stderr, "unknown backend '%s'\n", b);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--folded") == 0 && i + 1 < argc) {
      folded_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--subframes N] [--mcs A,B,C] [--antennas N]\n"
                   "  [--backend auto|perf|software] [--folded FILE]\n"
                   "  [--trace FILE] [--metrics FILE]\n",
                   argv[0]);
      return 1;
    }
  }
  if (subframes == 0 || mcs_cycle.empty() || antennas == 0) {
    std::fprintf(stderr, "invalid sizing options\n");
    return 1;
  }

  phy::UplinkConfig cfg;
  cfg.num_antennas = antennas;
  phy::UplinkTransmitter tx(cfg);
  phy::UplinkRxProcessor rx(cfg);

  // One pre-built TX subframe per distinct MCS (the RX job reads it in place).
  struct Variant {
    unsigned mcs;
    std::uint32_t subframe_index;
    std::vector<phy::IqVector> antenna_samples;
  };
  std::vector<Variant> variants;
  for (const unsigned mcs : mcs_cycle) {
    bool seen = false;
    for (const Variant& v : variants) seen = seen || v.mcs == mcs;
    if (seen) continue;
    const phy::TxSubframe sf = tx.transmit(mcs, 1, 42 + mcs);
    variants.push_back({mcs, sf.subframe_index,
                        std::vector<phy::IqVector>(antennas, sf.samples)});
  }

  profile::Profiler profiler(1, pcfg);
  std::printf("backend: %s (perf %savailable)\n",
              profile::to_string(profiler.backend()),
              profile::perf_available() ? "" : "un");

  phy::UplinkRxJob job = rx.make_job();
  phy::UplinkRxResult result;
  auto& ws = phy::UplinkRxProcessor::thread_workspace();
  std::size_t crc_failures = 0;
  for (std::size_t n = 0; n < subframes; ++n) {
    const Variant& v = variants[n % variants.size()];
    profile::ProfileSpan sf_span(&profiler, 0, "subframe", obs::Stage::kNone,
                                 0, static_cast<std::uint32_t>(n));
    rx.begin(job, v.antenna_samples, v.mcs, v.subframe_index);
    {
      profile::ProfileSpan span(&profiler, 0, "fft", obs::Stage::kFft, 0,
                                static_cast<std::uint32_t>(n));
      for (std::size_t s = 0; s < rx.fft_subtask_count(); ++s)
        rx.run_fft_subtask(job, s, ws);
      span.set_payload(static_cast<std::uint32_t>(rx.fft_subtask_count()), 0);
    }
    {
      profile::ProfileSpan span(&profiler, 0, "demod", obs::Stage::kDemod, 0,
                                static_cast<std::uint32_t>(n));
      rx.demod_prepare(job);
      for (std::size_t s = 0; s < rx.demod_subtask_count(); ++s)
        rx.run_demod_subtask(job, s);
    }
    {
      profile::ProfileSpan span(&profiler, 0, "decode", obs::Stage::kDecode,
                                0, static_cast<std::uint32_t>(n));
      rx.decode_prepare(job, ws);
      const std::size_t dec_n = rx.decode_subtask_count(job);
      for (std::size_t s = 0; s < dec_n; ++s)
        rx.run_decode_subtask(job, s, ws);
      rx.finalize_into(job, ws, result);
      span.set_payload(
          profile::pack_decode_regressors(phy::modulation_order(v.mcs),
                                          antennas, v.mcs),
          profile::pack_decode_load(static_cast<unsigned>(dec_n),
                                    result.iterations));
    }
    if (!result.crc_ok) ++crc_failures;
  }

  const profile::ProfileStore store = profiler.take();
  const profile::ProfileReport report = profile::aggregate(store);
  std::printf("%s", profile::render_report(report).c_str());

  if (!folded_path.empty()) {
    const std::string text = profile::folded(store);
    std::FILE* f = std::fopen(folded_path.c_str(), "w");
    if (f) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("folded stacks -> %s\n", folded_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", folded_path.c_str());
    }
  }
  if (!trace_path.empty()) {
    // The profile CLI records no TraceEvents; the trace carries only the
    // counter lanes (still a valid Perfetto/chrome://tracing file).
    obs::TraceStore empty;
    obs::ChromeTraceOptions opts;
    opts.process_name = "rtopex_profile";
    opts.num_cores = 1;
    opts.counters = profile::counter_tracks(store);
    obs::write_chrome_trace(trace_path, empty, opts);
    std::printf("counter trace -> %s\n", trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry reg;
    profile::fill_registry(report, reg);
    if (metrics_path == "-") {
      std::printf("---- metrics ----\n%s", reg.render().c_str());
    } else {
      std::FILE* f = std::fopen(metrics_path.c_str(), "w");
      if (f) {
        const std::string text = reg.render();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::printf("metrics -> %s\n", metrics_path.c_str());
      }
    }
  }
  return crc_failures == 0 ? 0 : 2;
}
