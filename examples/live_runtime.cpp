// Live demo of the real-thread runtime: pinned worker threads decode real
// subframes (full turbo/FFT chain) delivered by a periodic transport ticker,
// with RT-OPEX mailbox migration between cores.
//
//   $ ./live_runtime [partitioned|global|rtopex] [options]
//
// Sizing options:
//   --basestations N     basestations (default 2; workers = 2 per BS)
//   --subframes N        subframes per basestation (default 12)
//   --period-ms T        subframe period in ms (default 25; budget = 2x)
//
// Observability options:
//   --trace FILE         enable the per-core tracer; write Chrome
//                        trace-event JSON (chrome://tracing / Perfetto)
//   --trace-csv FILE     also dump the raw events as CSV
//   --metrics FILE       Prometheus text snapshots, rendered periodically
//                        during the run and finalized after it ("-" =
//                        stdout). File snapshots are written to FILE.tmp
//                        and renamed into place, so a scraper never sees
//                        a torn half-written exposition.
//   --metrics-period-ms  snapshot period (default: 4 subframe periods)
//   --analyze            run the deadline-miss postmortem over the trace
//                        after the run: prints the one-line JSON summary
//                        and a per-cause breakdown (implies tracing)
//   --health             live SLO/burn-rate health engine on the ticker
//                        thread: alerts print after the run, health gauges
//                        join the --metrics snapshots while it runs. The
//                        millisecond-cadence detection windows are scaled
//                        by the stretched subframe period automatically.
//   --adaptive           online adaptive estimators (per-BS iteration
//                        predictors + Eq. (1) decode fit) in the slack
//                        check and migration planning
//   --profile PREFIX     continuous profiling of every stage section
//                        (perf counters when permitted, thread-CPU/rusage
//                        fallback otherwise): prints the per-stage table,
//                        writes PREFIX.folded collapsed stacks (flamegraph
//                        input), and adds per-core counter lanes to
//                        --trace output
//
// Throughput options (partitioned/global modes):
//   --batch N            drain up to N queued subframes per worker pass and
//                        fuse their decode stages into one SoA batch
//                        (default 1 = off; max 16)
//   --pin LIST           pin worker i to the i-th CPU of LIST (kernel
//                        cpulist syntax, e.g. "0-3" or "0,2,4,6"); must
//                        list at least one CPU per worker. Every worker
//                        pre-warms its decode workspace after pinning, so
//                        its pages sit on its CPU's NUMA node
//   --ticker-core N      pin the transport ticker to CPU N
//   --no-deadlines       disable slack-check dropping: decode every
//                        delivered subframe even when its deadline is
//                        hopeless (throughput benchmarking — aggregate
//                        rate matters, per-subframe latency does not)
//
// Resilience options:
//   --kill-core N        park worker N mid-run (watchdog fails it over)
//   --at-ms T            kill at T ms into the run (default: half the run)
//   --fronthaul-loss P   drop each subframe with probability P
//
// The default subframe period is stretched (25 ms) so that the demo runs
// correctly on any host, including single-core machines; on a multicore
// machine with CAP_SYS_NICE you can tighten it toward the real 1 ms.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/analysis/analysis.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/health/health.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profile/profile_report.hpp"
#include "runtime/affinity.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/node_runtime.hpp"

int main(int argc, char** argv) {
  using namespace rtopex;

  runtime::RuntimeConfig cfg;
  cfg.mode = runtime::RuntimeMode::kRtOpex;
  int kill_core = -1;
  double kill_at_ms = -1.0;
  double loss_prob = 0.0;
  unsigned basestations = 2;
  std::size_t subframes = 12;
  double period_ms = 25.0;
  double metrics_period_ms = 0.0;
  bool analyze = false;
  bool health = false;
  int batch = 1;
  int ticker_core = -1;
  std::string pin_list;
  std::string trace_path, trace_csv_path, metrics_path, profile_prefix;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "partitioned") == 0) {
      cfg.mode = runtime::RuntimeMode::kPartitioned;
    } else if (std::strcmp(argv[i], "global") == 0) {
      cfg.mode = runtime::RuntimeMode::kGlobal;
    } else if (std::strcmp(argv[i], "rtopex") == 0) {
      cfg.mode = runtime::RuntimeMode::kRtOpex;
    } else if (std::strcmp(argv[i], "--basestations") == 0 && i + 1 < argc) {
      basestations = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--subframes") == 0 && i + 1 < argc) {
      subframes = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--period-ms") == 0 && i + 1 < argc) {
      period_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-csv") == 0 && i + 1 < argc) {
      trace_csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-period-ms") == 0 &&
               i + 1 < argc) {
      metrics_period_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--analyze") == 0) {
      analyze = true;
    } else if (std::strcmp(argv[i], "--health") == 0) {
      health = true;
    } else if (std::strcmp(argv[i], "--adaptive") == 0) {
      cfg.adaptive = true;
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_prefix = argv[++i];
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--pin") == 0 && i + 1 < argc) {
      pin_list = argv[++i];
    } else if (std::strcmp(argv[i], "--ticker-core") == 0 && i + 1 < argc) {
      ticker_core = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-deadlines") == 0) {
      cfg.enforce_deadlines = false;
    } else if (std::strcmp(argv[i], "--kill-core") == 0 && i + 1 < argc) {
      kill_core = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--at-ms") == 0 && i + 1 < argc) {
      kill_at_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--fronthaul-loss") == 0 && i + 1 < argc) {
      loss_prob = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [partitioned|global|rtopex]\n"
                   "  [--basestations N] [--subframes N] [--period-ms T]\n"
                   "  [--trace FILE] [--trace-csv FILE] [--metrics FILE]\n"
                   "  [--metrics-period-ms T] [--analyze] [--health]\n"
                   "  [--adaptive] [--profile PREFIX]\n"
                   "  [--batch N] [--pin LIST] [--ticker-core N]\n"
                   "  [--no-deadlines]\n"
                   "  [--kill-core N] [--at-ms T] [--fronthaul-loss P]\n",
                   argv[0]);
      return 1;
    }
  }
  if (basestations == 0 || subframes == 0 || period_ms <= 0.0) {
    std::fprintf(stderr, "invalid sizing options\n");
    return 1;
  }
  if (batch < 1 || batch > 16) {
    std::fprintf(stderr, "--batch must be in [1, 16]\n");
    return 1;
  }
  if (batch > 1 && cfg.mode == runtime::RuntimeMode::kRtOpex) {
    std::fprintf(stderr,
                 "--batch requires partitioned or global mode (RT-OPEX "
                 "migrates decode per-subtask)\n");
    return 1;
  }

  cfg.num_basestations = basestations;
  cfg.cores_per_bs = 2;
  cfg.global_cores = 2 * basestations;
  const unsigned workers = cfg.mode == runtime::RuntimeMode::kGlobal
                               ? cfg.global_cores
                               : basestations * cfg.cores_per_bs;
  cfg.throughput.batch = static_cast<unsigned>(batch);
  cfg.throughput.ticker_core = ticker_core;
  if (!pin_list.empty()) {
    cfg.throughput.worker_cores = runtime::parse_cpulist(pin_list);
    if (cfg.throughput.worker_cores.size() < workers) {
      std::fprintf(stderr,
                   "--pin lists %zu CPUs but this run needs %u workers\n",
                   cfg.throughput.worker_cores.size(), workers);
      return 1;
    }
  }
  cfg.subframes_per_bs = subframes;
  cfg.subframe_period = microseconds(static_cast<long>(period_ms * 1000.0));
  cfg.deadline_budget = 2 * cfg.subframe_period;
  cfg.mcs_cycle = {27, 10, 20};
  cfg.pin_threads = true;       // best effort
  cfg.phy.bandwidth = phy::Bandwidth::kMHz10;
  cfg.resilience.fronthaul_faults.loss_prob = loss_prob;
  if (kill_core >= 0) {
    cfg.resilience.enable_watchdog = true;
    cfg.resilience.watchdog_timeout = cfg.subframe_period;
  }
  cfg.trace.enabled =
      analyze || !trace_path.empty() || !trace_csv_path.empty();
  cfg.profile.enabled = !profile_prefix.empty();

  // The health defaults assume the real 1 ms TTI; this demo stretches the
  // subframe period for portability, so stretch the detection windows by
  // the same factor to keep them the same number of subframes wide.
  if (health) {
    cfg.health.enabled = true;
    const double scale = period_ms;  // defaults are per-1ms-subframe
    auto stretch = [scale](Duration& d) {
      d = static_cast<Duration>(static_cast<double>(d) * scale);
    };
    stretch(cfg.health.eval_period);
    for (obs::health::BurnRateRule* rule :
         {&cfg.health.fast_burn, &cfg.health.slow_burn}) {
      stretch(rule->short_window);
      stretch(rule->long_window);
      stretch(rule->clear_hold);
    }
    // A demo-sized run offers few subframes per window; don't gate firing
    // on a fleet-sized sample count.
    cfg.health.min_window_samples = 4;
  }

  // Periodic Prometheus snapshots from the ticker. A file sink writes the
  // whole exposition to FILE.tmp and renames it over FILE, so a concurrent
  // textfile collector reads either the previous snapshot or this one,
  // never a truncated half-write; "-" prints.
  auto write_atomic = [](const std::string& path, const std::string& text) {
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (!f) return;
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::rename(tmp.c_str(), path.c_str());
  };
  if (!metrics_path.empty()) {
    if (metrics_period_ms <= 0.0) metrics_period_ms = 4.0 * period_ms;
    cfg.metrics_period =
        microseconds(static_cast<long>(metrics_period_ms * 1000.0));
    cfg.metrics_sink = [metrics_path, write_atomic](const std::string& text) {
      if (metrics_path == "-") {
        std::printf("---- metrics snapshot ----\n%s", text.c_str());
        return;
      }
      write_atomic(metrics_path, text);
    };
  }

  // Kill switch: an injected hook that parks the chosen worker once the
  // run has passed --at-ms (default: halfway through the schedule).
  if (kill_at_ms < 0.0)
    kill_at_ms =
        to_us(cfg.subframe_period) / 1000.0 * cfg.subframes_per_bs / 2.0;
  static std::atomic<bool> armed{false};
  const std::uint32_t kill_index = static_cast<std::uint32_t>(
      kill_at_ms * 1000.0 / to_us(cfg.subframe_period));
  runtime::fault::Hooks hooks;
  hooks.transport_jitter = [kill_index](unsigned, std::uint32_t index) {
    if (index >= kill_index) armed.store(true, std::memory_order_release);
    return Duration{0};
  };
  hooks.kill_worker = [kill_core](std::size_t worker) {
    return static_cast<int>(worker) == kill_core &&
           armed.load(std::memory_order_acquire);
  };
  std::unique_ptr<runtime::fault::ScopedInjection> injection;
  if (kill_core >= 0)
    injection =
        std::make_unique<runtime::fault::ScopedInjection>(std::move(hooks));

  const char* mode_name = cfg.mode == runtime::RuntimeMode::kPartitioned
                              ? "partitioned"
                              : cfg.mode == runtime::RuntimeMode::kGlobal
                                    ? "global"
                                    : "rt-opex";
  std::printf("mode: %s | %u basestations x %zu subframes | period %.3g ms\n",
              mode_name, basestations, subframes, period_ms);
  if (batch > 1 || !pin_list.empty() || ticker_core >= 0) {
    const std::string pinned =
        pin_list.empty() ? std::string() : " | pinned " + pin_list;
    std::printf("throughput: batch %d%s%s\n", batch, pinned.c_str(),
                ticker_core >= 0 ? " | dedicated ticker core" : "");
  }
  if (kill_core >= 0)
    std::printf("killing worker %d at ~%.0f ms (watchdog enabled)\n",
                kill_core, kill_at_ms);
  if (loss_prob > 0.0)
    std::printf("fronthaul loss probability: %.2f\n", loss_prob);
  std::printf("\n");

  runtime::NodeRuntime rt(cfg);
  const auto report = rt.run();

  std::printf("%-4s %-4s %-4s %9s %9s %9s %6s %5s %5s\n", "bs", "idx", "mcs",
              "fft_us", "demod_us", "dec_us", "iters", "mig", "crc");
  for (const auto& r : report.records) {
    const char* status = r.lost ? "lost"
                         : r.late_arrival ? "late"
                         : r.dropped ? "drop"
                         : r.crc_ok ? "ok"
                                    : "FAIL";
    std::printf("%-4u %-4u %-4u %9.0f %9.0f %9.0f %6u %5u %5s\n", r.bs,
                r.index, r.mcs, to_us(r.timing.fft), to_us(r.timing.demod),
                to_us(r.timing.decode), r.iterations,
                r.timing.fft_migrated + r.timing.decode_migrated, status);
  }
  const auto& res = report.resilience;
  std::printf("\ndecoded %zu/%zu subframes | migrated subtasks: %zu | "
              "recoveries: %zu\n",
              report.records.size() - report.crc_failures -
                  res.lost_subframes - res.late_arrivals - report.dropped,
              report.records.size(), report.migrations, report.recoveries);
  // Conservation: every offered subframe must come back as exactly one
  // record (decoded, dropped, late or lost) — batching and repartitioning
  // may reorder work but never create or leak subframes.
  const std::size_t expected =
      static_cast<std::size_t>(basestations) * subframes;
  const bool conserved = report.records.size() == expected;
  std::printf("conservation: %zu/%zu records (%s) | batch-decoded "
              "subframes: %zu\n",
              report.records.size(), expected, conserved ? "ok" : "BROKEN",
              report.batched_subframes);
  if (kill_core >= 0 || loss_prob > 0.0)
    std::printf("resilience: failovers %zu | repartitions %zu | requeued %zu "
                "| lost %zu | late %zu | degraded %zu\n",
                res.failovers, res.repartitions, res.requeued_jobs,
                res.lost_subframes, res.late_arrivals, res.degraded);

  if (cfg.trace.enabled) {
    obs::ChromeTraceOptions opts;
    opts.process_name = std::string("live_runtime ") + mode_name;
    opts.num_cores = cfg.mode == runtime::RuntimeMode::kGlobal
                         ? cfg.global_cores
                         : cfg.num_basestations * cfg.cores_per_bs;
    if (cfg.profile.enabled)
      opts.counters = obs::profile::counter_tracks(report.profile);
    if (!trace_path.empty()) obs::write_chrome_trace(trace_path, report.trace, opts);
    if (!trace_csv_path.empty()) obs::write_trace_csv(trace_csv_path, report.trace);
    std::printf("trace: %zu events | ring drops %llu | store drops %llu%s%s\n",
                report.trace.events.size(),
                static_cast<unsigned long long>(report.trace.ring_drops),
                static_cast<unsigned long long>(report.trace.store_drops),
                trace_path.empty() ? "" : " -> ",
                trace_path.c_str());
  }
  if (cfg.profile.enabled) {
    const obs::profile::ProfileReport prof =
        obs::profile::aggregate(report.profile);
    std::printf("\nprofile (%zu spans)\n%s", report.profile.samples.size(),
                obs::profile::render_report(prof).c_str());
    const std::string folded_path = profile_prefix + ".folded";
    write_atomic(folded_path, obs::profile::folded(report.profile));
    std::printf("folded stacks -> %s\n", folded_path.c_str());
  }
  if (health) {
    const auto& h = report.health.cluster;
    std::printf("\nhealth: score %.0f | miss rate %.2e | burn %.2f | "
                "slack p50/p99 %.0f/%.0f us\n",
                h.health_score, h.miss_rate, h.burn_rate, h.slack_p50_us,
                h.slack_p99_us);
    if (report.alerts.empty())
      std::printf("alert log: empty\n");
    else
      for (const obs::health::Alert& a : report.alerts)
        std::printf("  %s\n", obs::health::describe(a).c_str());
  }
  obs::analysis::AnalysisReport analysis_report;
  if (analyze) {
    obs::analysis::AnalyzerOptions aopts;
    aopts.budget = cfg.deadline_budget;
    analysis_report = obs::analysis::analyze(report.trace, aopts);
    std::printf("\nanalysis: %s\n",
                obs::analysis::summary_json(analysis_report).c_str());
    for (unsigned c = 1; c < obs::analysis::kNumMissCauses; ++c)
      if (analysis_report.cause_counts[c])
        std::printf("  %-22s %llu\n",
                    obs::analysis::to_string(
                        static_cast<obs::analysis::MissCause>(c)),
                    static_cast<unsigned long long>(
                        analysis_report.cause_counts[c]));
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry reg;
    runtime::fill_registry(report, reg);
    if (analyze) obs::analysis::fill_registry(analysis_report, reg);
    if (metrics_path == "-")
      std::printf("---- final metrics ----\n%s", reg.render().c_str());
    else
      write_atomic(metrics_path, reg.render());
  }
  return report.crc_failures == 0 && conserved ? 0 : 2;
}
