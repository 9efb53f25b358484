// Adaptive-estimator accuracy + what-if replay benchmark -> BENCH_whatif.json.
//
// Part A (fig. 17-style sweep): each load point runs the partitioned and
// RT-OPEX schedulers twice over the same workload — static WCET seeds vs
// online adaptive estimators. Adaptive runs record BOTH the estimate they
// actually admitted with and the static estimate they would have used, so
// the per-subframe |estimate - executed| decode errors are exactly paired.
// The headline number is the error ratio static/adaptive; the acceptance
// gate (--gate R, default 2.0) requires the adaptive estimators to cut the
// mean error by at least that factor on at least one scheduler's sweep
// (RT-OPEX clears it with a wide margin; the partitioned scheduler
// saturates at high load, where subframes that were going to miss either
// way dilute its paired-error win).
//
// Part B (what-if replay): a faulted fig. 15-style partitioned run captures
// its offered workload into the trace; the trace is replayed (a) under the
// original config — the self-replay identity diff must be empty — and (b)
// under RT-OPEX, yielding the counterfactual per-cause miss delta.
//
//   $ ./whatif_adaptive [--quick] [--gate R] [--out DIR]
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "obs/analysis/replay.hpp"

using namespace rtopex;
namespace analysis = rtopex::obs::analysis;

int main(int argc, char** argv) {
  bench::print_banner("What-if / adaptive",
                      "online estimator accuracy + trace replay engine");

  std::string out_dir;
  double gate = 2.0;
  std::size_t subframes = 10000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      subframes = 2000;
    } else if (std::strcmp(argv[i], "--gate") == 0 && i + 1 < argc) {
      gate = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--gate R] [--out DIR]\n",
                   argv[0]);
      return 1;
    }
  }

  // ---- Part A: paired estimator-accuracy sweep --------------------------
  core::ExperimentConfig cfg;
  cfg.workload.num_basestations = 4;
  cfg.workload.subframes_per_bs = subframes;
  cfg.workload.seed = 1;
  cfg.rtt_half = microseconds(500);

  struct SchedTotals {
    core::SchedulerKind kind;
    std::string label;
    double err_used_sum = 0.0;    // adaptive runs: |adaptive est - actual|
    double err_static_sum = 0.0;  // adaptive runs: |static est - actual|
    std::size_t samples = 0;
    std::size_t miss_static = 0;
    std::size_t miss_adaptive = 0;
    std::size_t subframes = 0;
  };
  std::vector<SchedTotals> totals = {
      {core::SchedulerKind::kPartitioned, "partitioned"},
      {core::SchedulerKind::kRtOpex, "rt-opex"}};
  bench::JsonValue rows = bench::JsonValue::array();

  bench::print_row({"mean_load", "scheduler", "static_err_us", "adapt_err_us",
                    "ratio", "static_miss", "adapt_miss"});
  for (double mean = 0.40; mean <= 1.001; mean += 0.10) {
    cfg.workload.mean_load_override = mean;
    const auto work = core::make_workload(cfg);
    for (auto& tot : totals) {
      cfg.scheduler = tot.kind;
      cfg.global.num_cores = 8;

      cfg.adaptive.enabled = false;
      const auto st = core::run_scheduler(cfg, work);
      cfg.adaptive.enabled = true;
      const auto ad = core::run_scheduler(cfg, work);
      cfg.adaptive.enabled = false;

      tot.err_used_sum += ad.metrics.decode_est_used_abs_err_us;
      tot.err_static_sum += ad.metrics.decode_est_static_abs_err_us;
      tot.samples += ad.metrics.decode_est_samples;
      tot.miss_static += st.metrics.deadline_misses;
      tot.miss_adaptive += ad.metrics.deadline_misses;
      tot.subframes += st.metrics.total_subframes;

      const double se = ad.metrics.mean_est_err_static_us();
      const double ae = ad.metrics.mean_est_err_used_us();
      bench::print_row({bench::fmt(mean), tot.label, bench::fmt(se, 1),
                        bench::fmt(ae, 1),
                        bench::fmt(ae > 0.0 ? se / ae : 0.0, 1),
                        std::to_string(st.metrics.deadline_misses),
                        std::to_string(ad.metrics.deadline_misses)});
      rows.push(bench::JsonValue::object()
                    .set("mean_load", mean)
                    .set("scheduler", tot.label)
                    .set("est_err_static_us", se)
                    .set("est_err_adaptive_us", ae)
                    .set("samples", static_cast<double>(
                                        ad.metrics.decode_est_samples))
                    .set("miss_rate_static", st.metrics.miss_rate())
                    .set("miss_rate_adaptive", ad.metrics.miss_rate()));
    }
  }

  bench::JsonValue summary = bench::JsonValue::object();
  double best_ratio = 0.0;
  std::printf("\nsweep totals (paired |decode estimate - executed| error):\n");
  for (const auto& tot : totals) {
    const double se = tot.samples ? tot.err_static_sum / tot.samples : 0.0;
    const double ae = tot.samples ? tot.err_used_sum / tot.samples : 0.0;
    const double ratio = ae > 0.0 ? se / ae : 0.0;
    std::printf("  %-12s static %.1f us -> adaptive %.1f us  (%.1fx better); "
                "misses %zu -> %zu\n",
                tot.label.c_str(), se, ae, ratio, tot.miss_static,
                tot.miss_adaptive);
    best_ratio = std::max(best_ratio, ratio);
    summary.set(tot.label,
                bench::JsonValue::object()
                    .set("est_err_static_us", se)
                    .set("est_err_adaptive_us", ae)
                    .set("error_ratio", ratio)
                    .set("misses_static", static_cast<double>(tot.miss_static))
                    .set("misses_adaptive",
                         static_cast<double>(tot.miss_adaptive))
                    .set("subframes", static_cast<double>(tot.subframes)));
  }
  bool gate_ok = best_ratio >= gate;

  // ---- Part B: what-if replay over a captured faulted run ---------------
  core::ExperimentConfig rcap = cfg;
  rcap.workload.mean_load_override = -1.0;
  rcap.workload.subframes_per_bs = std::min<std::size_t>(subframes, 3000);
  rcap.workload.seed = 11;
  rcap.workload.fronthaul_faults.loss_prob = 0.02;
  rcap.workload.fronthaul_faults.late_prob = 0.02;
  rcap.degrade.enabled = true;
  rcap.rtt_half = microseconds(650);
  rcap.scheduler = core::SchedulerKind::kPartitioned;

  const auto cap_work = core::make_workload(rcap);
  obs::Tracer tracer(24, 1 << 15, 4 << 20);
  analysis::capture_workload(tracer, cap_work);
  rcap.tracer = &tracer;
  core::run_scheduler(rcap, cap_work);
  const obs::TraceStore captured = tracer.take();

  analysis::ReplayConfig rcfg;
  rcfg.policy = core::SchedulerKind::kPartitioned;
  rcfg.partitioned.rtt_half = rcap.rtt_half;
  rcfg.partitioned.degrade = rcap.degrade;
  rcfg.rtopex.rtt_half = rcap.rtt_half;
  rcfg.rtopex.degrade = rcap.degrade;
  rcfg.analyzer.nominal_transport = rcap.rtt_half;

  const analysis::AnalysisReport original =
      analysis::analyze(captured, rcfg.analyzer);
  const analysis::ReplayResult same = analysis::replay(captured, rcfg);
  const analysis::ReportDelta identity =
      analysis::diff_reports(original, same.report);

  rcfg.policy = core::SchedulerKind::kRtOpex;
  const analysis::ReplayResult counter = analysis::replay(captured, rcfg);
  const analysis::ReportDelta what_if =
      analysis::diff_reports(same.report, counter.report);

  std::printf("\nwhat-if replay (faulted partitioned capture, %zu subframes):\n"
              "  self-replay identity: %s\n"
              "  counterfactual rt-opex: misses %+lld, degraded %+lld\n",
              cap_work.size(), identity.empty() ? "EXACT" : "BROKEN",
              what_if.misses, what_if.degraded);
  if (!identity.empty()) {
    std::printf("  identity diff: %s\n",
                analysis::delta_json(identity).c_str());
    gate_ok = false;
  }

  const std::string json_dir = out_dir.empty() ? "." : out_dir;
  bench::JsonValue root = bench::JsonValue::object();
  root.set("bench", "whatif_adaptive")
      .set("config",
           bench::JsonValue::object()
               .set("basestations",
                    static_cast<double>(cfg.workload.num_basestations))
               .set("subframes_per_bs", static_cast<double>(subframes))
               .set("seed", static_cast<double>(cfg.workload.seed))
               .set("rtt_half_us", to_us(cfg.rtt_half))
               .set("gate_ratio", gate))
      .set("rows", std::move(rows))
      .set("summary", std::move(summary))
      .set("replay",
           bench::JsonValue::object()
               .set("identity", bench::JsonValue::boolean(identity.empty()))
               .set("identity_diff", analysis::delta_json(identity))
               .set("counterfactual", analysis::delta_json(what_if))
               .set("original_misses",
                    static_cast<double>(original.misses))
               .set("rtopex_misses",
                    static_cast<double>(counter.report.misses)))
      .set("best_error_ratio", best_ratio)
      .set("gate_ok", bench::JsonValue::boolean(gate_ok));
  bench::write_bench_json(json_dir + "/BENCH_whatif.json", root);
  std::printf("\nwrote %s/BENCH_whatif.json\n", json_dir.c_str());

  if (!gate_ok) {
    std::fprintf(stderr,
                 "GATE FAILED: best adaptive error ratio %.1fx < %.1fx, or "
                 "identity broken\n",
                 best_ratio, gate);
    return 2;
  }
  return 0;
}
