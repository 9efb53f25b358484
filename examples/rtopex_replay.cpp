// What-if trace replay CLI: feeds a captured trace (a CSV written with
// workload capture enabled — live_runtime --trace, or the --demo mode
// below) back through any sim scheduler in virtual time and diffs the
// postmortem reports. "Would RT-OPEX have saved these misses?"
//
//   $ ./rtopex_replay TRACE.csv [options]
//   $ ./rtopex_replay --demo [options]        (self-contained demo run)
//
//   --policy NAME        replay scheduler: partitioned | global | rt-opex
//                        (default partitioned)
//   --compare NAME       second replay under this policy; prints the
//                        counterfactual diff (compare - policy)
//   --self-check         replay twice under --policy and fail unless the
//                        two reports are identical (determinism gate)
//   --expect-identity    fail unless the replay reproduces the input
//                        trace's own per-cause miss counts (self-replay
//                        identity; requires --policy to match the config
//                        that produced the trace)
//   --demo               generate a faulted fig15-style partitioned run
//                        (capture + trace) instead of reading a file; the
//                        trace CSV round-trips through --out
//   --adaptive           enable online adaptive estimators in the replays
//   --rtt-half-us N      one-way transport budget of the replay configs
//                        (default 500; the demo uses 650)
//   --num-cores N        core count for the global policy (default 8)
//   --degrade            enable graceful degradation in the replay configs
//   --diff-json FILE     write the last diff as JSON ("-" = stdout)
//   --out DIR            artifact directory (default ".")
//
// The last stdout line is always a one-line JSON verdict, so scripts can
// `tail -n 1` it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/experiment.hpp"
#include "obs/analysis/replay.hpp"
#include "obs/chrome_trace.hpp"

namespace {

using namespace rtopex;
namespace analysis = obs::analysis;

bool parse_policy(const char* name, core::SchedulerKind& out) {
  if (std::strcmp(name, "partitioned") == 0) {
    out = core::SchedulerKind::kPartitioned;
  } else if (std::strcmp(name, "global") == 0) {
    out = core::SchedulerKind::kGlobal;
  } else if (std::strcmp(name, "rt-opex") == 0 ||
             std::strcmp(name, "rtopex") == 0) {
    out = core::SchedulerKind::kRtOpex;
  } else {
    return false;
  }
  return true;
}

/// Fig. 15-style faulted partitioned run with workload capture: the
/// self-contained producer for demos and CI smoke tests.
obs::TraceStore demo_trace(Duration rtt_half, bool degrade) {
  core::ExperimentConfig cfg;
  cfg.workload.num_basestations = 4;
  cfg.workload.subframes_per_bs = 3000;
  cfg.workload.seed = 11;
  cfg.workload.fronthaul_faults.loss_prob = 0.02;
  cfg.workload.fronthaul_faults.late_prob = 0.02;
  cfg.degrade.enabled = degrade;
  cfg.rtt_half = rtt_half;
  cfg.scheduler = core::SchedulerKind::kPartitioned;

  const auto work = core::make_workload(cfg);
  obs::Tracer tracer(24, 1 << 15, 4 << 20);
  analysis::capture_workload(tracer, work);
  cfg.tracer = &tracer;
  core::run_scheduler(cfg, work);
  return tracer.take();
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, out_dir = ".", diff_json_path;
  auto policy = core::SchedulerKind::kPartitioned;
  auto compare = core::SchedulerKind::kPartitioned;
  bool have_compare = false;
  bool self_check = false;
  bool expect_identity = false;
  bool demo = false;
  bool adaptive = false;
  bool degrade = false;
  Duration rtt_half = microseconds(500);
  bool rtt_set = false;
  unsigned global_cores = 8;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      if (!parse_policy(argv[++i], policy)) {
        std::fprintf(stderr, "unknown policy: %s\n", argv[i]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--compare") == 0 && i + 1 < argc) {
      if (!parse_policy(argv[++i], compare)) {
        std::fprintf(stderr, "unknown policy: %s\n", argv[i]);
        return 1;
      }
      have_compare = true;
    } else if (std::strcmp(argv[i], "--self-check") == 0) {
      self_check = true;
    } else if (std::strcmp(argv[i], "--expect-identity") == 0) {
      expect_identity = true;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--adaptive") == 0) {
      adaptive = true;
    } else if (std::strcmp(argv[i], "--degrade") == 0) {
      degrade = true;
    } else if (std::strcmp(argv[i], "--rtt-half-us") == 0 && i + 1 < argc) {
      rtt_half = microseconds_f(std::atof(argv[++i]));
      rtt_set = true;
    } else if (std::strcmp(argv[i], "--num-cores") == 0 && i + 1 < argc) {
      global_cores = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--diff-json") == 0 && i + 1 < argc) {
      diff_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (argv[i][0] != '-' && trace_path.empty()) {
      trace_path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s TRACE.csv | --demo [--policy NAME]\n"
                   "  [--compare NAME] [--self-check] [--expect-identity]\n"
                   "  [--adaptive] [--degrade] [--rtt-half-us N]\n"
                   "  [--num-cores N] [--diff-json FILE] [--out DIR]\n",
                   argv[0]);
      return 1;
    }
  }
  if (!demo && trace_path.empty()) {
    std::fprintf(stderr, "%s: no trace file given (or --demo)\n", argv[0]);
    return 1;
  }

  try {
    obs::TraceStore store;
    if (demo) {
      if (!rtt_set) rtt_half = microseconds(650);
      degrade = true;  // the demo producer always degrades (fig15-style)
      store = demo_trace(rtt_half, degrade);
      // Round-trip through the CSV exporter so the demo exercises exactly
      // the same path a captured file does.
      trace_path = out_dir + "/replay_demo_trace.csv";
      obs::write_trace_csv(trace_path, store);
      store = analysis::load_trace_csv(trace_path);
      std::fprintf(stderr, "demo trace written to %s\n", trace_path.c_str());
    } else {
      store = analysis::load_trace_csv(trace_path);
    }

    analysis::ReplayConfig rcfg;
    rcfg.policy = policy;
    rcfg.partitioned.rtt_half = rtt_half;
    rcfg.partitioned.degrade.enabled = degrade;
    rcfg.partitioned.adaptive.enabled = adaptive;
    rcfg.rtopex.rtt_half = rtt_half;
    rcfg.rtopex.degrade.enabled = degrade;
    rcfg.rtopex.adaptive.enabled = adaptive;
    rcfg.global.num_cores = global_cores;
    rcfg.global.degrade.enabled = degrade;
    rcfg.global.adaptive.enabled = adaptive;
    rcfg.analyzer.nominal_transport = rtt_half;

    // Same analyzer options on both sides, or attribution thresholds
    // (nominal transport) would differ and break the identity diff.
    const analysis::AnalysisReport baseline =
        analysis::analyze(store, rcfg.analyzer);
    std::printf("baseline %s\n", analysis::summary_json(baseline).c_str());

    const analysis::ReplayResult primary = analysis::replay(store, rcfg);
    std::printf("replay[%s] %s\n", core::to_string(policy),
                analysis::summary_json(primary.report).c_str());

    int failures = 0;
    analysis::ReportDelta last_delta;

    if (self_check) {
      const analysis::ReplayResult again = analysis::replay(store, rcfg);
      const analysis::ReportDelta d =
          analysis::diff_reports(primary.report, again.report);
      last_delta = d;
      if (!d.empty()) {
        std::fprintf(stderr, "SELF-CHECK FAILED: replay is not deterministic\n");
        std::fprintf(stderr, "%s\n", analysis::delta_json(d).c_str());
        ++failures;
      } else {
        std::fprintf(stderr, "self-check passed: replay is deterministic\n");
      }
    }

    if (expect_identity) {
      const analysis::ReportDelta d =
          analysis::diff_reports(baseline, primary.report);
      last_delta = d;
      if (!d.empty()) {
        std::fprintf(stderr,
                     "IDENTITY FAILED: replay does not reproduce the "
                     "original report\n");
        std::fprintf(stderr, "%s\n", analysis::delta_json(d).c_str());
        ++failures;
      } else {
        std::fprintf(stderr, "self-replay identity holds\n");
      }
    }

    if (have_compare) {
      analysis::ReplayConfig ccfg = rcfg;
      ccfg.policy = compare;
      const analysis::ReplayResult counter = analysis::replay(store, ccfg);
      std::printf("replay[%s] %s\n", core::to_string(compare),
                  analysis::summary_json(counter.report).c_str());
      last_delta = analysis::diff_reports(primary.report, counter.report);
      std::fprintf(stderr, "counterfactual (%s - %s): misses %+lld\n",
                   core::to_string(compare), core::to_string(policy),
                   last_delta.misses);
    }

    const std::string delta_text = analysis::delta_json(last_delta);
    if (!diff_json_path.empty()) {
      if (diff_json_path == "-") {
        std::printf("%s\n", delta_text.c_str());
      } else {
        std::FILE* f = std::fopen(diff_json_path.c_str(), "w");
        if (!f) throw std::runtime_error("cannot open " + diff_json_path);
        std::fprintf(f, "%s\n", delta_text.c_str());
        std::fclose(f);
      }
    }
    std::printf("%s\n", delta_text.c_str());
    return failures == 0 ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
