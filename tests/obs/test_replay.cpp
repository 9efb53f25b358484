// What-if trace replay engine: workload capture/recovery round-trips, the
// self-replay identity anchor (replaying a captured run under its original
// scheduler/config reproduces the original per-cause miss counts exactly,
// including across a CSV round-trip), counterfactual determinism, and the
// trace-CSV loader's corruption handling (truncated files, unknown
// versions, bad footers).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "obs/analysis/replay.hpp"
#include "obs/chrome_trace.hpp"

namespace rtopex {
namespace {

using obs::TraceStore;
namespace analysis = obs::analysis;

// Fig. 15-style faulted partitioned run (matches the postmortem suite's
// accuracy-bar config): enough misses, losses, late arrivals and degrades
// to make identity a demanding check.
core::ExperimentConfig faulted_sim_config() {
  core::ExperimentConfig cfg;
  cfg.workload.num_basestations = 4;
  cfg.workload.subframes_per_bs = 3000;
  cfg.workload.seed = 11;
  cfg.workload.fronthaul_faults.loss_prob = 0.02;
  cfg.workload.fronthaul_faults.late_prob = 0.02;
  cfg.degrade.enabled = true;
  cfg.rtt_half = microseconds(650);
  cfg.scheduler = core::SchedulerKind::kPartitioned;
  return cfg;
}

/// Runs `cfg` over `work` with workload capture + tracing; returns the
/// drained store (capture events and scheduler events interleaved).
TraceStore run_captured(core::ExperimentConfig& cfg,
                        std::span<const sim::SubframeWork> work) {
  obs::Tracer tracer(24, /*ring_capacity=*/1 << 15,
                     /*max_stored_events=*/4 << 20);
  analysis::capture_workload(tracer, work);
  cfg.tracer = &tracer;
  core::run_scheduler(cfg, work);
  cfg.tracer = nullptr;
  return tracer.take();
}

analysis::ReplayConfig matching_replay_config(
    const core::ExperimentConfig& cfg) {
  analysis::ReplayConfig rcfg;
  rcfg.policy = core::SchedulerKind::kPartitioned;
  rcfg.partitioned.rtt_half = cfg.rtt_half;
  rcfg.partitioned.degrade = cfg.degrade;
  rcfg.rtopex.rtt_half = cfg.rtt_half;
  rcfg.rtopex.degrade = cfg.degrade;
  rcfg.analyzer.nominal_transport = cfg.rtt_half;
  return rcfg;
}

TEST(ReplayRecover, CaptureRoundTripsEverySubframeField) {
  core::ExperimentConfig cfg = faulted_sim_config();
  cfg.workload.subframes_per_bs = 200;
  const auto work = core::make_workload(cfg);

  obs::Tracer tracer(2, 1 << 15, 4 << 20);
  analysis::capture_workload(tracer, work);
  const auto recovered = analysis::recover_workload(tracer.take());

  ASSERT_EQ(recovered.size(), work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    const sim::SubframeWork& a = work[i];
    const sim::SubframeWork& b = recovered[i];
    SCOPED_TRACE("subframe " + std::to_string(i));
    EXPECT_EQ(a.bs, b.bs);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.radio_time, b.radio_time);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.deadline, b.deadline);
    EXPECT_EQ(a.mcs, b.mcs);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.lm, b.lm);
    EXPECT_EQ(a.decodable, b.decodable);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.costs.fft, b.costs.fft);
    EXPECT_EQ(a.costs.demod, b.costs.demod);
    EXPECT_EQ(a.costs.decode, b.costs.decode);
    EXPECT_EQ(a.costs.fft_subtasks, b.costs.fft_subtasks);
    EXPECT_EQ(a.costs.fft_subtask, b.costs.fft_subtask);
    EXPECT_EQ(a.costs.decode_subtasks, b.costs.decode_subtasks);
    EXPECT_EQ(a.costs.decode_subtask, b.costs.decode_subtask);
    EXPECT_EQ(a.wcet.fft, b.wcet.fft);
    EXPECT_EQ(a.wcet.demod, b.wcet.demod);
    EXPECT_EQ(a.wcet.decode, b.wcet.decode);
    EXPECT_EQ(a.wcet.fft_subtask, b.wcet.fft_subtask);
    EXPECT_EQ(a.wcet.decode_subtask, b.wcet.decode_subtask);
    EXPECT_EQ(a.decode_optimistic, b.decode_optimistic);
  }
}

TEST(ReplayIdentity, SelfReplayReproducesTheReportBitExactly) {
  core::ExperimentConfig cfg = faulted_sim_config();
  const auto work = core::make_workload(cfg);
  const TraceStore store = run_captured(cfg, work);
  ASSERT_EQ(store.total_drops(), 0u);

  const analysis::ReplayConfig rcfg = matching_replay_config(cfg);
  const analysis::AnalysisReport original =
      analysis::analyze(store, rcfg.analyzer);
  ASSERT_GT(original.misses, 0u);

  const analysis::ReplayResult replayed = analysis::replay(store, rcfg);
  const analysis::ReportDelta d =
      analysis::diff_reports(original, replayed.report);
  EXPECT_TRUE(d.empty()) << analysis::delta_json(d);
  EXPECT_EQ(analysis::summary_json(original),
            analysis::summary_json(replayed.report));
}

TEST(ReplayIdentity, IdentitySurvivesTheCsvRoundTrip) {
  core::ExperimentConfig cfg = faulted_sim_config();
  cfg.workload.subframes_per_bs = 1000;
  const auto work = core::make_workload(cfg);
  const TraceStore store = run_captured(cfg, work);

  const std::string path = ::testing::TempDir() + "replay_roundtrip.csv";
  obs::write_trace_csv(path, store);
  const TraceStore loaded = analysis::load_trace_csv(path);
  std::remove(path.c_str());

  const analysis::ReplayConfig rcfg = matching_replay_config(cfg);
  const analysis::AnalysisReport original =
      analysis::analyze(store, rcfg.analyzer);
  const analysis::ReplayResult replayed = analysis::replay(loaded, rcfg);
  const analysis::ReportDelta d =
      analysis::diff_reports(original, replayed.report);
  EXPECT_TRUE(d.empty()) << analysis::delta_json(d);
}

TEST(ReplayCounterfactual, PolicySwapIsDeterministic) {
  core::ExperimentConfig cfg = faulted_sim_config();
  cfg.workload.subframes_per_bs = 1000;
  const auto work = core::make_workload(cfg);
  const TraceStore store = run_captured(cfg, work);

  analysis::ReplayConfig rcfg = matching_replay_config(cfg);
  rcfg.policy = core::SchedulerKind::kRtOpex;
  const analysis::ReplayResult a = analysis::replay(store, rcfg);
  const analysis::ReplayResult b = analysis::replay(store, rcfg);
  EXPECT_TRUE(analysis::diff_reports(a.report, b.report).empty());
  EXPECT_EQ(analysis::summary_json(a.report),
            analysis::summary_json(b.report));
  EXPECT_EQ(a.scheduler_name, "rt-opex");

  // And the counterfactual genuinely re-schedules: same offered load, with
  // the per-cause counts free to differ from the partitioned original.
  const analysis::AnalysisReport original =
      analysis::analyze(store, rcfg.analyzer);
  EXPECT_EQ(a.report.subframes, original.subframes);
  EXPECT_EQ(a.report.lost, original.lost);
}

TEST(ReplayErrors, TraceWithoutCaptureThrows) {
  core::ExperimentConfig cfg = faulted_sim_config();
  cfg.workload.subframes_per_bs = 50;
  const auto work = core::make_workload(cfg);
  // Traced run, but no capture_workload call.
  obs::Tracer tracer(24, 1 << 15, 4 << 20);
  cfg.tracer = &tracer;
  core::run_scheduler(cfg, work);
  cfg.tracer = nullptr;
  EXPECT_THROW(analysis::replay(tracer.take(), matching_replay_config(cfg)),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Trace-CSV loader corruption handling (regression fixtures).

std::string small_csv() {
  obs::TraceStore store;
  obs::TraceEvent ev;
  ev.ts = 1000;
  ev.bs = 0;
  ev.index = 1;
  ev.core = 0;
  ev.kind = obs::EventKind::kArrival;
  store.events.push_back(ev);
  ev.ts = 2000;
  ev.kind = obs::EventKind::kSubframeEnd;
  store.events.push_back(ev);
  const std::string path = ::testing::TempDir() + "replay_fixture.csv";
  obs::write_trace_csv(path, store);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

std::string write_text(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(TraceCsvRobustness, TruncatedFileIsRejected) {
  const std::string text = small_csv();
  // Drop the footer row (and with it the trailing newline): simulates a
  // file cut off mid-write.
  const std::size_t last = text.rfind('\n', text.size() - 2);
  ASSERT_NE(last, std::string::npos);
  const std::string path =
      write_text("replay_truncated.csv", text.substr(0, last + 1));
  EXPECT_THROW(
      {
        try {
          analysis::load_trace_csv(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("footer"), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceCsvRobustness, UnknownVersionHeaderIsRejected) {
  std::string text = small_csv();
  const std::string path = write_text(
      "replay_unknown_version.csv",
      "ts_ns_v99,core,kind,stage,bs,index,a,b\n" +
          text.substr(text.find('\n') + 1));
  EXPECT_THROW(
      {
        try {
          analysis::load_trace_csv(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceCsvRobustness, FooterCountMismatchIsRejected) {
  const std::string text = small_csv();
  // Remove one event row but keep the footer claiming the original count.
  const std::size_t first_row = text.find('\n') + 1;
  const std::size_t second_row = text.find('\n', first_row) + 1;
  const std::string path = write_text(
      "replay_count_mismatch.csv",
      text.substr(0, first_row) + text.substr(second_row));
  EXPECT_THROW(analysis::load_trace_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceCsvRobustness, LegacyHeadersAreRejected) {
  // Only the version write_trace_csv emits loads: a pre-footer "ts_ns" file
  // and a "ts_ns_v2" file are both refused by name, footer or not.
  const std::string text = small_csv();
  const std::string body = text.substr(text.find(','));
  for (const std::string legacy : {"ts_ns", "ts_ns_v2"}) {
    const std::string path = write_text("replay_legacy.csv", legacy + body);
    EXPECT_THROW(
        {
          try {
            analysis::load_trace_csv(path);
          } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos)
                << e.what();
            throw;
          }
        },
        std::runtime_error)
        << legacy;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace rtopex
