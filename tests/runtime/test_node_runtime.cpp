// Functional tests of the real-thread runtime: every subframe decoded
// correctly under all three modes, migration bookkeeping consistent, no
// lost/duplicated subframes. Timing is intentionally not asserted — these
// tests run on arbitrary (possibly single-core) hosts, so the subframe
// period is stretched far beyond real time.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "obs/analysis/replay.hpp"
#include "obs/prom_lint.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/node_runtime.hpp"
#include "support/sanitizer_pacing.hpp"

namespace rtopex::runtime {
namespace {

RuntimeConfig small_config(RuntimeMode mode) {
  RuntimeConfig cfg;
  cfg.mode = mode;
  cfg.num_basestations = 2;
  cfg.cores_per_bs = 2;
  cfg.global_cores = 4;
  cfg.subframes_per_bs = 8;
  // Generous pacing so even a loaded single-core CI host keeps up, scaled
  // further when sanitizer instrumentation slows the PHY.
  cfg.subframe_period = milliseconds(60) * test::pacing_scale();
  cfg.deadline_budget = milliseconds(120) * test::pacing_scale();
  cfg.rtt_half = microseconds(500);
  cfg.mcs_cycle = {4, 16};
  cfg.phy.num_antennas = 2;
  cfg.phy.bandwidth = phy::Bandwidth::kMHz5;  // keep tests fast
  cfg.seed = 7;
  return cfg;
}

void check_complete(const RuntimeReport& report, const RuntimeConfig& cfg) {
  EXPECT_EQ(report.records.size(),
            static_cast<std::size_t>(cfg.num_basestations) *
                cfg.subframes_per_bs);
  std::set<std::pair<unsigned, std::uint32_t>> seen;
  for (const auto& r : report.records) {
    EXPECT_TRUE(seen.insert({r.bs, r.index}).second)
        << "duplicate subframe bs=" << r.bs << " idx=" << r.index;
    EXPECT_TRUE(r.crc_ok) << "decode failed bs=" << r.bs << " idx=" << r.index
                          << " mcs=" << r.mcs;
    EXPECT_GE(r.completion, r.start);
    EXPECT_GE(r.start, r.arrival);
  }
  EXPECT_EQ(report.crc_failures, 0u);
}

TEST(NodeRuntimeTest, PartitionedDecodesEverything) {
  const auto cfg = small_config(RuntimeMode::kPartitioned);
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_complete(report, cfg);
  EXPECT_EQ(report.migrations, 0u);
}

TEST(NodeRuntimeTest, GlobalDecodesEverything) {
  const auto cfg = small_config(RuntimeMode::kGlobal);
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_complete(report, cfg);
}

TEST(NodeRuntimeTest, RtOpexDecodesEverythingWithMigration) {
  auto cfg = small_config(RuntimeMode::kRtOpex);
  cfg.mcs_cycle = {27, 2};  // multi-code-block subframes: migratable decode
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_complete(report, cfg);
  // Migration counters are never negative and recoveries never exceed
  // migrations-planned + hosting progress; at this pacing idle windows are
  // plentiful, so some migration is expected on multi-core hosts but not
  // guaranteed on single-core ones — assert consistency only.
  std::size_t migrated_in_records = 0;
  for (const auto& r : report.records)
    migrated_in_records += r.timing.fft_migrated + r.timing.decode_migrated;
  EXPECT_EQ(report.migrations, migrated_in_records);
}

TEST(NodeRuntimeTest, SlackCheckDropsUnderImpossibleBudget) {
  auto cfg = small_config(RuntimeMode::kPartitioned);
  // A 1 ms end-to-end budget cannot fit this host's multi-millisecond
  // decode; the slack check must drop (not hang or crash), and dropped
  // subframes must not count as CRC failures.
  cfg.deadline_budget = milliseconds(1);
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  EXPECT_EQ(report.records.size(),
            static_cast<std::size_t>(cfg.num_basestations) *
                cfg.subframes_per_bs);
  EXPECT_GT(report.dropped, 0u);
  EXPECT_EQ(report.deadline_misses, report.records.size());
  EXPECT_EQ(report.crc_failures, 0u);
  for (const auto& r : report.records)
    if (r.dropped) EXPECT_TRUE(r.deadline_missed);
}

TEST(NodeRuntimeTest, EnforcementOffOnlyRecordsMisses) {
  auto cfg = small_config(RuntimeMode::kPartitioned);
  cfg.deadline_budget = milliseconds(1);
  cfg.enforce_deadlines = false;
  cfg.subframes_per_bs = 4;
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_GT(report.deadline_misses, 0u);
  EXPECT_EQ(report.crc_failures, 0u);  // everything still decodes
}

TEST(NodeRuntimeTest, ThroughputBatchedDecodesEverything) {
  // Saturating arrival (period far below this host's decode time) with
  // enforcement off: jobs queue up, so batched workers drain several per
  // pass and fuse their code blocks into cross-subframe SoA batches. The
  // conservation/CRC contract must hold exactly as in latency mode, and
  // profiling a fused pass must keep every span: no subframe's span stays
  // open across another's, so nothing nests deeper than subframe;stage or
  // overflows the span stack.
  for (const auto mode : {RuntimeMode::kGlobal, RuntimeMode::kPartitioned}) {
    auto cfg = small_config(mode);
    cfg.subframe_period = microseconds(200);
    cfg.deadline_budget = milliseconds(2);
    cfg.rtt_half = microseconds(50);
    cfg.enforce_deadlines = false;
    cfg.subframes_per_bs = 6;
    cfg.throughput.batch = 8;
    cfg.trace.enabled = true;
    cfg.profile.enabled = true;
    NodeRuntime runtime(cfg);
    const auto report = runtime.run();
    check_complete(report, cfg);
    // Every record that claims batching is accounted; with arrivals this
    // far ahead of service, at least some passes must have fused >= 2
    // subframes (the queues are necessarily non-empty after the first
    // decode completes).
    EXPECT_GT(report.batched_subframes, 0u)
        << "mode " << static_cast<int>(mode);
    EXPECT_LE(report.batched_subframes, report.records.size());

    EXPECT_EQ(report.profile.drops, 0u) << "mode " << static_cast<int>(mode);
    std::map<std::pair<unsigned, std::uint32_t>, int> fft_spans, demod_spans;
    for (const auto& s : report.profile.samples) {
      EXPECT_LE(s.depth, 2u) << "mode " << static_cast<int>(mode);
      if (s.stage == obs::Stage::kFft) ++fft_spans[{s.bs, s.index}];
      if (s.stage == obs::Stage::kDemod) ++demod_spans[{s.bs, s.index}];
    }
    for (const auto& r : report.records) {
      const std::pair<unsigned, std::uint32_t> id{r.bs, r.index};
      EXPECT_EQ(fft_spans[id], 1) << "bs=" << r.bs << " idx=" << r.index;
      EXPECT_EQ(demod_spans[id], 1) << "bs=" << r.bs << " idx=" << r.index;
    }
  }
}

TEST(NodeRuntimeTest, EveryModeStartsWithWarmScratch) {
  // Every worker pre-warms its own workspace before the schedule starts, so
  // no stage grows scratch memory mid-schedule, in any mode: the minor page
  // faults (the software profiler reads them per thread) summed over a
  // worker's stage spans, own and hosted, stay within a few pages from the
  // first subframe on. A cold workspace faults in hundreds of pages over the
  // first subframes. Only a fresh process shows that: an earlier run in the
  // same process can hand its already-touched heap to a later one, and
  // ctest runs each test in a process of its own.
  if (test::pacing_scale() > 1)
    GTEST_SKIP() << "sanitizer builds fault on shadow pages";
  // Warm workers measured 0-1 faults each, cold ones 187-500 (one fresh
  // process per mode).
  constexpr std::uint64_t kFaultBound = 8;
  struct Case {
    const char* name;
    RuntimeMode mode;
    unsigned batch;
  };
  const Case cases[] = {{"rt-opex", RuntimeMode::kRtOpex, 1},
                        {"partitioned", RuntimeMode::kPartitioned, 1},
                        {"global", RuntimeMode::kGlobal, 1},
                        {"global batch 16", RuntimeMode::kGlobal, 16}};
  // Forces RT-OPEX to migrate, so its hosts run stages too.
  fault::Hooks hooks;
  hooks.plan_window = [](unsigned, unsigned, Duration& window) {
    window = milliseconds(1000);
  };
  fault::ScopedInjection inject(std::move(hooks));
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto cfg = small_config(c.mode);
    cfg.num_basestations = 1;
    cfg.global_cores = 2;
    cfg.subframes_per_bs = 40;
    cfg.subframe_period = milliseconds(3);
    cfg.deadline_budget = milliseconds(6);
    cfg.enforce_deadlines = false;
    // 10 MHz: MCS 27 has six code blocks, enough for an 8-lane batch pass.
    cfg.phy.bandwidth = phy::Bandwidth::kMHz10;
    cfg.mcs_cycle = {27, 16};
    cfg.throughput.batch = c.batch;
    cfg.profile.enabled = true;
    cfg.profile.backend = obs::profile::Backend::kSoftware;
    NodeRuntime runtime(cfg);
    const auto report = runtime.run();
    check_complete(report, cfg);
    ASSERT_EQ(report.profile.drops, 0u);
    if (c.mode == RuntimeMode::kRtOpex) EXPECT_GT(report.migrations, 0u);
    std::map<std::uint32_t, std::uint64_t> faults;
    for (const auto& s : report.profile.samples)
      if (s.stage != obs::Stage::kNone) faults[s.core] += s.delta.minor_faults;
    for (const auto& [worker, n] : faults)
      EXPECT_LE(n, kFaultBound) << "worker " << worker;
  }
}

TEST(NodeRuntimeTest, StageEdgesShareOneInstant) {
  // Each stage edge is read once and shared: a stage's profile sample, its
  // kStageBegin/kStageEnd and the record's timing width are one interval,
  // adjacent stages meet at one instant, and a hosted chunk's spans sit
  // exactly on its kHostBegin/kHostEnd.
  if (!RTOPEX_TRACE_ENABLED) GTEST_SKIP() << "built with RTOPEX_TRACING=OFF";
  auto cfg = small_config(RuntimeMode::kRtOpex);
  cfg.mcs_cycle = {27, 16};  // multi-code-block subframes: migratable decode
  cfg.subframe_period = milliseconds(30) * test::pacing_scale();
  cfg.deadline_budget = milliseconds(60) * test::pacing_scale();
  cfg.enforce_deadlines = false;
  cfg.trace.enabled = true;
  cfg.trace.ring_capacity = 1 << 14;
  cfg.profile.enabled = true;
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_complete(report, cfg);
  ASSERT_EQ(report.trace.total_drops(), 0u);
  ASSERT_EQ(report.profile.drops, 0u);

  using Key = std::tuple<unsigned, std::uint32_t, obs::Stage>;
  std::map<Key, TimePoint> stage_begin, stage_end;
  using HostKey = std::tuple<std::uint32_t, unsigned, std::uint32_t>;
  std::map<HostKey, std::set<TimePoint>> host_begin, host_end;
  for (const auto& ev : report.trace.events) {
    const Key key{ev.bs, ev.index, ev.stage};
    const HostKey host{ev.core, ev.bs, ev.index};
    if (ev.kind == obs::EventKind::kStageBegin) stage_begin[key] = ev.ts;
    if (ev.kind == obs::EventKind::kStageEnd) stage_end[key] = ev.ts;
    if (ev.kind == obs::EventKind::kHostBegin) host_begin[host].insert(ev.ts);
    if (ev.kind == obs::EventKind::kHostEnd) host_end[host].insert(ev.ts);
  }
  std::map<Key, const obs::profile::ProfileSample*> own_spans;
  std::size_t host_samples = 0;
  for (const auto& s : report.profile.samples) {
    if (std::strcmp(s.frames[0], "host") == 0) {
      ++host_samples;
      const HostKey host{s.core, s.bs, s.index};
      EXPECT_EQ(host_begin[host].count(s.ts_begin), 1u)
          << "host span on core " << s.core << " bs=" << s.bs;
      EXPECT_EQ(host_end[host].count(s.ts_end), 1u)
          << "host span on core " << s.core << " bs=" << s.bs;
    } else if (s.stage != obs::Stage::kNone) {
      own_spans[Key{s.bs, s.index, s.stage}] = &s;
    }
  }

  for (const auto& r : report.records) {
    const Key fft{r.bs, r.index, obs::Stage::kFft};
    const Key demod{r.bs, r.index, obs::Stage::kDemod};
    const Key decode{r.bs, r.index, obs::Stage::kDecode};
    const auto width = [&](const Key& key) {
      const auto* span = own_spans[key];
      EXPECT_NE(span, nullptr) << "bs=" << r.bs << " idx=" << r.index;
      if (!span) return Duration{-1};
      EXPECT_EQ(span->ts_begin, stage_begin[key]);
      EXPECT_EQ(span->ts_end, stage_end[key]);
      return span->ts_end - span->ts_begin;
    };
    EXPECT_EQ(r.timing.fft, width(fft));
    EXPECT_EQ(r.timing.demod, width(demod));
    EXPECT_EQ(r.timing.decode, width(decode));
    EXPECT_EQ(stage_end[fft], stage_begin[demod]);
    EXPECT_EQ(stage_end[demod], stage_begin[decode]);
    EXPECT_EQ(stage_end[decode], r.completion);
  }
  // Migration needs an idle peer, which a loaded host may never offer; the
  // host half of the check is then vacuous.
  if (report.migrations > 0) EXPECT_GT(host_samples, 0u);
}

TEST(NodeRuntimeTest, StageEstimatesStepAQuarterFromTheirSeeds) {
  // The run's one estimate state starts at the configured seeds, and every
  // measured stage moves it a quarter of the way, with adaptive estimation
  // off or on: subframe 0's kStageBegin estimates are the seeds, and
  // subframe 1's are one seeded step from subframe 0's measured widths (per
  // subtask for the FFT and the decode). Seeds far above the kernels' costs
  // keep that step far from the sample it moves toward; deadlines are off
  // so nothing drops on them, and before 32 decodes the fit is cold, so the
  // adaptive decode estimate is the tracker's too.
  if (!RTOPEX_TRACE_ENABLED) GTEST_SKIP() << "built with RTOPEX_TRACING=OFF";
  for (const bool adaptive : {false, true}) {
    SCOPED_TRACE(adaptive ? "adaptive" : "static");
    auto cfg = small_config(RuntimeMode::kPartitioned);
    cfg.num_basestations = 1;
    cfg.cores_per_bs = 1;
    cfg.subframes_per_bs = 2;
    cfg.enforce_deadlines = false;
    cfg.adaptive = adaptive;
    cfg.trace.enabled = true;
    cfg.initial_fft_subtask_est = milliseconds(1);
    cfg.initial_demod_est = milliseconds(20);
    cfg.initial_decode_subtask_est = milliseconds(20);
    NodeRuntime runtime(cfg);
    const auto report = runtime.run();
    check_complete(report, cfg);
    ASSERT_EQ(report.trace.total_drops(), 0u);
    std::map<std::pair<std::uint32_t, obs::Stage>, double> estimate;
    for (const auto& ev : report.trace.events)
      if (ev.kind == obs::EventKind::kStageBegin)
        estimate[{ev.index, ev.stage}] = ev.a;
    const auto begin = [&](std::uint32_t index, obs::Stage stage) {
      return estimate[{index, stage}];
    };
    const auto& r0 = report.records[0];
    ASSERT_EQ(r0.index, 0u);
    const auto blocks = [&](std::uint32_t index) {
      return static_cast<double>(phy::num_code_blocks(
          report.records[index].mcs, cfg.phy.num_prb()));
    };
    const double fft_n = cfg.phy.num_antennas * phy::kSymbolsPerSubframe;
    const auto step = [](Duration seed, double sample) {
      return 0.75 * static_cast<double>(seed) + 0.25 * sample;
    };

    EXPECT_EQ(begin(0, obs::Stage::kFft),
              static_cast<double>(cfg.initial_fft_subtask_est) * fft_n);
    EXPECT_EQ(begin(0, obs::Stage::kDemod),
              static_cast<double>(cfg.initial_demod_est));
    EXPECT_EQ(begin(0, obs::Stage::kDecode),
              static_cast<double>(cfg.initial_decode_subtask_est) * blocks(0));

    const double fft_sub = step(
        cfg.initial_fft_subtask_est,
        static_cast<double>(r0.timing.fft / static_cast<Duration>(fft_n)));
    EXPECT_NEAR(begin(1, obs::Stage::kFft), fft_sub * fft_n, fft_n);
    EXPECT_NEAR(begin(1, obs::Stage::kDemod),
                step(cfg.initial_demod_est,
                     static_cast<double>(r0.timing.demod)),
                1.0);
    const double dec_sub =
        step(cfg.initial_decode_subtask_est,
             static_cast<double>(r0.timing.decode /
                                 static_cast<Duration>(blocks(0))));
    EXPECT_NEAR(begin(1, obs::Stage::kDecode), dec_sub * blocks(1),
                blocks(1));
  }
}

TEST(NodeRuntimeTest, RtOpexAdaptiveMigratesOnTheSharedEstimates) {
  // Adaptive RT-OPEX with migration forced through plan_window: every
  // worker reads and feeds the one estimate state while its peers host its
  // chunks, and past the fit's 32-decode warm-up the slack check admits on
  // the Eq. (1) fit. Conservation and CRC must hold throughout.
  fault::Hooks hooks;
  hooks.plan_window = [](unsigned, unsigned, Duration& window) {
    window = milliseconds(1000);
  };
  fault::ScopedInjection inject(std::move(hooks));
  auto cfg = small_config(RuntimeMode::kRtOpex);
  cfg.adaptive = true;
  cfg.mcs_cycle = {27, 16};  // multi-code-block subframes: migratable decode
  cfg.subframes_per_bs = 24;
  cfg.subframe_period = milliseconds(5) * test::pacing_scale();
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_complete(report, cfg);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_GT(report.migrations, 0u);
  std::size_t migrated_in_records = 0;
  for (const auto& r : report.records)
    migrated_in_records += r.timing.fft_migrated + r.timing.decode_migrated;
  EXPECT_EQ(report.migrations, migrated_in_records);
}

TEST(NodeRuntimeTest, CaptureRecoversEveryOfferedSubframe) {
  // The workload capture of a traced run with fronthaul loss: one
  // SubframeWork per offered (bs, index), the lost ones flagged, the
  // decoded ones with their measured (positive) costs and the PHY's
  // subtask counts.
  if (!RTOPEX_TRACE_ENABLED) GTEST_SKIP() << "built with RTOPEX_TRACING=OFF";
  auto cfg = small_config(RuntimeMode::kPartitioned);
  cfg.subframes_per_bs = 10;
  cfg.subframe_period = milliseconds(20) * test::pacing_scale();
  cfg.deadline_budget = milliseconds(40) * test::pacing_scale();
  cfg.resilience.fronthaul_faults.loss_prob = 0.35;
  cfg.trace.enabled = true;
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  ASSERT_EQ(report.trace.total_drops(), 0u);
  ASSERT_GE(report.resilience.lost_subframes, 1u);
  const auto work = obs::analysis::recover_workload(report.trace);
  ASSERT_EQ(work.size(), report.records.size());

  std::map<std::pair<unsigned, std::uint32_t>, const sim::SubframeWork*> by_id;
  for (const auto& w : work)
    EXPECT_TRUE(by_id.emplace(std::make_pair(w.bs, w.index), &w).second)
        << "bs=" << w.bs << " idx=" << w.index;
  for (const auto& r : report.records) {
    SCOPED_TRACE("bs=" + std::to_string(r.bs) + " idx=" +
                 std::to_string(r.index));
    const auto it = by_id.find({r.bs, r.index});
    ASSERT_NE(it, by_id.end());
    const sim::SubframeWork& w = *it->second;
    EXPECT_EQ(w.lost, r.lost);
    EXPECT_EQ(w.mcs, r.mcs);
    EXPECT_EQ(w.radio_time, r.radio_time);
    EXPECT_EQ(w.costs.fft_subtasks,
              cfg.phy.num_antennas * phy::kSymbolsPerSubframe);
    EXPECT_EQ(w.costs.decode_subtasks,
              phy::num_code_blocks(r.mcs, cfg.phy.num_prb()));
    if (r.lost || r.dropped || r.late_arrival) continue;
    EXPECT_EQ(w.costs.fft, r.timing.fft);
    EXPECT_EQ(w.costs.demod, r.timing.demod);
    EXPECT_EQ(w.costs.decode, r.timing.decode);
    EXPECT_GT(w.costs.fft_subtask, 0);
    EXPECT_GT(w.costs.demod, 0);
    EXPECT_GT(w.costs.decode_subtask, 0);
    EXPECT_EQ(w.iterations, r.iterations);
    EXPECT_EQ(w.decodable, r.crc_ok);
  }
}

TEST(NodeRuntimeTest, LiveSnapshotDeclaresThePostRunSeries) {
  // The mid-run snapshot and the post-run registry render their shared
  // series from one function: every HELP/TYPE header of the last live
  // snapshot (bar its uptime gauge, which only a running node has) recurs
  // verbatim after the run, and both texts are valid expositions.
  auto cfg = small_config(RuntimeMode::kRtOpex);
  cfg.subframes_per_bs = 4;
  cfg.trace.enabled = true;
  cfg.metrics_period = cfg.subframe_period;
  std::string live;
  cfg.metrics_sink = [&live](const std::string& text) { live = text; };
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  ASSERT_FALSE(live.empty());
  obs::MetricsRegistry registry;
  fill_registry(report, registry);
  const std::string post = registry.render();
  for (const std::string& problem : obs::lint_prometheus_text(live))
    ADD_FAILURE() << "live: " << problem;
  for (const std::string& problem : obs::lint_prometheus_text(post))
    ADD_FAILURE() << "post-run: " << problem;

  std::istringstream in(live);
  std::size_t headers = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# ", 0) != 0 ||
        line.find(" rtopex_runtime_uptime_seconds ") != std::string::npos)
      continue;
    ++headers;
    EXPECT_NE(post.find(line + "\n"), std::string::npos) << line;
  }
  // 8 runtime counters and 4 trace series, a HELP and a TYPE line each.
  EXPECT_EQ(headers, 2u * 12);
}

TEST(NodeRuntimeTest, ThroughputBatchOfOneMatchesDefaultContract) {
  // batch=1 (the default) plus the pinning knob must behave exactly like
  // the plain runtime: everything decodes, nothing reports as batched.
  auto cfg = small_config(RuntimeMode::kGlobal);
  cfg.throughput.batch = 1;
  cfg.pin_threads = true;  // best-effort; may silently no-op
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_complete(report, cfg);
  EXPECT_EQ(report.batched_subframes, 0u);
}

TEST(NodeRuntimeTest, RejectsBadThroughputConfig) {
  // batch = 0 would make workers drain nothing and spin forever.
  auto cfg = small_config(RuntimeMode::kGlobal);
  cfg.throughput.batch = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  // Above the cross-subframe decoder's hard cap.
  cfg = small_config(RuntimeMode::kGlobal);
  cfg.throughput.batch = 17;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  // RT-OPEX migrates decode per-subtask — the granularity batching fuses
  // away — so batching is rejected there rather than silently ignored.
  cfg = small_config(RuntimeMode::kRtOpex);
  cfg.throughput.batch = 2;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kRtOpex);
  cfg.throughput.batch = 1;  // explicit batch-of-1 stays allowed
  EXPECT_NO_THROW(NodeRuntime{cfg});
  // An explicit pin set must cover every worker.
  cfg = small_config(RuntimeMode::kGlobal);  // global_cores = 4
  cfg.throughput.worker_cores = {0, 1};
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
}

TEST(NodeRuntimeTest, RejectsEmptyConfig) {
  RuntimeConfig cfg = small_config(RuntimeMode::kPartitioned);
  cfg.mcs_cycle.clear();
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.mcs_cycle = {99};
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
}

TEST(NodeRuntimeTest, RejectsZeroCores) {
  // Zero workers would leave pushed jobs queued forever; the constructor
  // must throw instead of letting run() hang on the drain loop.
  auto cfg = small_config(RuntimeMode::kPartitioned);
  cfg.cores_per_bs = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kRtOpex);
  cfg.cores_per_bs = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kGlobal);
  cfg.global_cores = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.num_basestations = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
}

TEST(NodeRuntimeTest, RejectsZeroSubframesAndBadPacing) {
  auto cfg = small_config(RuntimeMode::kPartitioned);
  cfg.subframes_per_bs = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.subframe_period = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.deadline_budget = -milliseconds(1);
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
}

TEST(NodeRuntimeTest, RejectsRttConsumingWholeBudget) {
  // Arrival at/after the deadline means every subframe is dead on arrival —
  // a configuration error that must throw rather than spin a worker.
  auto cfg = small_config(RuntimeMode::kPartitioned);
  cfg.rtt_half = cfg.deadline_budget;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.rtt_half = cfg.deadline_budget + microseconds(1);
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.rtt_half = -1;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace rtopex::runtime
