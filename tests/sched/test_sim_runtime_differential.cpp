// Differential suite: the virtual-time RtOpexScheduler and the real-thread
// NodeRuntime implement the same paper mechanisms on two substrates. Their
// wall-clock numbers differ by design (DESIGN.md §2), but their *structure*
// must agree: every subframe terminates exactly once (completed, dropped or
// terminated), subtask accounting balances (migrated = hosted + recovered;
// recovered never exceeds migrated), and drops are always a subset of
// deadline misses. Matched configurations are run through both and the
// invariants checked on each side. Decode admission is compared at the
// decision level: both substrates call the same sched::admit_decode, so one
// input table must produce the same drop or degrade cap on each.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <vector>

#include "model/timing_model.hpp"
#include "phy/lte_params.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/node_runtime.hpp"
#include "sched/partitioned.hpp"
#include "sched/rt_opex.hpp"
#include "sched/serial_exec.hpp"
#include "sim/workload.hpp"
#include "support/sanitizer_pacing.hpp"
#include "transport/transport.hpp"

namespace rtopex {
namespace {

constexpr unsigned kBasestations = 2;
constexpr std::size_t kSubframesPerBs = 8;
constexpr Duration kRttHalf = microseconds(500);

std::vector<sim::SubframeWork> matched_sim_work(std::uint64_t seed,
                                                int fixed_mcs = -1,
                                                double snr_db = 30.0) {
  sim::WorkloadConfig cfg;
  cfg.num_basestations = kBasestations;
  cfg.subframes_per_bs = kSubframesPerBs;
  cfg.seed = seed;
  cfg.fixed_mcs = fixed_mcs;
  cfg.snr_db = snr_db;
  const transport::FixedTransport transport(kRttHalf);
  const sim::WorkloadGenerator gen(cfg, transport, model::paper_gpp_model());
  return gen.generate();
}

runtime::RuntimeConfig matched_runtime_config() {
  runtime::RuntimeConfig cfg;
  cfg.mode = runtime::RuntimeMode::kRtOpex;
  cfg.num_basestations = kBasestations;
  cfg.cores_per_bs = 2;
  cfg.subframes_per_bs = kSubframesPerBs;
  cfg.rtt_half = kRttHalf;
  // Real-time pacing scaled so a loaded CI host (or a sanitizer build)
  // keeps up; the structural invariants are pacing-independent.
  cfg.subframe_period = milliseconds(60);
  cfg.deadline_budget = milliseconds(120);
  cfg.mcs_cycle = {27, 16};
  cfg.phy.num_antennas = 2;
  cfg.phy.bandwidth = phy::Bandwidth::kMHz5;
  cfg.enforce_deadlines = false;
  cfg.seed = 21;
  return cfg;
}

struct Structural {
  std::size_t total = 0;
  std::size_t completed = 0;
  std::size_t dropped = 0;
  std::size_t misses = 0;
  std::size_t migrated = 0;
  std::size_t recovered = 0;
};

/// Checks the simulator's metrics invariants and reduces them to the shared
/// structural summary.
Structural check_sim_side(const sim::SchedulerMetrics& m,
                          std::size_t expected_total) {
  EXPECT_EQ(m.total_subframes, expected_total);
  // Exactly-once termination: completed + dropped + terminated == total.
  EXPECT_EQ(m.deadline_misses, m.dropped + m.terminated);
  EXPECT_EQ(static_cast<std::size_t>(m.processing_us_hist.count()),
            m.total_subframes - m.deadline_misses);
  std::size_t per_bs_subframes = 0, per_bs_misses = 0;
  for (const auto& bs : m.per_bs) {
    per_bs_subframes += bs.subframes;
    per_bs_misses += bs.misses;
  }
  EXPECT_EQ(per_bs_subframes, m.total_subframes);
  EXPECT_EQ(per_bs_misses, m.deadline_misses);
  // Subtask conservation.
  EXPECT_LE(m.fft_subtasks_migrated, m.fft_subtasks_total);
  EXPECT_LE(m.decode_subtasks_migrated, m.decode_subtasks_total);
  EXPECT_LE(m.recoveries,
            m.fft_subtasks_migrated + m.decode_subtasks_migrated);
  return {m.total_subframes, m.total_subframes - m.deadline_misses,
          m.dropped, m.deadline_misses,
          m.fft_subtasks_migrated + m.decode_subtasks_migrated, m.recoveries};
}

/// Checks the runtime report's invariants and reduces them likewise.
Structural check_runtime_side(const runtime::RuntimeReport& report,
                              std::size_t expected_total) {
  EXPECT_EQ(report.records.size(), expected_total);
  std::set<std::pair<unsigned, std::uint32_t>> seen;
  Structural s;
  s.total = report.records.size();
  for (const auto& r : report.records) {
    EXPECT_TRUE(seen.insert({r.bs, r.index}).second)
        << "subframe terminated twice: bs=" << r.bs << " idx=" << r.index;
    if (r.dropped) {
      // A dropped subframe was never decoded and always counts as a miss.
      EXPECT_TRUE(r.deadline_missed);
      EXPECT_FALSE(r.crc_ok);
      ++s.dropped;
    } else {
      ++s.completed;
    }
    if (r.deadline_missed) ++s.misses;
    EXPECT_LE(r.timing.recovered,
              r.timing.fft_migrated + r.timing.decode_migrated);
    s.migrated += r.timing.fft_migrated + r.timing.decode_migrated;
    s.recovered += r.timing.recovered;
  }
  EXPECT_EQ(s.completed + s.dropped, s.total);
  EXPECT_EQ(report.migrations, s.migrated);
  EXPECT_EQ(report.recoveries, s.recovered);
  EXPECT_EQ(report.dropped, s.dropped);
  EXPECT_EQ(report.deadline_misses, s.misses);
  return s;
}

void check_agreement(const Structural& sim_s, const Structural& rt_s) {
  // Shared structural laws, independent of substrate (the per-side checks
  // already verified that terminal dispositions partition the total):
  for (const Structural* s : {&sim_s, &rt_s}) {
    EXPECT_LE(s->dropped, s->misses);       // drops are a subset of misses
    EXPECT_LE(s->recovered, s->migrated);   // recovery never invents work
    EXPECT_LE(s->completed, s->total);
  }
  EXPECT_EQ(sim_s.total, rt_s.total);       // matched workloads, same size
}

TEST(SimRuntimeDifferentialTest, SimSideInvariantsHold) {
  const auto work = matched_sim_work(17);
  sched::RtOpexConfig rc;
  rc.rtt_half = kRttHalf;
  sched::RtOpexScheduler sched(kBasestations, rc);
  check_sim_side(sched.run(work), work.size());
}

TEST(SimRuntimeDifferentialTest, RuntimeSideInvariantsHold) {
  // Force migration through the planner hook so the subtask-conservation
  // branch is exercised even on a single-core CI host.
  runtime::fault::Hooks hooks;
  hooks.plan_window = [](unsigned, unsigned, Duration& window) {
    window = milliseconds(1000);
  };
  runtime::fault::ScopedInjection inject(std::move(hooks));

  const auto cfg = matched_runtime_config();
  runtime::NodeRuntime rt(cfg);
  const auto s = check_runtime_side(
      rt.run(), static_cast<std::size_t>(kBasestations) * kSubframesPerBs);
  EXPECT_GT(s.migrated, 0u);
}

TEST(SimRuntimeDifferentialTest, StructuresAgreeOnMatchedConfig) {
  const auto work = matched_sim_work(23);
  sched::RtOpexConfig rc;
  rc.rtt_half = kRttHalf;
  sched::RtOpexScheduler sched(kBasestations, rc);
  const Structural sim_s = check_sim_side(sched.run(work), work.size());

  runtime::fault::Hooks hooks;
  hooks.plan_window = [](unsigned, unsigned, Duration& window) {
    window = milliseconds(1000);
  };
  runtime::fault::ScopedInjection inject(std::move(hooks));
  const auto cfg = matched_runtime_config();
  runtime::NodeRuntime rt(cfg);
  const Structural rt_s = check_runtime_side(
      rt.run(), static_cast<std::size_t>(kBasestations) * kSubframesPerBs);

  check_agreement(sim_s, rt_s);
}

TEST(SimRuntimeDifferentialTest, StructuresAgreeUnderOverload) {
  // Overloaded on both substrates: high MCS at a tight budget makes the
  // slack check drop subframes. The termination and subset laws must hold
  // on both sides even when most subframes miss.
  const auto work = matched_sim_work(29, /*fixed_mcs=*/27, /*snr_db=*/24.0);
  sched::RtOpexConfig rc;
  rc.rtt_half = microseconds(700);
  sched::RtOpexScheduler sched(kBasestations, rc);
  const Structural sim_s = check_sim_side(sched.run(work), work.size());

  auto cfg = matched_runtime_config();
  cfg.enforce_deadlines = true;
  cfg.deadline_budget = milliseconds(1);  // impossible on any host
  cfg.rtt_half = microseconds(500);
  runtime::NodeRuntime rt(cfg);
  const Structural rt_s = check_runtime_side(
      rt.run(), static_cast<std::size_t>(kBasestations) * kSubframesPerBs);
  EXPECT_EQ(rt_s.dropped, rt_s.total);  // nothing fits a 1 ms budget here

  check_agreement(sim_s, rt_s);
}

// Faulty differential: fronthaul loss plus one stalled core on both
// substrates. The classification laws must agree — lost subframes are never
// deadline misses, every miss is dropped/terminated/late — and each side
// still terminates every offered subframe exactly once.
TEST(SimRuntimeDifferentialTest, StructuresAgreeUnderFaults) {
  constexpr double kLossProb = 0.25;

  sim::WorkloadConfig wc;
  wc.num_basestations = kBasestations;
  wc.subframes_per_bs = 64;  // enough to straddle the failure instant
  wc.seed = 37;
  wc.fronthaul_faults.loss_prob = kLossProb;
  const transport::FixedTransport transport(kRttHalf);
  const sim::WorkloadGenerator gen(wc, transport, model::paper_gpp_model());
  const auto work = gen.generate();

  sched::RtOpexConfig rc;
  rc.rtt_half = kRttHalf;
  rc.core_failures.push_back({0, milliseconds(32)});  // stall core 0 mid-run
  sched::RtOpexScheduler sched(kBasestations, rc);
  const auto m = sched.run(work);
  EXPECT_EQ(m.total_subframes, work.size());
  EXPECT_GT(m.resilience.lost_subframes, 0u);
  EXPECT_EQ(m.resilience.failovers, 1u);
  EXPECT_GE(m.resilience.repartitions, 1u);
  EXPECT_EQ(m.deadline_misses,
            m.dropped + m.terminated + m.resilience.late_arrivals);
  EXPECT_EQ(static_cast<std::size_t>(m.processing_us_hist.count()),
            m.total_subframes - m.deadline_misses -
                m.resilience.lost_subframes);

  // Runtime twin: same loss probability plus worker 0 killed mid-run and
  // recovered by the watchdog. The fault RNG streams differ across
  // substrates, so the counts are compared structurally, not numerically.
  auto cfg = matched_runtime_config();
  cfg.subframes_per_bs = 16;
  cfg.resilience.fronthaul_faults.loss_prob = kLossProb;
  cfg.resilience.enable_watchdog = true;
  cfg.resilience.watchdog_timeout = cfg.subframe_period;
  auto armed = std::make_shared<std::atomic<bool>>(false);
  runtime::fault::Hooks hooks;
  hooks.transport_jitter = [armed](unsigned, std::uint32_t index) {
    if (index >= 8) armed->store(true, std::memory_order_release);
    return Duration{0};
  };
  hooks.kill_worker = [armed](std::size_t worker) {
    return worker == 0 && armed->load(std::memory_order_acquire);
  };
  runtime::fault::ScopedInjection inject(std::move(hooks));
  runtime::NodeRuntime rt(cfg);
  const auto report = rt.run();

  const std::size_t offered =
      static_cast<std::size_t>(kBasestations) * cfg.subframes_per_bs;
  EXPECT_EQ(report.records.size(), offered);
  std::set<std::pair<unsigned, std::uint32_t>> seen;
  std::size_t processed = 0, rt_lost = 0, rt_late = 0, rt_dropped = 0;
  for (const auto& r : report.records) {
    EXPECT_TRUE(seen.insert({r.bs, r.index}).second);
    if (r.lost) {
      ++rt_lost;
      EXPECT_FALSE(r.deadline_missed);  // loss is not a miss, as in the sim
    } else if (r.late_arrival) {
      ++rt_late;
      EXPECT_TRUE(r.deadline_missed);
    } else if (r.dropped) {
      ++rt_dropped;
    } else {
      ++processed;
    }
  }
  EXPECT_EQ(processed + rt_dropped + rt_late + rt_lost, offered);
  EXPECT_EQ(report.resilience.lost_subframes, rt_lost);
  EXPECT_GT(rt_lost, 0u);
  EXPECT_EQ(report.resilience.failovers, 1u);
  EXPECT_EQ(report.crc_failures, 0u);
}

// ---- RT-OPEX without migration is the partitioned scheduler -------------

/// Expects every SchedulerMetrics field of `a` and `b` to match, timeline
/// and raw samples included, apart from the FFT and decode subtask totals,
/// which only RT-OPEX counts.
void expect_same_outputs(const sim::SchedulerMetrics& a,
                         const sim::SchedulerMetrics& b) {
  EXPECT_EQ(a.total_subframes, b.total_subframes);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.decode_failures, b.decode_failures);
  ASSERT_EQ(a.per_bs.size(), b.per_bs.size());
  for (std::size_t i = 0; i < a.per_bs.size(); ++i) {
    EXPECT_EQ(a.per_bs[i].subframes, b.per_bs[i].subframes) << "bs " << i;
    EXPECT_EQ(a.per_bs[i].misses, b.per_bs[i].misses) << "bs " << i;
    EXPECT_TRUE(a.per_bs[i].processing_us == b.per_bs[i].processing_us)
        << "bs " << i;
  }
  const ResilienceMetrics& ra = a.resilience;
  const ResilienceMetrics& rb = b.resilience;
  EXPECT_EQ(ra.failovers, rb.failovers);
  EXPECT_EQ(ra.repartitions, rb.repartitions);
  EXPECT_EQ(ra.requeued_jobs, rb.requeued_jobs);
  EXPECT_EQ(ra.lost_subframes, rb.lost_subframes);
  EXPECT_EQ(ra.late_arrivals, rb.late_arrivals);
  EXPECT_EQ(ra.degraded, rb.degraded);
  EXPECT_EQ(ra.degraded_decode_failures, rb.degraded_decode_failures);
  EXPECT_EQ(ra.flag_timeouts, rb.flag_timeouts);
  EXPECT_EQ(ra.degrade_histogram, rb.degrade_histogram);
  EXPECT_TRUE(a.processing_us_hist == b.processing_us_hist);
  EXPECT_TRUE(a.gap_us_hist == b.gap_us_hist);
  for (std::size_t s = 0; s < obs::kNumStages; ++s)
    EXPECT_TRUE(a.stage_us_hist[s] == b.stage_us_hist[s]) << "stage " << s;
  EXPECT_EQ(a.gap_us, b.gap_us);
  EXPECT_EQ(a.processing_time_us, b.processing_time_us);
  EXPECT_EQ(a.decode_est_samples, b.decode_est_samples);
  EXPECT_EQ(a.decode_est_used_abs_err_us, b.decode_est_used_abs_err_us);
  EXPECT_EQ(a.decode_est_static_abs_err_us, b.decode_est_static_abs_err_us);
  EXPECT_EQ(a.fft_subtasks_migrated, b.fft_subtasks_migrated);
  EXPECT_EQ(a.decode_subtasks_migrated, b.decode_subtasks_migrated);
  EXPECT_EQ(a.recoveries, b.recoveries);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    const auto& x = a.timeline[i];
    const auto& y = b.timeline[i];
    ASSERT_TRUE(x.bs == y.bs && x.index == y.index && x.core == y.core &&
                x.start == y.start && x.end == y.end &&
                x.missed == y.missed && x.missed_stage == y.missed_stage &&
                x.host_core == y.host_core)
        << "timeline entry " << i;
  }
}

// The simulator's RT-OPEX must degrade to the partitioned baseline when
// migration is disabled — the differential anchor for the migration
// machinery itself (any divergence here is a planner bug, not a timing
// artifact). Both run the same partition config over the same workload
// and must produce the same outputs and the same trace, event for event,
// under every static configuration the partition supports.
TEST(SimRuntimeDifferentialTest, NoMigrationDegradesToPartitioned) {
  struct Case {
    const char* name;
    bool stochastic = false;
    double loss_prob = 0.0;
    double late_prob = 0.0;
    bool degrade = false;
    std::vector<sched::CoreFailure> failures{};
    std::vector<unsigned> unprovisioned{};
    sched::AdmissionPolicy admission = sched::AdmissionPolicy::kWcet;
  };
  const std::vector<Case> cases = {
      {.name = "fixed transport"},
      {.name = "stochastic transport", .stochastic = true},
      {.name = "fronthaul loss and late delivery", .stochastic = true,
       .loss_prob = 0.02, .late_prob = 0.05},
      {.name = "degradation", .degrade = true},
      {.name = "core failure", .failures = {{3, milliseconds(400)}}},
      {.name = "unprovisioned cores", .unprovisioned = {6, 7}},
      {.name = "optimistic admission",
       .admission = sched::AdmissionPolicy::kOptimistic},
  };
  constexpr unsigned kBs = 4;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    sim::WorkloadConfig wc;
    wc.num_basestations = kBs;
    wc.subframes_per_bs = 1500;
    wc.seed = 31;
    wc.mean_load_override = 0.9;
    wc.fronthaul_faults.loss_prob = c.loss_prob;
    wc.fronthaul_faults.late_prob = c.late_prob;
    const transport::FixedTransport fixed(kRttHalf);
    const transport::CompositeTransport jittery(
        transport::FronthaulModel{}, transport::cloud_params_10gbe());
    const transport::TransportModel& tm =
        c.stochastic ? static_cast<const transport::TransportModel&>(jittery)
                     : fixed;
    const auto work =
        sim::WorkloadGenerator(wc, tm, model::paper_gpp_model()).generate();

    sched::RtOpexConfig rc;
    rc.rtt_half = kRttHalf;
    rc.admission = c.admission;
    rc.degrade = {c.degrade, 1};
    rc.core_failures = c.failures;
    rc.unprovisioned_cores = c.unprovisioned;
    rc.record_timeline = true;
    rc.record_samples = true;
    rc.migrate_fft = false;
    rc.migrate_decode = false;
    obs::Tracer opex_trace(kBs * 2, 1 << 12, 1 << 22);
    obs::Tracer part_trace(kBs * 2, 1 << 12, 1 << 22);
    rc.tracer = &opex_trace;
    const auto mo = sched::RtOpexScheduler(kBs, rc).run(work);
    sched::PartitionedConfig pc = rc;  // the partition alone
    pc.tracer = &part_trace;
    const auto mp = sched::PartitionedScheduler(kBs, pc).run(work);

    expect_same_outputs(mo, mp);
    // The case exercises misses or degraded decodes.
    EXPECT_GT(mo.deadline_misses + mo.resilience.degraded, 0u);
    EXPECT_EQ(mp.fft_subtasks_total, 0u);
    EXPECT_EQ(mp.decode_subtasks_total, 0u);
    const obs::TraceStore so = opex_trace.take();
    const obs::TraceStore sp = part_trace.take();
    EXPECT_EQ(so.total_drops(), 0u);
    EXPECT_EQ(sp.total_drops(), 0u);
    ASSERT_EQ(so.events.size(), sp.events.size());
    EXPECT_TRUE(so.events == sp.events);
  }
}

// ---- Decision-level admission differential ------------------------------

/// One shared admission input: the budget left when the decode would start,
/// the full-quality decode estimate, Lm, the degradation knobs, and the cap
/// both substrates must pick (0 drop, Lm full quality).
struct AdmissionRow {
  Duration remaining;
  Duration full_estimate;
  unsigned lm;
  sched::DegradeConfig degrade;
  unsigned expected_cap;
};

/// The decode decision a traced run made: 0 on a kDrop, the kDegrade cap,
/// or Lm when the subframe was admitted at full quality.
unsigned traced_decision(const obs::TraceStore& store, unsigned lm) {
  for (const auto& e : store.events) {
    if (e.kind == obs::EventKind::kDrop) return 0;
    if (e.kind == obs::EventKind::kDegrade) return static_cast<unsigned>(e.a);
  }
  return lm;
}

TEST(SimRuntimeDifferentialTest, AdmissionDecisionsAgreeOnSharedTable) {
  // The runtime checks at clock.now() >= arrival, so its remaining budget is
  // the row's minus the worker's wake latency — tens of ms on a loaded host.
  // The sim twin therefore starts at the instant the runtime's worker did,
  // and every row sits 45 ms (scaled under sanitizers) above the threshold
  // it must clear, with thresholds 50 ms apart, so the expected caps hold
  // as well.
  constexpr int kScale = test::pacing_scale();
  const auto ms = [](Duration v) { return milliseconds(v) * kScale; };
  constexpr unsigned kAntennas = 1;
  const Duration fft_subtask = microseconds(100) * kScale;
  const Duration demod = microseconds(600) * kScale;
  const Duration rtt_half = ms(4);
  const std::size_t fft_n =
      static_cast<std::size_t>(kAntennas) * phy::kSymbolsPerSubframe;
  // Lm = 4 over a 200 ms full estimate costs cap c at 50c ms; Lm = 8 over
  // 400 ms likewise.
  const sched::DegradeConfig on{true, 1};
  const std::vector<AdmissionRow> rows = {
      {ms(245), ms(200), 4, on, 4},          // full quality fits
      {ms(195), ms(200), 4, on, 3},          // cap Lm-1
      {ms(145), ms(200), 4, on, 2},
      {ms(95), ms(200), 4, on, 1},           // cap at the floor
      {ms(45), ms(200), 4, on, 0},           // even the floor misses: drop
      {ms(145), ms(200), 4, {true, 3}, 0},   // raised floor: drop
      {ms(195), ms(200), 4, {false, 1}, 0},  // degradation off: drop
      {ms(295), ms(400), 8, on, 5},
  };

  for (const AdmissionRow& row : rows) {
    SCOPED_TRACE(testing::Message() << "remaining " << to_us(row.remaining)
                                    << " us, Lm " << row.lm);
    runtime::RuntimeConfig cfg;
    cfg.mode = runtime::RuntimeMode::kPartitioned;
    cfg.num_basestations = 1;
    cfg.cores_per_bs = 1;
    cfg.subframes_per_bs = 1;
    cfg.subframe_period = ms(5);
    cfg.rtt_half = rtt_half;
    cfg.deadline_budget = rtt_half +
                          fft_subtask * static_cast<Duration>(fft_n) + demod +
                          row.remaining;
    cfg.mcs_cycle = {27};
    cfg.phy.bandwidth = phy::Bandwidth::kMHz5;
    cfg.phy.num_antennas = kAntennas;
    cfg.phy.max_iterations = row.lm;
    // Seeded estimates: the first subframe is admitted on exactly these.
    const unsigned blocks = phy::num_code_blocks(27, cfg.phy.num_prb());
    cfg.initial_decode_subtask_est =
        row.full_estimate / static_cast<Duration>(blocks);
    cfg.initial_fft_subtask_est = fft_subtask;
    cfg.initial_demod_est = demod;
    cfg.resilience.degrade = row.degrade;
    cfg.trace.enabled = true;
    cfg.seed = 5;
    runtime::NodeRuntime rt(cfg);
    const auto report = rt.run();
    ASSERT_EQ(report.records.size(), 1u);
    const unsigned rt_cap = traced_decision(report.trace, row.lm);

    // Sim twin: the same stage estimates, deadline and decode line through
    // the partitioned scheduler's executor, started when the worker did.
    const Duration full =
        cfg.initial_decode_subtask_est * static_cast<Duration>(blocks);
    sim::SubframeWork w;
    w.mcs = 27;
    w.lm = row.lm;
    w.iterations = row.lm;
    w.arrival = rtt_half;
    w.deadline = cfg.deadline_budget;
    w.costs.fft = fft_subtask * static_cast<Duration>(fft_n);
    w.costs.demod = demod;
    w.costs.decode = milliseconds(1);
    w.wcet.decode = full;
    w.decode_optimistic = full / static_cast<Duration>(row.lm);
    obs::Tracer sim_tracer(1);
    sched::execute_serial(w, report.records[0].start, 0,
                          sched::AdmissionPolicy::kWcet, row.degrade,
                          &sim_tracer);
    const unsigned sim_cap = traced_decision(sim_tracer.take(), row.lm);

    EXPECT_EQ(rt_cap, sim_cap);
    EXPECT_EQ(rt_cap, row.expected_cap)
        << "runtime started " << to_us(report.records[0].start - w.arrival)
        << " us after arrival";
    EXPECT_EQ(report.records[0].dropped, rt_cap == 0);
  }
}

}  // namespace
}  // namespace rtopex
