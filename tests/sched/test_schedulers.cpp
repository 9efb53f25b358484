// Behavioural tests of the three node schedulers on the virtual-time
// simulator, including the paper's key guarantees.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "model/task_cost_model.hpp"
#include "model/timing_model.hpp"
#include "sched/global.hpp"
#include "sched/partitioned.hpp"
#include "sched/rt_opex.hpp"
#include "sim/workload.hpp"
#include "transport/transport.hpp"

namespace rtopex::sched {
namespace {

std::vector<sim::SubframeWork> make_work(std::size_t per_bs, Duration rtt_half,
                                         std::uint64_t seed = 1,
                                         int fixed_mcs = -1,
                                         double snr_db = 30.0) {
  sim::WorkloadConfig cfg;
  cfg.num_basestations = 4;
  cfg.subframes_per_bs = per_bs;
  cfg.seed = seed;
  cfg.fixed_mcs = fixed_mcs;
  cfg.snr_db = snr_db;
  const transport::FixedTransport transport(rtt_half);
  const sim::WorkloadGenerator gen(cfg, transport, model::paper_gpp_model());
  return gen.generate();
}

TEST(PartitionedTest, MappingFormulaMatchesPaper) {
  PartitionedConfig cfg;
  cfg.rtt_half = microseconds(500);
  EXPECT_EQ(cfg.cores_per_bs(), 2u);  // ceil(1.5 ms)
  PartitionedScheduler sched(4, cfg);
  EXPECT_EQ(sched.num_cores(), 8u);
  // core = bs * 2 + j mod 2 (paper §3.1.1).
  EXPECT_EQ(cfg.core_of(0, 0), 0u);
  EXPECT_EQ(cfg.core_of(0, 1), 1u);
  EXPECT_EQ(cfg.core_of(0, 2), 0u);
  EXPECT_EQ(cfg.core_of(3, 5), 7u);
}

TEST(PartitionedTest, AccountsEverySubframe) {
  const auto work = make_work(3000, microseconds(500));
  PartitionedScheduler sched(4, {microseconds(500)});
  const auto m = sched.run(work);
  EXPECT_EQ(m.total_subframes, work.size());
  EXPECT_EQ(m.deadline_misses, m.dropped + m.terminated);
  std::size_t per_bs_total = 0;
  for (const auto& bs : m.per_bs) per_bs_total += bs.subframes;
  EXPECT_EQ(per_bs_total, work.size());
  // Completed + missed == total. Raw samples are off by default; the
  // histogram carries the completed count.
  EXPECT_TRUE(m.processing_time_us.empty());
  EXPECT_EQ(static_cast<std::size_t>(m.processing_us_hist.count()) +
                m.deadline_misses,
            m.total_subframes);
}

TEST(PartitionedTest, LowLoadHasNoMisses) {
  const auto work = make_work(2000, microseconds(400), 2, /*fixed_mcs=*/4);
  PartitionedScheduler sched(4, {microseconds(400)});
  EXPECT_EQ(sched.run(work).deadline_misses, 0u);
}

TEST(PartitionedTest, HighLoadAtTightBudgetMissesEverything) {
  // Paper Fig. 17: at high fixed MCS the partitioned scheduler misses ~100%.
  // MCS 27, L >= 2 exceeds 1.3 ms; with Lm = 4 most subframes do.
  const auto work = make_work(2000, microseconds(700), 3, /*fixed_mcs=*/27,
                              /*snr_db=*/24.0);
  PartitionedScheduler sched(4, {microseconds(700)});
  const auto m = sched.run(work);
  EXPECT_GT(m.miss_rate(), 0.5);
}

TEST(PartitionedTest, GapsReflectProcessingVariation) {
  const auto work = make_work(3000, microseconds(500));
  PartitionedConfig pc;
  pc.rtt_half = microseconds(500);
  pc.record_samples = true;  // raw gaps alongside the histogram
  PartitionedScheduler sched(4, pc);
  const auto m = sched.run(work);
  // Each core sees a new subframe every 2 ms and processes for 0.5-2 ms:
  // gaps must exist and be below 2 ms.
  EXPECT_GT(m.gap_us.size(), work.size() / 2);
  for (const double g : m.gap_us) {
    EXPECT_GT(g, 0.0);
    EXPECT_LE(g, 2000.0);
  }
  // Histogram and raw-sample views of the same stream must agree.
  EXPECT_EQ(m.gap_us_hist.count(), m.gap_us.size());
  EXPECT_GT(m.gap_us_hist.min(), 0.0);
  EXPECT_LE(m.gap_us_hist.max(), 2000.0);
}

TEST(GlobalTest, FewCoresCauseQueueingMisses) {
  // Below the queueing knee (4 basestations need ~4 cores at this load),
  // misses explode; above it they flatten (paper Fig. 19's shape).
  const auto work = make_work(3000, microseconds(500), 4);
  GlobalConfig small;
  small.num_cores = 2;
  GlobalConfig big;
  big.num_cores = 8;
  GlobalScheduler sched_small(4, small);
  GlobalScheduler sched_big(4, big);
  const double small_rate = sched_small.run(work).miss_rate();
  const double big_rate = sched_big.run(work).miss_rate();
  EXPECT_GT(small_rate, 5.0 * big_rate);
}

TEST(GlobalTest, InsensitiveBeyondEightCores) {
  // Paper Fig. 15/19: doubling 8 -> 16 cores does not help.
  const auto work = make_work(5000, microseconds(500), 5);
  GlobalConfig c8, c16;
  c8.num_cores = 8;
  c16.num_cores = 16;
  const double r8 = GlobalScheduler(4, c8).run(work).miss_rate();
  const double r16 = GlobalScheduler(4, c16).run(work).miss_rate();
  EXPECT_NEAR(r16, r8, r8 * 0.5 + 1e-4);
}

TEST(GlobalTest, SwitchPenaltyHurts) {
  const auto work = make_work(4000, microseconds(600), 6);
  GlobalConfig with, without;
  with.switch_penalty = microseconds(80);
  without.switch_penalty = 0;
  const double rate_with = GlobalScheduler(4, with).run(work).miss_rate();
  const double rate_without = GlobalScheduler(4, without).run(work).miss_rate();
  EXPECT_GE(rate_with, rate_without);
}

TEST(GlobalTest, FifoAndEdfAgreeUnderUniformDelay) {
  // Paper §3.1.2: EDF == FIFO when all basestations share one delay.
  const auto work = make_work(3000, microseconds(500), 7);
  GlobalConfig edf, fifo;
  edf.order = DispatchOrder::kEdf;
  fifo.order = DispatchOrder::kFifo;
  const auto me = GlobalScheduler(4, edf).run(work);
  const auto mf = GlobalScheduler(4, fifo).run(work);
  EXPECT_EQ(me.deadline_misses, mf.deadline_misses);
}

TEST(RtOpexTest, NeverWorseThanPartitioned) {
  // The paper's key guarantee (§3.2.1 B): RT-OPEX performance is equal to
  // or strictly better than the no-migration baseline. Paired comparison
  // across seeds and budgets.
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    for (const int rtt_us : {400, 550, 700}) {
      const auto work = make_work(3000, microseconds(rtt_us), seed);
      PartitionedScheduler part(4, {microseconds(rtt_us)});
      RtOpexConfig rc;
      rc.rtt_half = microseconds(rtt_us);
      RtOpexScheduler opex(4, rc);
      const auto mp = part.run(work);
      const auto mo = opex.run(work);
      EXPECT_LE(mo.deadline_misses, mp.deadline_misses)
          << "seed=" << seed << " rtt=" << rtt_us;
    }
  }
}

TEST(RtOpexTest, OrderOfMagnitudeBetterOnPaperWorkload) {
  // Fig. 15's headline: >= 10x lower miss rate at the paper's scale.
  const auto work = make_work(30000, microseconds(500), 1);
  PartitionedScheduler part(4, {microseconds(500)});
  RtOpexConfig rc;
  rc.rtt_half = microseconds(500);
  RtOpexScheduler opex(4, rc);
  const double p = part.run(work).miss_rate();
  const double o = opex.run(work).miss_rate();
  EXPECT_GT(p, 1e-3);
  EXPECT_LT(o, p / 10.0);
}

TEST(RtOpexTest, MigratesBothStages) {
  const auto work = make_work(3000, microseconds(500), 8);
  RtOpexConfig rc;
  rc.rtt_half = microseconds(500);
  RtOpexScheduler opex(4, rc);
  const auto m = opex.run(work);
  EXPECT_GT(m.fft_subtasks_migrated, 0u);
  EXPECT_GT(m.decode_subtasks_migrated, 0u);
  EXPECT_LE(m.fft_subtasks_migrated, m.fft_subtasks_total);
  EXPECT_LE(m.decode_subtasks_migrated, m.decode_subtasks_total);
}

TEST(RtOpexTest, MigrationTogglesWork) {
  const auto work = make_work(3000, microseconds(500), 9);
  RtOpexConfig none;
  none.rtt_half = microseconds(500);
  none.migrate_fft = false;
  none.migrate_decode = false;
  RtOpexScheduler opex(4, none);
  const auto m = opex.run(work);
  EXPECT_EQ(m.fft_subtasks_migrated, 0u);
  EXPECT_EQ(m.decode_subtasks_migrated, 0u);
  // Without migration it must equal partitioned exactly.
  PartitionedScheduler part(4, {microseconds(500)});
  const auto mp = part.run(work);
  EXPECT_EQ(m.deadline_misses, mp.deadline_misses);
  EXPECT_EQ(m.dropped, mp.dropped);
}

TEST(RtOpexTest, DisablingRecoveryCausesLosses) {
  // Ablation: with stochastic transport, mispredicted windows preempt
  // migrated subtasks; without recovery those subframes are lost.
  sim::WorkloadConfig cfg;
  cfg.num_basestations = 4;
  cfg.subframes_per_bs = 10000;
  cfg.seed = 10;
  const transport::CompositeTransport transport(
      transport::FronthaulModel{}, transport::cloud_params_10gbe());
  const sim::WorkloadGenerator gen(cfg, transport, model::paper_gpp_model());
  const auto work = gen.generate();

  RtOpexConfig with, without;
  with.rtt_half = without.rtt_half = microseconds(300);
  without.enable_recovery = false;
  const auto m_with = RtOpexScheduler(4, with).run(work);
  const auto m_without = RtOpexScheduler(4, without).run(work);
  EXPECT_GT(m_with.recoveries, 0u);
  EXPECT_GE(m_without.deadline_misses, m_with.deadline_misses);
}

/// Subframe `index` of a lone basestation with the calibrated task costs at
/// `mcs` and `iterations`, arriving exactly RTT/2 = 500 us after its radio
/// time (a Fig. 11-style hand-built schedule on two cores).
sim::SubframeWork hand_built(std::uint32_t index, unsigned mcs,
                             unsigned iterations) {
  const model::TaskCostModel cost(model::paper_gpp_model(), 2, 50);
  sim::SubframeWork w;
  w.index = index;
  w.radio_time = static_cast<TimePoint>(index) * kSubframePeriod;
  w.arrival = w.radio_time + microseconds(500);
  w.deadline = w.radio_time + kEndToEndBudget;
  w.mcs = mcs;
  w.iterations = iterations;
  w.costs = cost.costs(mcs, iterations, 0);
  w.wcet = cost.costs(mcs, 4, 0);
  w.decode_optimistic = cost.costs(mcs, 1, 0).decode;
  return w;
}

TEST(RtOpexTest, WithoutRecoveryOnlyAPreemptedChunkLosesItsResults) {
  // A heavy subframe on core 0 migrates decode subtasks into core 1's idle
  // window. Without recovery the local core waits for its chunk instead of
  // recomputing it.
  const sim::SubframeWork heavy = hand_built(0, 21, 4);
  RtOpexConfig rc;
  rc.migrate_fft = false;
  rc.enable_recovery = false;
  rc.record_timeline = true;
  const Duration tp = heavy.costs.decode_subtask;
  const TimePoint par_start = heavy.arrival + heavy.costs.fft +
                              heavy.costs.demod +
                              heavy.costs.decode_serial();

  // Core 1 has no work of its own, so the chunk runs to its natural end,
  // after the local subtasks: the subframe completes at the chunk's end.
  const std::vector<sim::SubframeWork> alone = {heavy};
  const auto m = RtOpexScheduler(1, rc).run(alone);
  ASSERT_GT(m.decode_subtasks_migrated, 0u);
  const auto migrated = static_cast<Duration>(m.decode_subtasks_migrated);
  const TimePoint chunk_end = par_start + rc.migration_cost + migrated * tp;
  const TimePoint local_end =
      par_start + (heavy.costs.decode_subtasks - migrated) * tp;
  ASSERT_GT(chunk_end, local_end);  // the local core finishes first
  EXPECT_EQ(m.deadline_misses, 0u);
  EXPECT_EQ(m.recoveries, 0u);
  ASSERT_EQ(m.timeline.size(), 1u);
  EXPECT_FALSE(m.timeline[0].missed);
  EXPECT_EQ(m.timeline[0].host_core, 1);
  EXPECT_EQ(m.timeline[0].end, chunk_end);

  // Core 1's own subframe beats its budgeted RTT/2 (the planner's predicted
  // window) and arrives while the chunk runs: the preempted chunk loses
  // the decode's results, a miss that is not a termination.
  sim::SubframeWork early = hand_built(1, 10, 1);
  early.arrival = par_start + rc.migration_cost + tp / 2;
  ASSERT_GT(early.arrival, early.radio_time);
  ASSERT_LT(early.arrival, early.radio_time + rc.rtt_half);
  const std::vector<sim::SubframeWork> preempted = {heavy, early};
  const auto p = RtOpexScheduler(1, rc).run(preempted);
  EXPECT_GT(p.decode_subtasks_migrated, 0u);
  EXPECT_EQ(p.deadline_misses, 1u);
  EXPECT_EQ(p.terminated, 0u);
  EXPECT_EQ(p.dropped, 0u);
  ASSERT_EQ(p.timeline.size(), 2u);
  EXPECT_TRUE(p.timeline[0].missed);
  EXPECT_EQ(p.timeline[0].missed_stage, obs::Stage::kDecode);
  EXPECT_FALSE(p.timeline[1].missed);
}

// Metrics invariants that must hold for every scheduler on any workload:
// the counters are different views of one partition of the subframe set.
void check_metrics_invariants(sim::SchedulerMetrics m, std::size_t expected,
                              const char* who) {
  SCOPED_TRACE(who);
  EXPECT_EQ(m.total_subframes, expected);
  EXPECT_EQ(m.dropped + m.terminated, m.deadline_misses);
  EXPECT_EQ(static_cast<std::size_t>(m.processing_us_hist.count()),
            m.total_subframes - m.deadline_misses);
  std::size_t bs_subframes = 0, bs_misses = 0;
  std::uint64_t bs_hist = 0;
  for (const auto& bs : m.per_bs) {
    bs_subframes += bs.subframes;
    bs_misses += bs.misses;
    bs_hist += bs.processing_us.count();
  }
  EXPECT_EQ(bs_subframes, m.total_subframes);
  EXPECT_EQ(bs_misses, m.deadline_misses);
  // The per-basestation histograms partition the aggregate one.
  EXPECT_EQ(bs_hist, m.processing_us_hist.count());
  // Decode failures come only from subframes that finished processing.
  EXPECT_LE(m.decode_failures,
            static_cast<std::size_t>(m.processing_us_hist.count()));
  // Migration accounting never exceeds the offered subtasks.
  EXPECT_LE(m.fft_subtasks_migrated, m.fft_subtasks_total);
  EXPECT_LE(m.decode_subtasks_migrated, m.decode_subtasks_total);
  EXPECT_LE(m.recoveries,
            m.fft_subtasks_migrated + m.decode_subtasks_migrated);
  if (m.gap_us_hist.count() > 0) EXPECT_GT(m.gap_us_hist.min(), 0.0);
}

TEST(MetricsInvariantTest, HoldForAllThreeSchedulers) {
  // Mixed-load workload with real misses so the partition is non-trivial.
  for (const std::uint64_t seed : {41u, 42u}) {
    const auto work = make_work(3000, microseconds(600), seed);
    PartitionedScheduler part(4, {microseconds(600)});
    check_metrics_invariants(part.run(work), work.size(), "partitioned");

    GlobalConfig gc;
    gc.num_cores = 5;
    GlobalScheduler glob(4, gc);
    check_metrics_invariants(glob.run(work), work.size(), "global");

    RtOpexConfig rc;
    rc.rtt_half = microseconds(600);
    RtOpexScheduler opex(4, rc);
    check_metrics_invariants(opex.run(work), work.size(), "rt-opex");
  }
}

TEST(MetricsInvariantTest, HoldUnderOverloadAndUnderload) {
  // Underload: no misses; overload: mostly misses. The invariants are
  // load-independent.
  const auto light = make_work(1500, microseconds(400), 43, /*fixed_mcs=*/4);
  const auto heavy = make_work(1500, microseconds(700), 44, /*fixed_mcs=*/27,
                               /*snr_db=*/24.0);
  for (const auto* work : {&light, &heavy}) {
    PartitionedScheduler part(4, {microseconds(700)});
    check_metrics_invariants(part.run(*work), work->size(), "partitioned");
    RtOpexConfig rc;
    rc.rtt_half = microseconds(700);
    RtOpexScheduler opex(4, rc);
    check_metrics_invariants(opex.run(*work), work->size(), "rt-opex");
  }
}

TEST(SchedulerValidationTest, RejectsBadConfigs) {
  EXPECT_THROW(PartitionedScheduler(0, {microseconds(500)}),
               std::invalid_argument);
  EXPECT_THROW(PartitionedScheduler(4, {milliseconds(3)}),
               std::invalid_argument);
  GlobalConfig gc;
  gc.num_cores = 0;
  EXPECT_THROW(GlobalScheduler(4, gc), std::invalid_argument);
  RtOpexConfig rc;
  rc.rtt_half = -1;
  EXPECT_THROW(RtOpexScheduler(4, rc), std::invalid_argument);
}

TEST(SchedulerValidationTest, RtOpexRejectsRttConsumingWholeBudget) {
  // rtt_half >= the 2 ms end-to-end budget leaves zero processing cores
  // (cores_per_bs() would be 0) — must throw, not divide by zero or hang.
  RtOpexConfig rc;
  rc.rtt_half = kEndToEndBudget;
  EXPECT_THROW(RtOpexScheduler(4, rc), std::invalid_argument);
  rc.rtt_half = kEndToEndBudget + microseconds(1);
  EXPECT_THROW(RtOpexScheduler(4, rc), std::invalid_argument);
  // Just inside the budget is fine and yields at least one core.
  rc.rtt_half = kEndToEndBudget - microseconds(1);
  RtOpexScheduler sched(4, rc);
  EXPECT_GE(sched.num_cores(), 4u);
}

TEST(SchedulerValidationTest, EmptyWorkloadDegradesGracefully) {
  RtOpexConfig rc;
  rc.rtt_half = microseconds(500);
  RtOpexScheduler opex(4, rc);
  const auto m = opex.run({});
  EXPECT_EQ(m.total_subframes, 0u);
  EXPECT_EQ(m.deadline_misses, 0u);
  EXPECT_TRUE(m.processing_time_us.empty());
  EXPECT_EQ(m.processing_us_hist.count(), 0u);
  PartitionedScheduler part(4, {microseconds(500)});
  EXPECT_EQ(part.run({}).total_subframes, 0u);
  GlobalConfig gc;
  gc.num_cores = 2;
  GlobalScheduler glob(4, gc);
  EXPECT_EQ(glob.run({}).total_subframes, 0u);
}

}  // namespace
}  // namespace rtopex::sched
