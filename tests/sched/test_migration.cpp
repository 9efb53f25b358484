// Unit and property tests of Algorithm 1 (the migration planner).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "sched/migration.hpp"

namespace rtopex::sched {
namespace {

TEST(MigrationPlanTest, NoCandidatesKeepsEverythingLocal) {
  MigrationPlan plan;
  plan_migration(6, microseconds(100), microseconds(20), {}, plan);
  EXPECT_TRUE(plan.chunks.empty());
  EXPECT_EQ(plan.local_subtasks, 6u);
}

TEST(MigrationPlanTest, SingleSubtaskNeverMigrates) {
  const std::vector<MigrationCandidate> cands = {{1, milliseconds(10)}};
  MigrationPlan plan;
  plan_migration(1, microseconds(100), microseconds(20), cands, plan);
  EXPECT_TRUE(plan.chunks.empty());
  EXPECT_EQ(plan.local_subtasks, 1u);
}

TEST(MigrationPlanTest, LargeWindowTakesHalf) {
  // R3: at most floor(S/2) to one core.
  const std::vector<MigrationCandidate> cands = {{1, milliseconds(100)}};
  MigrationPlan plan;
  plan_migration(6, microseconds(100), microseconds(20), cands, plan);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].count, 3u);
  EXPECT_EQ(plan.local_subtasks, 3u);
}

TEST(MigrationPlanTest, WindowLimitsChunkSize) {
  // R1: lim_off = floor(f_ck / (t_p + delta)).
  const std::vector<MigrationCandidate> cands = {{1, microseconds(250)}};
  MigrationPlan plan;
  plan_migration(8, microseconds(100), microseconds(20), cands, plan);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].count, 2u);  // 250 / 120 = 2
  EXPECT_EQ(plan.local_subtasks, 6u);
}

TEST(MigrationPlanTest, SecondCoreRespectsR2) {
  // After a chunk of 3, S = 3 and max_off = 3, so R2 blocks further
  // migration (S - max_off = 0).
  const std::vector<MigrationCandidate> cands = {{1, milliseconds(100)},
                                                 {2, milliseconds(100)}};
  MigrationPlan plan;
  plan_migration(6, microseconds(100), microseconds(20), cands, plan);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.local_subtasks, 3u);
}

TEST(MigrationPlanTest, NarrowWindowsSpreadAcrossCores) {
  // Windows of 1 subtask each: 2 cores get one each before R2/R3 bind.
  const std::vector<MigrationCandidate> cands = {
      {1, microseconds(130)}, {2, microseconds(130)}, {3, microseconds(130)}};
  MigrationPlan plan;
  plan_migration(6, microseconds(100), microseconds(20), cands, plan);
  EXPECT_EQ(plan.migrated_total() + plan.local_subtasks, 6u);
  for (const auto& c : plan.chunks) EXPECT_EQ(c.count, 1u);
  EXPECT_GE(plan.chunks.size(), 2u);
}

TEST(MigrationPlanTest, ZeroWindowCoresSkipped) {
  const std::vector<MigrationCandidate> cands = {{1, 0}, {2, microseconds(10)}};
  MigrationPlan plan;
  plan_migration(4, microseconds(100), microseconds(20), cands, plan);
  EXPECT_TRUE(plan.chunks.empty());
  EXPECT_EQ(plan.local_subtasks, 4u);
}

TEST(MigrationPlanTest, ReusedPlanIsRefilledFromScratch) {
  // The caller owns the plan: a second call replaces the first plan's
  // chunks and local count instead of appending to them.
  const std::vector<MigrationCandidate> cands = {{1, microseconds(250)},
                                                 {2, microseconds(130)}};
  MigrationPlan plan;
  plan_migration(8, microseconds(100), microseconds(20), cands, plan);
  ASSERT_EQ(plan.chunks.size(), 2u);
  plan_migration(6, microseconds(100), microseconds(20), {}, plan);
  EXPECT_TRUE(plan.chunks.empty());
  EXPECT_EQ(plan.local_subtasks, 6u);
  MigrationPlan fresh;
  plan_migration(8, microseconds(100), microseconds(20), cands, fresh);
  plan_migration(8, microseconds(100), microseconds(20), cands, plan);
  ASSERT_EQ(plan.chunks.size(), fresh.chunks.size());
  for (std::size_t i = 0; i < plan.chunks.size(); ++i) {
    EXPECT_EQ(plan.chunks[i].core, fresh.chunks[i].core);
    EXPECT_EQ(plan.chunks[i].count, fresh.chunks[i].count);
  }
  EXPECT_EQ(plan.local_subtasks, fresh.local_subtasks);
}

TEST(MigrationPlanTest, CandidateOrderIsWindowThenCoreId) {
  // Algorithm 1's one candidate order: descending window, equal windows by
  // ascending core id, whatever order the caller gathered them in.
  std::vector<MigrationCandidate> cands = {{3, microseconds(200)},
                                           {5, microseconds(900)},
                                           {1, microseconds(200)},
                                           {4, microseconds(900)},
                                           {2, microseconds(50)}};
  sort_candidates(cands);
  const std::vector<unsigned> cores = {4, 5, 1, 3, 2};
  ASSERT_EQ(cands.size(), cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i)
    EXPECT_EQ(cands[i].core, cores[i]) << "position " << i;
  // The planner takes them in that order: the tie at 900 us goes to core 4.
  MigrationPlan plan;
  plan_migration(8, microseconds(100), microseconds(20), cands, plan);
  ASSERT_FALSE(plan.chunks.empty());
  EXPECT_EQ(plan.chunks.front().core, 4u);
}

TEST(MigrationPlanTest, RejectsNonPositiveSubtaskTime) {
  MigrationPlan plan;
  EXPECT_THROW(plan_migration(4, 0, microseconds(20), {}, plan),
               std::invalid_argument);
}

// Property sweep: R1-R3 must hold for arbitrary candidate sets.
class MigrationPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigrationPropertyTest, InvariantsHoldForRandomInputs) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const unsigned subtasks = 1 + static_cast<unsigned>(rng.uniform_int(30));
    const Duration tp = microseconds(1 + rng.uniform_int(300));
    const Duration delta = microseconds(rng.uniform_int(50));
    std::vector<MigrationCandidate> cands;
    const unsigned n_cands = static_cast<unsigned>(rng.uniform_int(8));
    for (unsigned c = 0; c < n_cands; ++c)
      cands.push_back(
          {c, microseconds(static_cast<std::int64_t>(rng.uniform_int(3000)))});

    MigrationPlan plan;

    plan_migration(subtasks, tp, delta, cands, plan);

    // Conservation: every subtask is either local or migrated exactly once.
    EXPECT_EQ(plan.local_subtasks + plan.migrated_total(), subtasks);
    unsigned max_off = 0;
    for (const auto& chunk : plan.chunks) {
      EXPECT_GT(chunk.count, 0u);
      // R1: the chunk fits in the candidate's window.
      const auto cand =
          std::find_if(cands.begin(), cands.end(),
                       [&](const auto& c) { return c.core == chunk.core; });
      ASSERT_NE(cand, cands.end());
      EXPECT_LE(static_cast<Duration>(chunk.count) * (tp + delta),
                cand->free_window);
      max_off = std::max(max_off, chunk.count);
    }
    // R2/R3 aggregate consequence: local keeps at least the largest chunk,
    // and at least half... of what remained at each step; globally local
    // never holds fewer subtasks than the largest migrated chunk.
    EXPECT_GE(plan.local_subtasks, max_off);
    if (subtasks >= 1) EXPECT_GE(plan.local_subtasks, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// Replay-based property tests: re-run Algorithm 1's greedy loop step by
// step over the planner's own chunk sequence and check the paper's exact
// per-step formula  n_off = min(S - max_off, lim_off, floor(S / 2)).
class MigrationReplayTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigrationReplayTest, ChunksMatchAlgorithmOneStepByStep) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    const unsigned subtasks = 1 + static_cast<unsigned>(rng.uniform_int(40));
    const Duration tp = microseconds(1 + rng.uniform_int(400));
    const Duration delta = microseconds(rng.uniform_int(60));
    std::vector<MigrationCandidate> cands;
    const unsigned n_cands = static_cast<unsigned>(rng.uniform_int(10));
    for (unsigned c = 0; c < n_cands; ++c)
      cands.push_back(
          {c, microseconds(static_cast<std::int64_t>(rng.uniform_int(5000)))});

    MigrationPlan plan;

    plan_migration(subtasks, tp, delta, cands, plan);

    // Replay: walk the candidate list with the paper's formula and demand
    // the planner produced exactly the same chunk at every step.
    unsigned s = subtasks;
    unsigned max_off = 0;
    std::size_t chunk_idx = 0;
    for (const auto& cand : cands) {
      if (s <= 1) break;
      const auto lim_off = static_cast<unsigned>(
          std::max<Duration>(0, cand.free_window / (tp + delta)));
      const unsigned n_off =
          std::min({lim_off, s - max_off, s / 2});
      if (n_off == 0) continue;
      ASSERT_LT(chunk_idx, plan.chunks.size());
      EXPECT_EQ(plan.chunks[chunk_idx].core, cand.core);
      EXPECT_EQ(plan.chunks[chunk_idx].count, n_off);
      // Per-step bounds, spelled out: never more than half of what
      // remains, never more than the window fits, never exposing the
      // local side to a straggler larger than what it keeps.
      EXPECT_LE(n_off, s / 2);
      EXPECT_LE(n_off, lim_off);
      EXPECT_LE(n_off, s - max_off);
      max_off = std::max(max_off, n_off);
      s -= n_off;
      ++chunk_idx;
    }
    EXPECT_EQ(chunk_idx, plan.chunks.size());
    // Conservation: chunk counts sum to S - local_subtasks.
    EXPECT_EQ(plan.migrated_total(), subtasks - plan.local_subtasks);
    EXPECT_EQ(plan.local_subtasks, s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationReplayTest,
                         ::testing::Values(11u, 12u, 13u));

TEST(MigrationPlanTest, EmptyCandidatesAlwaysAllLocal) {
  // The empty-candidate input must yield an all-local plan for any S,
  // including with the ablation constraints disabled.
  for (unsigned s : {0u, 1u, 2u, 7u, 64u}) {
    MigrationPlan plan;
    plan_migration(s, microseconds(100), microseconds(20), {}, plan);
    EXPECT_TRUE(plan.chunks.empty());
    EXPECT_EQ(plan.local_subtasks, s);
    MigrationConstraints loose;
    loose.local_covers_largest_chunk = false;
    loose.local_keeps_majority = false;
    MigrationPlan plan2;
    plan_migration(s, microseconds(100), microseconds(20), {}, plan2, loose);
    EXPECT_TRUE(plan2.chunks.empty());
    EXPECT_EQ(plan2.local_subtasks, s);
  }
}

TEST(MigrationPlanTest, LimOffIsExactlyFloorWindowOverPerSubtaskCost) {
  // lim_off = floor(f_ck / (t_p + delta)): probe the boundary on both
  // sides of a multiple of the per-subtask cost.
  const Duration tp = microseconds(100);
  const Duration delta = microseconds(25);
  for (unsigned k : {1u, 2u, 3u}) {
    const Duration per = tp + delta;
    // Window one ns short of k subtasks -> k - 1 fit.
    const std::vector<MigrationCandidate> below = {
        {1, static_cast<Duration>(k) * per - 1}};
    MigrationPlan plan_below;
    plan_migration(100, tp, delta, below, plan_below);
    ASSERT_LE(plan_below.chunks.size(), 1u);
    const unsigned got_below =
        plan_below.chunks.empty() ? 0 : plan_below.chunks[0].count;
    EXPECT_EQ(got_below, k - 1);
    // Window of exactly k subtasks -> k fit.
    const std::vector<MigrationCandidate> at = {
        {1, static_cast<Duration>(k) * per}};
    MigrationPlan plan_at;
    plan_migration(100, tp, delta, at, plan_at);
    ASSERT_EQ(plan_at.chunks.size(), 1u);
    EXPECT_EQ(plan_at.chunks[0].count, k);
  }
}

TEST(MigrationPlanTest, NeverMigratesMoreThanHalfPerStep) {
  // One enormous window: R3 alone must cap the chunk at floor(S/2).
  for (unsigned s = 2; s <= 33; ++s) {
    const std::vector<MigrationCandidate> cands = {{1, milliseconds(10'000)}};
    MigrationPlan plan;
    plan_migration(s, microseconds(50), microseconds(10), cands, plan);
    ASSERT_EQ(plan.chunks.size(), 1u);
    EXPECT_EQ(plan.chunks[0].count, s / 2);
    EXPECT_EQ(plan.local_subtasks, s - s / 2);
  }
}

}  // namespace
}  // namespace rtopex::sched
