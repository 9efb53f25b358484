// Concurrency stress suite for the real-thread runtime's synchronization
// primitives and for the full NodeRuntime under injected faults. These
// tests hammer the lock-free pieces from many threads with randomized
// schedules and assert the two invariants the migration design promises:
//   * no subtask is ever executed twice (per-index claim counter), and
//   * no subtask is ever lost (result flags + local recovery).
// Run them under -DRTOPEX_SANITIZE=thread to turn every memory-ordering
// mistake into a hard failure (see EXPERIMENTS.md "Sanitizer & stress runs").
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "runtime/cpu_state_table.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/node_runtime.hpp"

namespace rtopex::runtime {
namespace {

/// Cheap thread-safe pseudo-random decision source for fault hooks: mixes a
/// shared counter so concurrent callers draw distinct values without locks.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// ---------------------------------------------------------------------------
// Claim counter: the no-double-execution core of the migration design.
// ---------------------------------------------------------------------------

TEST(ClaimCounterStress, EveryIndexExecutedExactlyOnce) {
  constexpr std::size_t kIndices = 20'000;
  constexpr unsigned kThreads = 8;
  std::vector<std::atomic<int>> exec(kIndices);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_acq_rel);
        if (i >= kIndices) return;
        exec[i].fetch_add(1, std::memory_order_relaxed);
        completed.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(completed.load(), kIndices);
  for (std::size_t i = 0; i < kIndices; ++i)
    ASSERT_EQ(exec[i].load(), 1) << "index " << i;
}

// ---------------------------------------------------------------------------
// Mailbox protocol under a real hosting thread.
// ---------------------------------------------------------------------------

// One migrating thread runs the full publish/local/recover/revoke protocol
// (mirroring NodeRuntime::run_stage_migrating) against a hosting thread
// running the take/claim/release loop (mirroring host_chunk). Invariant:
// every subtask of every round executes exactly once, no matter how the two
// sides interleave or where the host preempts.
TEST(MailboxStress, HandshakeNeverDuplicatesOrLosesSubtasks) {
  constexpr int kRounds = 400;
  constexpr std::size_t kSubtasks = 12;
  Mailbox box;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> salt{0};

  std::thread host([&] {
    while (!stop.load(std::memory_order_acquire)) {
      MigratedChunk c;
      if (!box.try_take(c)) {
        std::this_thread::yield();
        continue;
      }
      for (;;) {
        // Randomized preemption between subtasks (as when the host's own
        // subframe arrives): claimed-but-unfinished work must be recovered.
        if (mix(salt.fetch_add(1)) % 4 == 0) break;
        const std::size_t i =
            c.next_index->fetch_add(1, std::memory_order_acq_rel);
        if (i >= c.first + c.count) break;
        c.run_subtask(i);
        c.completed->fetch_add(1, std::memory_order_acq_rel);
      }
      box.release();
    }
  });

  // Counters and execution marks live in a shared_ptr passed as the chunk's
  // keepalive, exactly like the runtime's LiveChunk: the host may perform one
  // final (empty) claim after the migrating side moved on, so the counters
  // must outlive the round on both sides.
  struct RoundState {
    explicit RoundState(std::size_t n) : exec(n) {}
    std::vector<std::atomic<int>> exec;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
  };

  for (int round = 0; round < kRounds; ++round) {
    auto st = std::make_shared<RoundState>(kSubtasks);
    auto run_subtask = [st](std::size_t i) {
      st->exec[i].fetch_add(1, std::memory_order_relaxed);
    };
    const std::size_t local_end = 1 + mix(round) % (kSubtasks - 1);
    const std::size_t count = kSubtasks - local_end;
    st->next.store(local_end);

    std::size_t migrated = 0;
    if (box.try_claim()) {
      MigratedChunk mc;
      mc.run_subtask = run_subtask;
      mc.first = local_end;
      mc.count = count;
      mc.next_index = &st->next;
      mc.completed = &st->completed;
      mc.keepalive = st;
      box.fill(std::move(mc));
      migrated = count;
    }
    for (std::size_t i = 0; i < local_end; ++i) run_subtask(i);
    std::size_t recovered = 0;
    if (migrated > 0) {
      for (;;) {
        const std::size_t i =
            st->next.fetch_add(1, std::memory_order_acq_rel);
        if (i >= kSubtasks) break;
        run_subtask(i);
        st->completed.fetch_add(1, std::memory_order_acq_rel);
        ++recovered;
      }
      box.try_revoke();
      // Wait out a host that is mid-subtask (bounded by one subtask).
      while (st->completed.load(std::memory_order_acquire) <
             std::min(st->next.load(std::memory_order_acquire), kSubtasks) -
                 local_end)
        std::this_thread::yield();
    } else {
      for (std::size_t i = local_end; i < kSubtasks; ++i) run_subtask(i);
    }

    EXPECT_LE(recovered, migrated);
    for (std::size_t i = 0; i < kSubtasks; ++i)
      ASSERT_EQ(st->exec[i].load(), 1)
          << "round " << round << " index " << i << " executed "
          << st->exec[i].load() << " times";
  }
  stop.store(true, std::memory_order_release);
  host.join();
}

TEST(MailboxStress, ManyClaimersExactlyOneWinnerPerRound) {
  constexpr int kRounds = 300;
  constexpr unsigned kClaimers = 6;
  Mailbox box;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kClaimers; ++t)
      threads.emplace_back([&] {
        if (box.try_claim()) winners.fetch_add(1, std::memory_order_relaxed);
      });
    for (auto& t : threads) t.join();
    ASSERT_EQ(winners.load(), 1) << "round " << round;
    box.release();
  }
}

// ---------------------------------------------------------------------------
// CpuStateTable: packed snapshots must never tear.
// ---------------------------------------------------------------------------

// Writers publish (activity, horizon) pairs whose microsecond horizon is
// congruent to the activity value mod 3; readers must never observe a
// mismatched pair (which would indicate a torn or non-atomic update).
TEST(CpuStateTableStress, SnapshotsAreNeverTorn) {
  CpuStateTable table(2);
  table.set(0, CoreActivity::kIdle, 0);
  std::atomic<bool> stop{false};

  auto writer = [&](std::size_t core, std::uint64_t seed) {
    std::uint64_t k = seed;
    while (!stop.load(std::memory_order_acquire)) {
      const auto a = static_cast<CoreActivity>(k % 3);
      const std::int64_t us = static_cast<std::int64_t>(
          (mix(k) % 1'000'000) * 3 + k % 3);
      table.set(core, a, microseconds(us));
      ++k;
    }
  };
  std::thread w0(writer, 0, 1), w1(writer, 1, 1'000'000'007ULL);

  std::size_t checked = 0;
  for (int iter = 0; iter < 200'000; ++iter) {
    for (std::size_t core = 0; core < table.size(); ++core) {
      const auto snap = table.get(core);
      const auto horizon_us = snap.horizon / 1000;
      ASSERT_EQ(horizon_us % 3,
                static_cast<std::int64_t>(snap.activity))
          << "torn snapshot on core " << core;
      ++checked;
    }
  }
  stop.store(true, std::memory_order_release);
  w0.join();
  w1.join();
  EXPECT_GT(checked, 0u);
}

// ---------------------------------------------------------------------------
// Full NodeRuntime under injected faults.
// ---------------------------------------------------------------------------

RuntimeConfig stress_config() {
  RuntimeConfig cfg;
  cfg.mode = RuntimeMode::kRtOpex;
  cfg.num_basestations = 1;
  cfg.cores_per_bs = 2;
  cfg.subframes_per_bs = 6;
  cfg.subframe_period = milliseconds(60);
  cfg.deadline_budget = milliseconds(120);
  cfg.mcs_cycle = {27};  // multi-code-block decode: both stages migratable
  cfg.phy.num_antennas = 2;
  cfg.phy.bandwidth = phy::Bandwidth::kMHz5;
  cfg.enforce_deadlines = false;  // timing-independent: no wall-clock drops
  cfg.seed = 11;
  return cfg;
}

void check_conservation(const RuntimeReport& report,
                        const RuntimeConfig& cfg) {
  ASSERT_EQ(report.records.size(),
            static_cast<std::size_t>(cfg.num_basestations) *
                cfg.subframes_per_bs);
  std::set<std::pair<unsigned, std::uint32_t>> seen;
  std::size_t migrated = 0, recovered = 0;
  for (const auto& r : report.records) {
    EXPECT_TRUE(seen.insert({r.bs, r.index}).second)
        << "duplicate subframe bs=" << r.bs << " idx=" << r.index;
    EXPECT_TRUE(r.crc_ok || r.dropped)
        << "lost subframe bs=" << r.bs << " idx=" << r.index;
    // Every record terminates exactly one way: dropped xor decoded.
    EXPECT_NE(r.dropped, r.crc_ok);
    // Recovered subtasks are a subset of the migrated ones.
    EXPECT_LE(r.timing.recovered,
              r.timing.fft_migrated + r.timing.decode_migrated);
    migrated += r.timing.fft_migrated + r.timing.decode_migrated;
    recovered += r.timing.recovered;
  }
  EXPECT_EQ(report.migrations, migrated);
  EXPECT_EQ(report.recoveries, recovered);
  EXPECT_LE(report.recoveries, report.migrations);
  EXPECT_EQ(report.crc_failures, 0u);
}

// The acceptance-criterion test: with the planner forced to migrate and the
// hosting cores stalled, every migrated subtask must be recovered locally —
// recoveries > 0 deterministically, with no reliance on wall-clock timing.
TEST(FaultInjectionStress, ForcedRecoveryIsDeterministic) {
  fault::Hooks hooks;
  hooks.plan_window = [](unsigned, unsigned, Duration& window) {
    window = milliseconds(1000);  // every other core looks invitingly idle
  };
  hooks.host_take = [](std::size_t) { return false; };  // hosts never start
  fault::ScopedInjection inject(std::move(hooks));

  const auto cfg = stress_config();
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_conservation(report, cfg);
  EXPECT_GT(report.migrations, 0u);
  // Hosts never execute anything, so every migrated subtask is recovered.
  EXPECT_EQ(report.recoveries, report.migrations);
}

TEST(FaultInjectionStress, FailedClaimsKeepEverythingLocal) {
  fault::Hooks hooks;
  hooks.plan_window = [](unsigned, unsigned, Duration& window) {
    window = milliseconds(1000);
  };
  hooks.claim = [](std::size_t) { return false; };  // every claim loses
  fault::ScopedInjection inject(std::move(hooks));

  const auto cfg = stress_config();
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_conservation(report, cfg);
  EXPECT_EQ(report.migrations, 0u);
  EXPECT_EQ(report.recoveries, 0u);
}

TEST(FaultInjectionStress, RandomizedFaultsPreserveConservation) {
  auto salt = std::make_shared<std::atomic<std::uint64_t>>(0);
  fault::Hooks hooks;
  hooks.plan_window = [](unsigned, unsigned, Duration& window) {
    window = milliseconds(1000);
  };
  hooks.claim = [salt](std::size_t) {
    return mix(salt->fetch_add(1)) % 10 < 7;  // ~30% of claims fail
  };
  hooks.host_subtask = [salt](std::size_t) {
    return mix(salt->fetch_add(1)) % 10 < 8;  // ~20% forced preemptions
  };
  hooks.transport_jitter = [salt](unsigned, std::uint32_t) {
    return microseconds(
        static_cast<std::int64_t>(mix(salt->fetch_add(1)) % 500));
  };
  fault::ScopedInjection inject(std::move(hooks));

  auto cfg = stress_config();
  cfg.num_basestations = 2;
  cfg.subframes_per_bs = 8;
  cfg.mcs_cycle = {27, 16};
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_conservation(report, cfg);
}

TEST(FaultInjectionStress, DelayedFillStillConserves) {
  fault::Hooks hooks;
  hooks.plan_window = [](unsigned, unsigned, Duration& window) {
    window = milliseconds(1000);
  };
  hooks.fill = [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  fault::ScopedInjection inject(std::move(hooks));

  const auto cfg = stress_config();
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_conservation(report, cfg);
}

}  // namespace
}  // namespace rtopex::runtime
