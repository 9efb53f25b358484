// Unit tests of the real-thread runtime's building blocks: the migration
// mailbox protocol, the packed CPU-state table, the global clock, and the
// cpulist parsing behind the runtime's pin sets.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/affinity.hpp"
#include "runtime/clock.hpp"
#include "runtime/cpu_state_table.hpp"
#include "runtime/mailbox.hpp"

namespace rtopex::runtime {
namespace {

TEST(MailboxTest, ClaimFillTakeReleaseCycle) {
  Mailbox box;
  EXPECT_EQ(box.state(), Mailbox::State::kEmpty);
  ASSERT_TRUE(box.try_claim());
  EXPECT_EQ(box.state(), Mailbox::State::kClaimed);
  EXPECT_FALSE(box.try_claim());  // double claim rejected

  std::atomic<std::size_t> next{0}, completed{0};
  MigratedChunk chunk;
  chunk.first = 0;
  chunk.count = 3;
  chunk.next_index = &next;
  chunk.completed = &completed;
  box.fill(std::move(chunk));
  EXPECT_EQ(box.state(), Mailbox::State::kFilled);

  MigratedChunk taken;
  ASSERT_TRUE(box.try_take(taken));
  EXPECT_EQ(taken.count, 3u);
  EXPECT_EQ(box.state(), Mailbox::State::kRunning);
  EXPECT_FALSE(box.try_take(taken));  // only one taker

  box.release();
  EXPECT_EQ(box.state(), Mailbox::State::kEmpty);
  EXPECT_TRUE(box.try_claim());  // reusable
}

TEST(MailboxTest, RevokeOnlyBeforeTake) {
  Mailbox box;
  std::atomic<std::size_t> next{0}, completed{0};
  ASSERT_TRUE(box.try_claim());
  MigratedChunk chunk;
  chunk.next_index = &next;
  chunk.completed = &completed;
  box.fill(std::move(chunk));
  // Revocable while merely filled.
  EXPECT_TRUE(box.try_revoke());
  EXPECT_EQ(box.state(), Mailbox::State::kEmpty);

  // Not revocable once the owner took it.
  ASSERT_TRUE(box.try_claim());
  MigratedChunk chunk2;
  chunk2.next_index = &next;
  chunk2.completed = &completed;
  box.fill(std::move(chunk2));
  MigratedChunk taken;
  ASSERT_TRUE(box.try_take(taken));
  EXPECT_FALSE(box.try_revoke());
}

TEST(MailboxTest, KeepaliveExtendsCounterLifetime) {
  Mailbox box;
  struct Counters {
    std::atomic<std::size_t> next{0}, completed{0};
  };
  auto counters = std::make_shared<Counters>();
  const std::weak_ptr<Counters> watch = counters;
  ASSERT_TRUE(box.try_claim());
  MigratedChunk chunk;
  chunk.next_index = &counters->next;
  chunk.completed = &counters->completed;
  chunk.keepalive = counters;
  box.fill(std::move(chunk));
  counters.reset();
  EXPECT_FALSE(watch.expired());  // the mailbox still holds them
  MigratedChunk taken;
  ASSERT_TRUE(box.try_take(taken));
  box.release();
  EXPECT_FALSE(watch.expired());  // the taker still holds them
  taken = MigratedChunk{};
  EXPECT_TRUE(watch.expired());
}

TEST(MailboxTest, ConcurrentClaimersOnlyOneWins) {
  Mailbox box;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&] {
      if (box.try_claim()) winners.fetch_add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(CpuStateTableTest, RoundTripsActivityAndHorizon) {
  CpuStateTable table(4);
  table.set(2, CoreActivity::kIdle, milliseconds(3));
  const auto snap = table.get(2);
  EXPECT_EQ(snap.activity, CoreActivity::kIdle);
  // Horizon quantized to microseconds.
  EXPECT_EQ(snap.horizon, milliseconds(3));
  table.set(2, CoreActivity::kHosting, 0);
  EXPECT_EQ(table.get(2).activity, CoreActivity::kHosting);
  EXPECT_EQ(table.size(), 4u);
}

TEST(CpuStateTableTest, MicrosecondQuantization) {
  CpuStateTable table(1);
  table.set(0, CoreActivity::kIdle, microseconds(1500) + 999);
  EXPECT_EQ(table.get(0).horizon, microseconds(1500));
  table.set(0, CoreActivity::kIdle, -5);  // negative clamps to 0
  EXPECT_EQ(table.get(0).horizon, 0);
}

TEST(AffinityTest, ParsesCpulistRangesAndSingles) {
  EXPECT_EQ(parse_cpulist("0-3,8,10-11"),
            (std::vector<unsigned>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpulist("5"), (std::vector<unsigned>{5}));
  EXPECT_EQ(parse_cpulist(" 2 , 0-1 \n"), (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(parse_cpulist("1,1-2,2"), (std::vector<unsigned>{1, 2}));  // dedup
  EXPECT_TRUE(parse_cpulist("").empty());
  EXPECT_TRUE(parse_cpulist("   \n").empty());
}

TEST(AffinityTest, SkipsMalformedCpulistFragments) {
  // Advisory parse: bad fragments drop out instead of throwing, the valid
  // remainder survives.
  EXPECT_EQ(parse_cpulist("x,3,4-y"), (std::vector<unsigned>{3}));
  EXPECT_EQ(parse_cpulist("5-3,7"), (std::vector<unsigned>{7}));  // inverted
  EXPECT_EQ(parse_cpulist("0-999999999,2"), (std::vector<unsigned>{2}));
  EXPECT_TRUE(parse_cpulist("-,--,-1").empty());
}

TEST(GlobalClockTest, MonotoneAndSpinAccurate) {
  GlobalClock clock;
  const TimePoint a = clock.now();
  const TimePoint b = clock.now();
  EXPECT_GE(b, a);
  const TimePoint target = clock.now() + microseconds(200);
  clock.spin_until(target);
  const TimePoint after = clock.now();
  EXPECT_GE(after, target);
  EXPECT_LT(after, target + milliseconds(50));  // generous CI bound
}

}  // namespace
}  // namespace rtopex::runtime
