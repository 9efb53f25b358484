#include <gtest/gtest.h>

#include <thread>

#include "common/ring_buffer.hpp"

namespace rtopex {
namespace {

TEST(SpscRingBufferTest, PushPopOrder) {
  SpscRingBuffer<int> ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  for (int i = 0; i < 4; ++i) {
    const auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRingBufferTest, FullRejectsPush) {
  SpscRingBuffer<int> ring(2);
  std::size_t pushed = 0;
  while (ring.try_push(static_cast<int>(pushed))) ++pushed;
  EXPECT_GE(pushed, 2u);
  EXPECT_FALSE(ring.try_push(99));
  ring.try_pop();
  EXPECT_TRUE(ring.try_push(99));
}

TEST(SpscRingBufferTest, ConcurrentProducerConsumer) {
  SpscRingBuffer<int> ring(64);
  constexpr int kCount = 100000;
  std::thread producer([&] {
    for (int i = 0; i < kCount;) {
      if (ring.try_push(i)) ++i;
    }
  });
  long long sum = 0;
  int received = 0;
  while (received < kCount) {
    if (const auto v = ring.try_pop()) {
      EXPECT_EQ(*v, received);
      sum += *v;
      ++received;
    }
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

}  // namespace
}  // namespace rtopex
