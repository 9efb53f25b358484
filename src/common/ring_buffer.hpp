// Fixed-capacity lock-free single-producer/single-consumer ring buffer.
//
// SpscRingBuffer is the tracer's per-core event ring (obs/tracer.hpp): each
// worker emits onto its own ring and the transport ticker drains them all.
// No runtime job queue uses it. The paper's global scheduler (§3.1.2) holds
// incoming subframes in "a fixed-size ring-buffer"; the live node's job
// queues are mutex-guarded deques (runtime/node_runtime.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace rtopex {

/// Lock-free SPSC ring. Capacity is rounded up to a power of two; one slot is
/// sacrificed to distinguish full from empty.
template <typename T>
class SpscRingBuffer {
 public:
  explicit SpscRingBuffer(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity + 1) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRingBuffer(const SpscRingBuffer&) = delete;
  SpscRingBuffer& operator=(const SpscRingBuffer&) = delete;

  bool try_push(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) return false;  // full
    slots_[head] = std::move(value);
    head_.store(next, std::memory_order_release);
    return true;
  }

  std::optional<T> try_pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return std::nullopt;
    T value = std::move(slots_[tail]);
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return value;
  }

  bool empty() const {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return mask_; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
};

}  // namespace rtopex
