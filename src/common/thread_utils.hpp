// Thin wrappers over the pthread knobs the real-thread runtime uses: 1:1
// kernel threads pinned to dedicated cores (paper §4.1/§4.2 "processing
// threads are pinned to dedicated cores"), thread names, and a monotonic
// clock with a busy-spin wait.
//
// Pinning degrades gracefully (returns false) on hosts where the operation
// is not permitted or the core does not exist, so the library remains usable
// on laptops and CI machines.
#pragma once

#include <cstdint>
#include <string>

namespace rtopex {

/// Number of online CPU cores on this host.
unsigned hardware_core_count();

/// Pin the calling thread to the given core. Returns false on failure
/// (e.g. core id out of range or insufficient privileges).
bool pin_current_thread(unsigned core_id);

/// Name the calling thread (visible in /proc and debuggers); truncated to
/// the 15-character kernel limit.
void set_current_thread_name(const std::string& name);

/// Monotonic wall-clock timestamp in nanoseconds (CLOCK_MONOTONIC_RAW when
/// available). Used for real measurements, never for simulation time.
std::int64_t monotonic_ns();

/// Busy-spin until monotonic_ns() >= deadline_ns. Used by the real-thread
/// runtime's 1 ms subframe ticker where sleep jitter would be unacceptable.
void spin_until_ns(std::int64_t deadline_ns);

}  // namespace rtopex
