#include "common/thread_utils.hpp"

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <thread>

namespace rtopex {

unsigned hardware_core_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

bool pin_current_thread(unsigned core_id) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core_id, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

void set_current_thread_name(const std::string& name) {
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
}

std::int64_t monotonic_ns() {
  timespec ts{};
#ifdef CLOCK_MONOTONIC_RAW
  clock_gettime(CLOCK_MONOTONIC_RAW, &ts);
#else
  clock_gettime(CLOCK_MONOTONIC, &ts);
#endif
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void spin_until_ns(std::int64_t deadline_ns) {
  while (monotonic_ns() < deadline_ns) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

}  // namespace rtopex
