#include "util/timebase.hpp"

#include <chrono>
#include <thread>

#include "util/spinlock.hpp"

namespace tram::util {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void spin_for_ns(std::uint64_t ns) noexcept {
  if (ns == 0) return;
  const std::uint64_t deadline = now_ns() + ns;
  while (now_ns() < deadline) cpu_relax();
}

void wait_for_ns(std::uint64_t ns) noexcept {
  constexpr std::uint64_t kSleepThreshold = 100'000;  // 100us
  constexpr std::uint64_t kSleepSlack = 60'000;       // wake early, spin rest
  const std::uint64_t deadline = now_ns() + ns;
  if (ns >= kSleepThreshold) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns - kSleepSlack));
  }
  while (now_ns() < deadline) cpu_relax();
}

void idle_backoff(std::uint32_t idle_round, bool may_nap) noexcept {
  if (idle_round <= kIdleSpin) {
    cpu_relax();
  } else if (idle_round <= kIdleSpin + kIdleYield || !may_nap) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::nanoseconds(kIdleNapNs));
  }
}

}  // namespace tram::util
