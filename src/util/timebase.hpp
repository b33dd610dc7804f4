#pragma once
///
/// \file timebase.hpp
/// \brief Nanosecond clock helpers and a calibrated busy-wait.
///
/// The simulated fabric and comm threads need to *consume* modeled time (an
/// alpha of a few microseconds, a per-message processing cost of hundreds of
/// nanoseconds). sleep_for() cannot express sub-10us delays reliably, so
/// short delays are burned with a calibrated spin; longer ones combine
/// sleep + spin. All wall-clock timing in benchmarks goes through now_ns().

#include <cstdint>

namespace tram::util {

/// Monotonic wall-clock time in nanoseconds (steady_clock).
std::uint64_t now_ns() noexcept;

/// Busy-wait for approximately ns nanoseconds, using cpu_relax() in the
/// loop. Accurate to tens of nanoseconds after the first call (which
/// calibrates). ns == 0 returns immediately.
void spin_for_ns(std::uint64_t ns) noexcept;

/// Hybrid wait: sleeps for the bulk of the interval when it is long enough
/// (>= 100us) and spins the remainder. Use for modeled network latencies.
void wait_for_ns(std::uint64_t ns) noexcept;

/// Idle backoff for polling loops, called once per empty round (counted
/// from 1): cpu_relax() for the first kIdleSpin rounds, yield for the
/// next kIdleYield, then nap kIdleNapNs per round — or keep yielding when
/// `may_nap` is false.
inline constexpr std::uint32_t kIdleSpin = 256;
inline constexpr std::uint32_t kIdleYield = 16;
inline constexpr std::uint64_t kIdleNapNs = 20'000;
void idle_backoff(std::uint32_t idle_round, bool may_nap) noexcept;

}  // namespace tram::util
