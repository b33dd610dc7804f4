#pragma once
///
/// \file config.hpp
/// \brief Runtime tuning knobs (comm-thread costs, fault injection, QD).

#include <cstdint>

#include "fault/fault_config.hpp"
#include "net/cost_model.hpp"

namespace tram::rt {

/// Max messages a worker handles per progress() call (and a comm thread
/// forwards per worker ring per pass) before returning: bounds the
/// latency of interleaved compute/progress loops.
inline constexpr std::uint32_t kProgressBatch = 64;

/// Counter-sampler cadence while tracing is enabled (trace::enabled()):
/// how often the sampler thread snapshots pool occupancy, send backlog,
/// in-flight messages, and reliability counters into counter events.
inline constexpr std::uint64_t kTraceSampleNs = 200'000;

struct RuntimeConfig {
  /// Interconnect model of the fabric every cross-process message crosses
  /// (see net::CostModel). zero() for deterministic tests, delta_like()
  /// for benchmarks.
  net::CostModel cost = net::CostModel::delta_like();

  /// Fault injection (src/fault/). All-zero (the default) leaves the
  /// modeled-fabric transport bare — no decorators, no reliability
  /// headers, no per-message cost. Any nonzero knob wraps it in the
  /// FaultyTransport + ReliableTransport pair, which injects the faults
  /// and restores exactly-once delivery on top of them.
  fault::FaultConfig fault;

  /// Comm-thread occupancy per message sent / received, nanoseconds. This
  /// models the paper's section III-A finding: the dedicated comm thread
  /// serializes all of a process's traffic, and below ~167ns of application
  /// work per word it becomes the bottleneck. Burned with a calibrated spin
  /// on the comm thread (or on the worker itself in non-SMP mode).
  double comm_per_msg_send_ns = 350.0;
  double comm_per_msg_recv_ns = 350.0;
  /// Additional comm-thread occupancy per payload byte (memcpy-ish).
  double comm_per_byte_ns = 0.01;

  /// SMP mode: one dedicated comm thread per process (Charm++ SMP build).
  /// When false, every worker drives its own communication (non-SMP /
  /// MPI-everywhere): it sends inline and polls the transport on every
  /// Worker::progress() call, like a non-SMP Charm++ PE's scheduler pass.
  /// Requires workers_per_proc == 1.
  bool dedicated_comm = true;

  /// Capacity of each worker -> comm-thread egress ring.
  std::uint32_t egress_ring_capacity = 2048;

  /// Quiescence detection: the condition must hold this long (two samples)
  /// before the machine declares termination.
  std::uint64_t qd_settle_ns = 200'000;

  /// Returns a config with a zero-cost interconnect and zero comm-thread
  /// per-message costs: deterministic unit-test mode.
  static RuntimeConfig testing() {
    RuntimeConfig c;
    c.cost = net::CostModel::zero();
    c.comm_per_msg_send_ns = 0.0;
    c.comm_per_msg_recv_ns = 0.0;
    c.comm_per_byte_ns = 0.0;
    c.qd_settle_ns = 50'000;
    return c;
  }
};

}  // namespace tram::rt
