#pragma once
///
/// \file transport.hpp
/// \brief The send/deliver seam between the runtime and the interconnect.
///
/// A Transport owns everything between "a Message leaves its source
/// process" and "a Message lands in a destination worker's inbox". It
/// replaces the seam that used to be split between net::Fabric, the comm
/// thread's pump_egress/pump_ingress, and the free helpers
/// forward_to_fabric/deliver_packet. ModeledFabricTransport is the one
/// base implementation: send() charges the calling thread the
/// per-message/per-byte comm cost and injects a net::Packet into the
/// fabric; poll() drains the fabric ingress into a per-process reorder
/// heap keyed by modeled arrival time and delivers everything that is
/// due. The fault layer (src/fault/) decorates it through this same
/// interface, and a real backend (shared-memory rings, RDMA) would only
/// have to implement it too.
///
/// Callers: the comm thread (SMP mode), or in non-SMP mode the process's
/// one worker, which sends inline and polls at the top of every
/// Worker::progress() call (its scheduler loop and any application loop
/// that calls progress()). send() and poll() for a given process are only
/// invoked from that process's pumping thread; counters/in_flight are read
/// from anywhere.

#include <atomic>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "net/packet.hpp"
#include "runtime/message.hpp"
#include "util/spinlock.hpp"
#include "util/types.hpp"

namespace tram::net {
class Fabric;
}

namespace tram::rt {

class Machine;
class Process;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Ship a cross-process message out of src_proc, charging the calling
  /// thread whatever processing cost the transport models. The message's
  /// destination is dst_worker, or dst_proc_hint when process-addressed.
  virtual void send(ProcId src_proc, Message&& m) = 0;

  /// Deliver due inbound messages for proc into its workers' inboxes.
  /// Returns the number delivered.
  virtual std::size_t poll(Process& proc) = 0;

  /// Earliest modeled arrival still pending for proc after the last
  /// poll(), or 0 when nothing is queued — the idle-wait hint.
  virtual std::uint64_t next_due_ns(ProcId p) const = 0;

  /// Messages accepted by send() but not yet delivered (quiescence
  /// detection: the machine cannot be quiescent while this is nonzero).
  virtual std::uint64_t in_flight() const = 0;

  /// Aggregate traffic counters (RunResult reporting).
  virtual std::uint64_t total_messages() const = 0;
  virtual std::uint64_t total_bytes() const = 0;
  /// Subset of total_messages() sent with Message::hops > 0: traffic
  /// re-shipped by a topological-routing intermediate rather than an
  /// originating worker.
  virtual std::uint64_t total_forwarded() const = 0;

  /// Reset counters and clocks between runs (machine quiesced).
  virtual void reset() = 0;
};

/// Hook between the transport's delivery tail and the worker inbox. The
/// reliability layer (src/fault/) implements it to dedup retransmitted
/// data, record acks, and consume protocol control traffic before a
/// message is enqueued; when no interceptor is installed (the default,
/// fault injection off) the delivery tail is exactly what it was.
class DeliveryInterceptor {
 public:
  virtual ~DeliveryInterceptor() = default;
  /// Inspect (and possibly rewrite, e.g. strip a frame off) an inbound
  /// message before it is enqueued. Runs on proc's pump thread, inside
  /// the transport's poll(). Return false to consume the message — a duplicate or a
  /// control message that must not reach an endpoint handler.
  virtual bool on_inbound(Process& proc, Message& m) = 0;
};

/// Resolve a message's destination process (direct or process-addressed).
ProcId message_dst_proc(const Machine& machine, const Message& m);

/// The cost-model path: fabric injection with per-node NIC serialization,
/// modeled arrival times, and a destination-side reorder heap.
class ModeledFabricTransport final : public Transport {
 public:
  ModeledFabricTransport(Machine& machine, net::Fabric& fabric);

  void send(ProcId src_proc, Message&& m) override;
  std::size_t poll(Process& proc) override;
  std::uint64_t next_due_ns(ProcId p) const override;
  std::uint64_t in_flight() const override;
  std::uint64_t total_messages() const override;
  std::uint64_t total_bytes() const override;
  std::uint64_t total_forwarded() const override;
  void reset() override;

 private:
  /// Per-process reorder heap; only touched by that process's pumping
  /// thread, so no locking. One line each, so neighbours never share.
  struct alignas(util::kCacheLine) ProcState {
    std::priority_queue<net::Packet, std::vector<net::Packet>,
                        net::PacketLater>
        heap;
    /// Forwarded sends out of this process (atomic: read by reporting).
    std::atomic<std::uint64_t> forwarded{0};
  };

  Machine& machine_;
  net::Fabric& fabric_;
  std::vector<std::unique_ptr<ProcState>> states_;
};

}  // namespace tram::rt
