#pragma once
///
/// \file fabric.hpp
/// \brief Simulated interconnect between simulated processes.
///
/// The fabric replaces the Delta network of the paper. Design:
///
///  - send(): the calling (comm) thread computes the packet's arrival time
///    from the CostModel. Injection serializes per *source node* through an
///    atomic busy-until timestamp, modeling a NIC: back-to-back messages
///    from one node queue behind each other for their injection time, then
///    spend the wire latency alpha in flight.
///  - The packet is pushed to the destination process's ingress MPSC queue
///    immediately; the *receiver* refrains from processing it until
///    wall-clock time reaches arrival_ns (see the reorder heap in
///    rt::ModeledFabricTransport). This gives real wall-clock latency
///    shapes without any dedicated network threads.
///  - With CostModel::zero() every modeled cost is 0, so arrival_ns equals
///    the send time and receivers process immediately (deterministic
///    tests); rt::InlineTransport skips the fabric entirely for the same
///    purpose, without the per-send NIC-clock CAS.
///
/// Same-node cross-process messages take the cheaper local alpha/beta and
/// do not serialize through the node NIC (they model cma/xpmem copies).

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/cost_model.hpp"
#include "net/packet.hpp"
#include "util/mpsc_queue.hpp"
#include "util/spinlock.hpp"
#include "util/topology.hpp"

namespace tram::net {

/// Per-process fabric counters, each on its process's padded line: sent
/// counters are written by whichever thread sends for that process
/// (normally its pumping thread), received by the receiving process's
/// pumping thread, so the message path writes no machine-wide line. Reporting reads them after quiescence; quiescence detection reads
/// them live through Fabric::in_flight(), which is why messages_received
/// is incremented with release (see in_flight()). The rest stay relaxed.
struct FabricCounters {
  std::atomic<std::uint64_t> messages_sent{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> messages_received{0};
  std::atomic<std::uint64_t> local_messages_sent{0};  // same-node subset
};

class Fabric {
 public:
  Fabric(util::Topology topo, CostModel model);

  const util::Topology& topology() const noexcept { return topo_; }
  const CostModel& cost_model() const noexcept { return model_; }

  /// Hand a packet to the network. Fills in send_ns/arrival_ns, accounts
  /// stats, and enqueues on the destination ingress. Thread-safe. Returns
  /// the computed arrival time.
  std::uint64_t send(Packet&& p);

  /// Destination ingress queue for a process; drained by its comm thread.
  util::MpscQueue<Packet>& ingress(ProcId p) { return ingress_[p]->queue; }

  /// Counters for one process (src side of sent, dst side of received).
  FabricCounters& counters(ProcId p) { return counters_[p]->value; }

  /// Sum of messages sent across all processes.
  std::uint64_t total_messages_sent() const;
  std::uint64_t total_bytes_sent() const;
  /// Per-link contention counters (all zero unless the cost model sets
  /// link_per_msg_ns/link_per_byte_ns): total time cross-node messages
  /// occupied destination ingress links, and the worst single queueing
  /// delay any message spent waiting behind others for its link.
  std::uint64_t link_busy_ns() const noexcept {
    return link_busy_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t max_link_queue_ns() const noexcept {
    return link_queue_ns_max_.load(std::memory_order_relaxed);
  }
  /// Messages handed to the fabric but not yet acknowledged by a receiver
  /// (note_received): the sum over processes of sent minus received.
  /// Used by quiescence detection: the system cannot be quiescent while
  /// packets are in flight.
  std::uint64_t in_flight() const;

  /// Reset all counters and injection clocks (between benchmark trials;
  /// nothing may be in flight, or in_flight() loses track of it).
  void reset();

 private:
  struct IngressSlot {
    util::MpscQueue<Packet> queue;
  };

  util::Topology topo_;
  CostModel model_;
  // One NIC busy-until clock per node, padded to avoid false sharing.
  std::vector<std::unique_ptr<util::Padded<std::atomic<std::uint64_t>>>>
      nic_busy_until_;
  // One ingress-link busy-until clock per node: cross-node messages
  // converging on a node serialize through it for their link occupancy
  // (CostModel::link_occupancy_ns). Untouched when contention is off.
  std::vector<std::unique_ptr<util::Padded<std::atomic<std::uint64_t>>>>
      link_busy_until_;
  std::vector<std::unique_ptr<IngressSlot>> ingress_;
  std::vector<std::unique_ptr<util::Padded<FabricCounters>>> counters_;
  std::atomic<std::uint64_t> link_busy_ns_{0};
  std::atomic<std::uint64_t> link_queue_ns_max_{0};

 public:
  /// Receivers must call this after popping a packet from ingress() so
  /// in_flight() stays accurate.
  void note_received(ProcId dst, const Packet& p);
};

}  // namespace tram::net
