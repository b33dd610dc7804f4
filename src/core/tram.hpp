#pragma once
///
/// \file tram.hpp
/// \brief TramLib: the shared memory-aware message aggregation library.
///
/// Public API (SPMD, mirroring the paper's Charm++ library):
///
///   TramDomain<Update> tram(machine, {.scheme = Scheme::WPs,
///                                     .buffer_items = 1024},
///                           [](rt::Worker& w, const Update& u) {
///                             /* delivered on the destination worker */
///                           });
///   machine.run([&](rt::Worker& self) {
///     auto& t = tram.on(self);
///     t.insert(dest_worker, Update{...});   // aggregated per the scheme
///     ...
///     t.flush_all();                        // ship partial buffers
///   });
///
/// At initialization the user passes the delivery function ("a pointer to
/// the charm++ object and function to which data needs to be delivered");
/// inserts check the destination buffer's fill against g and ship a message
/// when full; flushed messages are resized to their actual occupancy; idle
/// workers flush automatically when flush_on_idle is set.
///
/// The paper's latency metric is opt-in by type: TramDomain<Update, true>
/// stamps every entry with its insert time and records insert -> delivery
/// latency in WorkerTramStats::latency. The default instantiation ships
/// bare {dest, item} entries and compiles the stamp out of the insert and
/// delivery paths.
///
/// One engine serves every scheme. A worker's Handle aggregates into
/// *slots*, and a scheme is a preset of the slot layout, derived from
/// cfg.scheme, cfg.route_dims and the topology:
///
///   scheme     slot per               source side       receiving process
///   None       destination worker     one item/message  delivers
///   WW         destination worker     worker-local      delivers
///   WPs        destination process    worker-local      regroups by worker
///   WsP        destination process    sorted by worker  scatters sub-views
///   PP         destination process    process-shared    regroups by worker
///   Mesh2D/3D  mesh coordinate x dim  worker-local      forwards or scatters
///
/// The per-process schemes are the 1-D case of topological routing (a
/// virtual mesh of extent procs, so every ship is the last hop): they use
/// the same route::Router table, ship path and receive path as the meshes.
/// With one worker per process, sorting at the source and regrouping at
/// the destination are the same trivial operation, so every per-process
/// ship is then delivered whole on arrival.
///
/// The message lifecycle over a mesh gains an intermediate stage:
///
///   insert -> hop-encode (one load of the Router's precomputed table)
///          -> ship (slab handle moves, RoutedHeader stamped in place;
///             a last-hop buffer ships pre-sorted by destination local
///             rank under RoutedHeader::kSortedMagic — sorted *in place*
///             by permutation, never copied into a fresh slab)
///          -> re-aggregate (intermediate classifies the batch once; a
///             single-destination extent forwards as a refcounted
///             sub-view of the inbound slab with zero copies, a mixed
///             extent counting-sorts once into scratch and forwards
///             runs as sub-views of the scratch slab)
///          -> ship (slot slab is extent 0; staged forward runs ride as
///             extra payload extents, rt::Message::extras — gather-send)
///          -> ... -> deliver (final process scatters refcounted
///             sub-views per rank instead of copying)
///
/// Forwarded bytes are therefore copied once (mixed extent: into
/// scratch) or not at all (single-destination extent); the only
/// remaining forward memcpy into a slot buffer is the SMP
/// final-dimension slot, whose ship permutes its own slab and so cannot
/// carry foreign extents. stats_.routed_forward_{copy,subview}_bytes
/// make the split measurable. The routed_* counters describe mesh
/// traffic only and stay 0 for the direct schemes.
///
/// Every wire record carries its final destination worker
/// (WireEntry::dest), so intermediates never rewrite entries — they only
/// move them between buffers. Quiescence is safe across hops because a
/// re-bucketed entry raises this worker's pending counter before the
/// inbound message counts as handled, and flush-on-idle drains
/// intermediate buffers exactly like source buffers.
///
/// The payoff of the meshes: a source worker's live buffers shrink from
/// the direct schemes' O(N) to sum(dims_k - 1) + 1 = O(d * N^(1/d)), so
/// per-buffer fill — and with it message occupancy — stops degrading as
/// the process count grows. The price is up to d transport hops per item;
/// the routed stats counters (routed_hop_msgs / routed_forward_msgs /
/// routed_forwarded_items) make that trade measurable.
///
/// Hop accounting under a lossy fabric (cfg.fault, src/fault/): the
/// reliability layer below dedups retransmitted hop batches before they
/// reach on_routed (a replayed batch would otherwise re-bucket its
/// entries twice and double-deliver), and its unacked count extends
/// quiescence detection, so a dropped hop message keeps pending_/QD
/// honest until its retransmit lands. Worker stats count each ship once
/// at ship time; transport-level retransmits appear only in fabric
/// message totals and core::FaultStats.
///
/// Urgent items (insert_priority, cfg.priority_buffer_items > 0) ride a
/// parallel set of small worker-local slots shipped expedited (with the
/// RoutedHeader::kPriority bit set over a mesh): intermediates re-bucket
/// them into their own priority slots and flush them ahead of bulk, so
/// priority traffic overtakes bulk at every hop of the route.
///
/// The message path is zero-copy end to end: inserts encode entries in
/// place into pooled slabs (core::EntryBuffer / core::PpBuffer), a full
/// buffer ships by moving its slab handle into the Message payload, and
/// receivers hand other ranks' segments on as refcounted views of the
/// inbound slab.

#include <array>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/grouping.hpp"
#include "core/pp_buffer.hpp"
#include "core/tram_stats.hpp"
#include "core/wire.hpp"
#include "route/router.hpp"
#include "route/virtual_mesh.hpp"
#include "runtime/machine.hpp"
#include "runtime/message.hpp"
#include "runtime/worker.hpp"
#include "trace/trace.hpp"
#include "util/payload_pool.hpp"
#include "util/timebase.hpp"

namespace tram::core {

/// Sequence for SharedStore keys of PP state. Must be shared across ALL
/// TramDomain<T> instantiations: a function-local static inside the
/// template would give every item type its own counter, making two domains
/// of different item types collide on the same key — and SharedStore would
/// then hand one domain the other's buffers under the wrong type.
inline std::atomic<std::uint64_t> tram_pp_domain_seq{0};

template <typename Item, bool kTrackLatency = false>
  requires std::is_trivially_copyable_v<Item>
class TramDomain {
 public:
  using Entry = WireEntry<Item, kTrackLatency>;
  /// Runs on the destination worker's thread for every delivered item.
  using DeliverFn = std::function<void(rt::Worker&, const Item&)>;

  class Handle;

  TramDomain(rt::Machine& machine, TramConfig cfg, DeliverFn deliver)
      : machine_(machine),
        cfg_(cfg),
        deliver_(std::move(deliver)),
        topo_(machine.topology()),
        router_(make_mesh(topo_.procs(), cfg)),
        mesh_(is_routed(cfg.scheme)),
        per_worker_(cfg.scheme == Scheme::None || cfg.scheme == Scheme::WW),
        shared_(shares_source_buffers(cfg.scheme)),
        sort_at_source_(!per_worker_ &&
                        (mesh_ || cfg.scheme == Scheme::WsP ||
                         topo_.workers_per_proc() == 1)),
        bulk_cap_(cfg.scheme == Scheme::None ? 1 : cfg.buffer_items) {
    if (topo_.workers_per_proc() > kMaxLocalWorkers) {
      throw std::invalid_argument("TramDomain: workers_per_proc exceeds "
                                  "kMaxLocalWorkers");
    }
    // Multi-hop routing makes idle flushing a correctness requirement,
    // not a latency knob: entries re-aggregated at an intermediate after
    // the application mains returned can only leave through the idle
    // hook. A config that disables it would hang quiescence forever on
    // the first partial intermediate buffer, so reject it loudly.
    if (mesh_ && !cfg_.flush_on_idle) {
      throw std::invalid_argument(
          "TramDomain: flush_on_idle=false would strand intermediate-hop "
          "buffers (multi-hop routing requires idle flushing)");
    }
    register_endpoints();
    // Per-process shared PP state (allocated through the process's shared
    // store: PP's cross-worker buffers are process-local shared memory).
    if (shared_) {
      const std::string key =
          "tram_pp_domain_" +
          std::to_string(tram_pp_domain_seq.fetch_add(1));
      pp_states_.resize(static_cast<std::size_t>(topo_.procs()));
      for (ProcId p = 0; p < topo_.procs(); ++p) {
        pp_states_[p] =
            machine.process(p).shared().template get_or_create<PpState>(
                key, [&] {
                  return new PpState(router_, p, cfg_.buffer_items);
                });
      }
    }
    handles_.reserve(static_cast<std::size_t>(topo_.workers()));
    for (WorkerId w = 0; w < topo_.workers(); ++w) {
      handles_.push_back(
          std::unique_ptr<Handle>(new Handle(*this, machine.worker(w))));
    }
    install_hooks();
  }

  TramDomain(const TramDomain&) = delete;
  TramDomain& operator=(const TramDomain&) = delete;

  /// This worker's aggregation handle.
  Handle& on(rt::Worker& w) {
    return *handles_[static_cast<std::size_t>(w.id())];
  }
  Handle& handle(WorkerId w) { return *handles_[static_cast<std::size_t>(w)]; }

  const TramConfig& config() const noexcept { return cfg_; }
  /// The virtual mesh the slots follow (1-D of extent procs for the
  /// direct schemes).
  const route::VirtualMesh& mesh() const noexcept { return router_.mesh(); }
  const route::Router& router() const noexcept { return router_; }
  rt::Machine& machine() noexcept { return machine_; }

  /// Merged stats across all workers (call after machine.run returns).
  WorkerTramStats aggregate_stats() const {
    WorkerTramStats total;
    for (const auto& h : handles_) total.merge(h->stats_);
    return total;
  }
  const WorkerTramStats& worker_stats(WorkerId w) const {
    return handles_[static_cast<std::size_t>(w)]->stats_;
  }

  /// Actual bytes reserved in aggregation buffers, machine-wide (compare
  /// with the section III-C formulas). Counts each buffer a worker ever
  /// populated at its full g — the slab itself cycles through the payload
  /// pool, but the footprint charge matches the paper's model.
  std::uint64_t allocated_buffer_bytes() const {
    const std::uint64_t slab =
        std::uint64_t{cfg_.buffer_items} * sizeof(Entry);
    const std::uint64_t header = mesh_ ? sizeof(RoutedHeader) : 0;
    std::uint64_t total = 0;
    for (const auto& h : handles_) {
      total += h->reserved_buffers_ * (header + slab);
    }
    for (const auto& pp : pp_states_) {
      if (!pp) continue;
      for (const auto& b : pp->buffers) total += b ? slab : 0;
    }
    return total;
  }

  /// Largest number of distinct aggregation buffers any single worker ever
  /// populated — grows with the destination count for the direct schemes
  /// (workers for WW, processes for WPs/WsP; 0 for PP, whose buffers are
  /// process-shared, and None, which keeps none) and is bounded by
  /// sum(dims_k - 1) + 1 over a mesh.
  std::uint64_t max_reserved_buffers() const {
    std::uint64_t m = 0;
    for (const auto& h : handles_) {
      if (h->reserved_buffers_ > m) m = h->reserved_buffers_;
    }
    return m;
  }

  /// Largest number of bytes any single worker ever had pinned in staged
  /// forward runs (sub-views awaiting their slot's next ship). Bounded by
  /// construction — a slot ships as soon as buffered + staged items reach
  /// the slot capacity, asserted at two fills per slot — and surfaced
  /// here so the retention policy is a measurable number, not a hope.
  std::uint64_t max_staged_forward_bytes() const {
    std::uint64_t m = 0;
    for (const auto& h : handles_) {
      if (h->staged_bytes_hwm_ > m) m = h->staged_bytes_hwm_;
    }
    return m;
  }

  /// Zero all counters between benchmark trials (machine must be idle).
  void reset_stats() {
    for (auto& h : handles_) {
      h->stats_ = WorkerTramStats{};
      // Re-arm the staged-forward high-water so each trial reports its
      // own retention peak (idle machine => staged_bytes_ is 0).
      h->staged_bytes_hwm_ = h->staged_bytes_;
    }
  }

 private:
  friend class Handle;

  /// Shared source-side buffers for the PP scheme: one PpBuffer per slot
  /// the process's items can take (one per destination process), plus
  /// the process's pending-item count.
  struct PpState {
    PpState(const route::Router& router, ProcId here, std::uint32_t g) {
      buffers.resize(static_cast<std::size_t>(router.slots()));
      for (ProcId dst = 0; dst < router.mesh().procs(); ++dst) {
        const auto slot = router.route(here, dst).slot;
        auto& b = buffers[static_cast<std::size_t>(slot)];
        if (!b) b = std::make_unique<PpBuffer<Entry>>(g);
      }
    }
    std::vector<std::unique_ptr<PpBuffer<Entry>>> buffers;
    std::atomic<std::uint64_t> pending{0};
  };

  static route::VirtualMesh make_mesh(int procs, const TramConfig& cfg) {
    const int d = mesh_ndims(cfg.scheme);
    // The direct schemes: one mesh coordinate per process.
    if (d == 0) return route::VirtualMesh::auto_factor(procs, 1);
    if (cfg.route_dims[0] != 0) {
      // Extents beyond the scheme's dimensionality are a mismatched
      // --scheme/--route-dims pair; truncating would silently run the
      // wrong topology.
      for (std::size_t k = static_cast<std::size_t>(d);
           k < cfg.route_dims.size(); ++k) {
        if (cfg.route_dims[k] != 0) {
          throw std::invalid_argument(
              "TramDomain: route_dims has more extents than the scheme "
              "has mesh dimensions");
        }
      }
      return route::VirtualMesh(
          procs, std::span<const int>(cfg.route_dims.data(),
                                      static_cast<std::size_t>(d)));
    }
    return route::VirtualMesh::auto_factor(procs, d);
  }

  void register_endpoints() {
    // Hop delivery: a process-addressed batch lands on some worker of
    // the hop process, which delivers finals and re-buckets the rest.
    ep_routed_ = machine_.register_endpoint(
        [this](rt::Worker& w, rt::Message&& m) {
          handle(w.id()).on_routed(w, m);
        });
    // Final-hop delivery: a batch addressed to one specific worker.
    // (decode_payload aborts on a truncated payload in every build mode.)
    ep_final_ = machine_.register_endpoint(
        [this](rt::Worker& w, rt::Message&& m) {
          handle(w.id()).deliver_batch(w, rt::decode_payload<Entry>(m));
        });
  }

  void install_hooks() {
    for (WorkerId w = 0; w < topo_.workers(); ++w) {
      Handle* h = handles_[static_cast<std::size_t>(w)].get();
      rt::Worker& worker = machine_.worker(w);
      worker.add_pending_counter([h] {
        return h->pending_.load(std::memory_order_acquire);
      });
      if (shared_ && topo_.local_rank(w) == 0) {
        PpState* pp = pp_states_[topo_.proc_of_worker(w)].get();
        worker.add_pending_counter([pp] {
          return pp->pending.load(std::memory_order_acquire);
        });
      }
      // Always on over a mesh (the constructor rejected
      // flush_on_idle=false): intermediate buffers drain through here.
      if (cfg_.flush_on_idle && cfg_.scheme != Scheme::None) {
        worker.add_idle_hook([h](rt::Worker&) { h->flush_all(); });
      }
    }
  }

  rt::Machine& machine_;
  TramConfig cfg_;
  DeliverFn deliver_;
  util::Topology topo_;
  route::Router router_;
  // The scheme's slot layout (internal: derived from cfg_ and topo_).
  /// Two or more mesh dimensions: ships carry a RoutedHeader and may take
  /// several hops. Every other layout ships final and headerless.
  const bool mesh_;
  /// None/WW: one slot per destination worker, shipped to ep_final_.
  const bool per_worker_;
  /// PP: bulk slots are process-shared PpBuffers (PpState).
  const bool shared_;
  /// Final ships leave grouped by destination local rank, so the
  /// receiver scatters instead of regrouping (meshes, WsP, and anything
  /// bound for single-worker processes).
  const bool sort_at_source_;
  /// Items per bulk slot: g, or 1 for None.
  const std::uint32_t bulk_cap_;
  EndpointId ep_routed_ = -1;
  EndpointId ep_final_ = -1;
  std::vector<std::shared_ptr<PpState>> pp_states_;
  std::vector<std::unique_ptr<Handle>> handles_;

 public:
  /// Per-worker aggregation endpoint. Obtain via TramDomain::on(worker);
  /// insert/flush_all must be called from the owning worker's thread.
  class Handle {
   public:
    /// Aggregate one item toward the given destination worker (over a
    /// mesh it arrives after up to mesh().ndims() hops).
    void insert(WorkerId dest, const Item& item) {
      ++stats_.items_inserted;
      const Entry e = make_entry(dest, item);
      const int slot = slot_of(dest);
      if (domain_->shared_) {
        insert_shared(slot, e);
      } else {
        push_entry(slot, e, /*hop=*/1, /*pri=*/false);
      }
    }

    /// Aggregate an urgent item (the paper's future-work prioritization).
    /// Rides a second set of worker-local slots sized
    /// cfg.priority_buffer_items (even under PP: sharing would
    /// reintroduce the very latency the priority path removes): small
    /// buffers fill (and ship) quickly, the messages are expedited, and
    /// over a mesh the RoutedHeader carries a priority bit so every
    /// intermediate re-buckets the entries into its own priority slots
    /// and flushes them ahead of bulk. Falls back to insert() when
    /// priority buffering is not configured.
    void insert_priority(WorkerId dest, const Item& item) {
      if (pri_.bufs.empty()) {
        insert(dest, item);
        return;
      }
      ++stats_.items_inserted;
      ++stats_.priority_items;
      push_entry(slot_of(dest), make_entry(dest, item), /*hop=*/1,
                 /*pri=*/true);
    }

    /// Ship every partially filled buffer ("flush accumulated items").
    /// Idle workers call this automatically when flush_on_idle is set;
    /// intermediate buffers drain the same way. Priority slots flush
    /// first so urgent stragglers leave ahead of bulk at this hop too.
    void flush_all() {
      const std::uint64_t shipped0 = stats_.msgs_shipped;
      for (const bool pri : {true, false}) {
        const SlotSet& set = slots(pri);
        for (int slot = 0; slot < static_cast<int>(set.bufs.size());
             ++slot) {
          const auto s = static_cast<std::size_t>(slot);
          if (!set.bufs[s].empty() || set.staged[s] != 0) {
            ship_slot(slot, /*from_flush=*/true, pri);
          }
        }
      }
      if (domain_->shared_) flush_shared();
      if (stats_.msgs_shipped > shipped0) {
        trace::instant(trace::Cat::kRoute, trace::kFlushIdle,
                       stats_.msgs_shipped - shipped0);
      }
    }

    const WorkerTramStats& stats() const noexcept { return stats_; }
    /// Items currently buffered at this worker (source or intermediate;
    /// excludes PP shared state).
    std::uint64_t pending() const noexcept {
      return pending_.load(std::memory_order_acquire);
    }

   private:
    friend class TramDomain;

    /// A forwarded run staged for a slot's next ship: a refcounted
    /// sub-view of the slab the entries already live in (inbound extent
    /// or re-bucket scratch). Ships as an extra payload extent.
    struct PendingRun {
      util::PayloadRef bytes;
      std::uint32_t count = 0;
    };

    /// One set of slots: the buffers, each slot's pending hop ordinal
    /// (max over the entries currently in the slot's buffer of the hop
    /// their next ship will be), its staged forward runs, and the items
    /// in those runs (kept alongside so the ship threshold check is O(1)).
    struct SlotSet {
      std::vector<EntryBuffer<Entry>> bufs;
      std::vector<std::uint8_t> hop;
      std::vector<std::vector<PendingRun>> runs;
      std::vector<std::uint32_t> staged;
    };

    Handle(TramDomain& d, rt::Worker& self)
        : domain_(&d),
          self_(&self),
          self_proc_(d.topo_.proc_of_worker(self.id())),
          wpp_(d.topo_.workers_per_proc()),
          row_(d.router_.row(d.topo_.proc_of_worker(self.id()))) {
      const auto n = static_cast<std::size_t>(
          d.per_worker_ ? d.topo_.workers() : d.router_.slots());
      // PP's bulk slots live in the process-shared PpState.
      init_slots(bulk_, d.shared_ ? 0 : n);
      // None keeps no buffers: its one-item slots never count as reserved.
      slot_counted_.assign(bulk_.bufs.size(), d.cfg_.scheme == Scheme::None);
      if (d.cfg_.priority_buffer_items > 0 &&
          d.cfg_.scheme != Scheme::None) {
        // Priority slots mirror the bulk slot layout so the same Route
        // record indexes both: urgent entries re-aggregate per dimension
        // exactly like bulk, just through smaller, expedited buffers.
        init_slots(pri_, n);
      }
    }

    void init_slots(SlotSet& set, std::size_t n) {
      set.bufs.resize(n);
      for (std::size_t s = 0; s < n; ++s) {
        set.bufs[s].set_header_bytes(header_bytes(static_cast<int>(s)));
      }
      set.hop.assign(n, 0);
      set.runs.resize(n);
      set.staged.assign(n, 0);
    }

    SlotSet& slots(bool pri) noexcept { return pri ? pri_ : bulk_; }
    const SlotSet& slots(bool pri) const noexcept {
      return pri ? pri_ : bulk_;
    }

    static Entry make_entry(WorkerId dest, const Item& item) {
      Entry e{.dest = dest, .item = item};
      if constexpr (kTrackLatency) e.birth.ns = util::now_ns();
      return e;
    }

    /// The slot a fresh item for `dest` aggregates in.
    int slot_of(WorkerId dest) const noexcept {
      return domain_->per_worker_ ? dest : row_[proc_of(dest)].slot;
    }

    /// True when the slot's ships leave sorted by destination local rank
    /// (RoutedHeader::kSortedMagic over a mesh): every entry in it
    /// terminates at the ship target, and the layout sorts at the source.
    bool sorts(int slot) const noexcept {
      return domain_->sort_at_source_ && domain_->router_.ships_final(slot);
    }

    /// A slot whose ship is the in-place permuted sorted form (nontrivial
    /// local grouping). Such a slot's outgoing slab is rank-permuted at
    /// ship time behind a SegmentHeader, so forward runs cannot be staged
    /// on it as extents — they are the one remaining copy-in path.
    bool sorted_slot(int slot) const noexcept {
      return wpp_ > 1 && sorts(slot);
    }

    /// Header space a slot's slab reserves: the RoutedHeader over a mesh,
    /// then the per-rank counts of a permuted sorted ship.
    std::uint32_t header_bytes(int slot) const noexcept {
      return (domain_->mesh_ ? sizeof(RoutedHeader) : 0) +
             (sorted_slot(slot) ? sizeof(SegmentHeader) : 0);
    }

    /// Items per slot fill; a configured 0 ships every item.
    std::uint32_t fill_of(bool pri) const noexcept {
      const std::uint32_t c =
          pri ? domain_->cfg_.priority_buffer_items : domain_->bulk_cap_;
      return c == 0 ? 1 : c;
    }

    /// workers_per_proc == 1 (non-SMP) is the common bench shape; skip
    /// the integer division on the per-entry paths.
    ProcId proc_of(WorkerId w) const noexcept {
      return wpp_ == 1 ? w : w / wpp_;
    }
    LocalWorkerId rank_of(WorkerId w) const noexcept {
      return wpp_ == 1 ? 0 : w % wpp_;
    }

    /// Bucket an entry into its slot's buffer (priority entries into the
    /// parallel priority slot); ship on fill. `hop` is the ordinal this
    /// entry's *next* ship will be (1 off the source, inbound hop + 1 off
    /// an intermediate).
    void push_entry(int slot, const Entry& e, std::uint8_t hop, bool pri) {
      const std::uint32_t cap = fill_of(pri);
      const auto s = static_cast<std::size_t>(slot);
      SlotSet& set = slots(pri);
      auto& buf = set.bufs[s];
      note_slot_used(s, pri);
      buf.push(e, cap);
      if (hop > set.hop[s]) set.hop[s] = hop;
      add_pending(1);
      if (buf.size() + set.staged[s] >= cap) {
        ship_slot(slot, /*from_flush=*/false, pri);
      }
    }

    /// Priority slots stay out of the live-buffer metric: the bound being
    /// measured is the bulk footprint the section III-C formulas charge.
    /// Counted on first use whether the slot first sees a pushed entry or
    /// a staged sub-view run.
    void note_slot_used(std::size_t s, bool pri) {
      if (pri || slot_counted_[s]) return;
      slot_counted_[s] = true;
      ++reserved_buffers_;
      // Every increment IS a new high-water mark (the count never drops
      // within a run) — the trace shows when the footprint grew.
      trace::instant(trace::Cat::kRoute, trace::kBufferHighWater,
                     reserved_buffers_, static_cast<std::uint32_t>(s));
    }

    /// PP insert: claim a slot of the process-shared buffer; the claimer
    /// whose write fills it ships the sealed slab.
    void insert_shared(int slot, const Entry& e) {
      auto* pp = domain_->pp_states_[self_proc_].get();
      pp->pending.fetch_add(1, std::memory_order_release);
      auto sealed = pp->buffers[static_cast<std::size_t>(slot)]->insert(
          e, stats_.pp_cas_retries);
      if (sealed) ship_shared(slot, std::move(*sealed), /*from_flush=*/false);
    }

    void flush_shared() {
      auto* pp = domain_->pp_states_[self_proc_].get();
      for (int slot = 0; slot < static_cast<int>(pp->buffers.size());
           ++slot) {
        auto& b = pp->buffers[static_cast<std::size_t>(slot)];
        if (!b) continue;
        auto partial = b->flush();
        if (partial && !partial->empty()) {
          ship_shared(slot, std::move(*partial), /*from_flush=*/true);
        }
      }
    }

    /// PP ship: the sealed/flushed shared slab, handed off as-is.
    void ship_shared(int slot, util::PooledBatch<Entry>&& batch,
                     bool from_flush) {
      auto& d = *domain_;
      const std::size_t n = batch.size();
      rt::Message m;
      m.src_worker = self_->id();
      m.expedited = d.cfg_.expedited;
      m.payload = std::move(batch).take_ref();
      account_ship(n, from_flush, /*pri=*/false);
      send_slot(slot, std::move(m));
      d.pp_states_[self_proc_]->pending.fetch_sub(
          n, std::memory_order_release);
    }

    /// Stage a forwarded run on a slot as a refcounted sub-view (of the
    /// inbound slab or of the re-bucket scratch): zero bytes move now;
    /// the run ships as an extra payload extent of the slot's next
    /// message. Only for non-sorted_slot() slots — a permuted sorted
    /// ship has no extent channel.
    void stage_run(int slot, util::PayloadRef run, std::uint32_t n,
                   std::uint8_t hop, bool pri) {
      assert(!sorted_slot(slot));
      const std::uint32_t cap = fill_of(pri);
      const auto s = static_cast<std::size_t>(slot);
      SlotSet& set = slots(pri);
      auto& buf = set.bufs[s];
      auto& staged = set.staged[s];
      note_slot_used(s, pri);
      add_pending(n);
      // Stage at most cap entries per pending run, shipping on every
      // fill. An inbound extent usually fits one fill, but the
      // reliability layer flattens a multi-extent ship into one framed
      // slab, so a re-framed extent can span several fills — chunking
      // (free: the chunks are sub-views of the same slab) keeps the
      // retention bound below independent of the transport stack.
      std::uint32_t off = 0;
      while (n > 0) {
        const std::uint32_t k = n < cap ? n : cap;
        set.runs[s].push_back(PendingRun{
            run.subref(std::size_t{off} * sizeof(Entry),
                       std::size_t{k} * sizeof(Entry)),
            k});
        staged += k;
        // Retention bound: chunks are at most one fill (cap), and a slot
        // ships as soon as buffered + staged reaches cap, so the staged
        // backlog can never exceed two fills. A violation means a ship
        // was skipped and sub-view slabs are accumulating silently.
        assert(staged <= 2 * cap &&
               "staged forward runs exceed the two-fill retention bound");
        staged_bytes_ += std::uint64_t{k} * sizeof(Entry);
        if (staged_bytes_ > staged_bytes_hwm_) {
          staged_bytes_hwm_ = staged_bytes_;
          stats_.max_staged_fwd_bytes = staged_bytes_;
        }
        if (hop > set.hop[s]) set.hop[s] = hop;
        off += k;
        n -= k;
        if (buf.size() + staged >= cap) {
          ship_slot(slot, /*from_flush=*/false, pri);
        }
      }
    }

    /// Append a contiguous run into a slot's buffer by copy, shipping
    /// every time it fills. After the zero-copy forward path this only
    /// serves sorted_slot() slots (the in-place permuted ship owns its
    /// whole slab); every byte through here lands in
    /// routed_forward_copy_bytes at the caller.
    void append_run(int slot, const Entry* src, std::uint32_t n,
                    std::uint8_t hop, bool pri) {
      const std::uint32_t cap = fill_of(pri);
      const auto s = static_cast<std::size_t>(slot);
      SlotSet& set = slots(pri);
      auto& buf = set.bufs[s];
      note_slot_used(s, pri);
      add_pending(n);
      while (n > 0) {
        const std::uint32_t room = cap - buf.size();
        const std::uint32_t k = n < room ? n : room;
        // Re-raise after every ship: ship_slot resets the slot's hop.
        if (hop > set.hop[s]) set.hop[s] = hop;
        buf.append(src, k, cap);
        src += k;
        n -= k;
        if (buf.size() >= cap) ship_slot(slot, /*from_flush=*/false, pri);
      }
    }

    /// Ship a slot's buffer (plus any staged forward runs). A
    /// sorted_slot() ships its own slab in-place permuted by destination
    /// local rank behind the SegmentHeader of per-rank counts, so sorting
    /// copies nothing into a fresh slab. Over a mesh every other slot
    /// ships its slab behind the plain RoutedHeader with staged runs
    /// attached as extra payload extents; when only
    /// staged runs exist, extent 0 degenerates to a pooled 8-byte header
    /// block. In all cases the handles move — ship copies nothing.
    void ship_slot(int slot, bool from_flush, bool pri) {
      auto& d = *domain_;
      const auto s = static_cast<std::size_t>(slot);
      SlotSet& set = slots(pri);
      auto& buf = set.bufs[s];
      auto& runs = set.runs[s];
      auto& staged = set.staged[s];
      const std::size_t n = buf.size() + staged;
      if (n == 0) return;
      const std::uint8_t hop = set.hop[s];
      const bool sorted = sorts(slot);

      RoutedHeader hdr;
      if (d.mesh_) {
        hdr.magic = sorted ? RoutedHeader::kSortedMagic : RoutedHeader::kMagic;
        hdr.dim = static_cast<std::uint16_t>(d.router_.dim_of_slot(slot));
        hdr.hop = hop;
        hdr.flags = pri ? RoutedHeader::kPriority : 0;
      }

      rt::Message m;
      m.src_worker = self_->id();
      // Priority batches are always expedited, whatever the bulk policy:
      // expedited dispatch is what lets them overtake bulk in every
      // inbox along the route.
      m.expedited = pri || d.cfg_.expedited;
      m.hops = static_cast<std::uint8_t>(hop - 1);

      if (buf.empty()) {
        // Nothing but staged runs (mesh only): a header-only extent 0
        // carries the routing metadata (cheaper than copying the first
        // run behind a header, and the slot's idle slab stays put).
        m.payload = util::PayloadPool::global().acquire(sizeof hdr);
        std::memcpy(m.payload.data(), &hdr, sizeof hdr);
      } else {
        std::byte* header = buf.header();
        if (d.mesh_) {
          std::memcpy(header, &hdr, sizeof hdr);
          header += sizeof hdr;
        }
        if (sorted_slot(slot)) {
          // Permute the slot's own slab into rank-grouped order; the
          // header space was reserved at construction. Forward runs are
          // never staged here (see stage_run), so the slab is the whole
          // message.
          assert(runs.empty() && staged == 0);
          SegmentHeader seg;
          permute_sort_segments(
              buf.data(), n, wpp_,
              [this](WorkerId dw) { return rank_of(dw); }, seg);
          std::memcpy(header, &seg, sizeof seg);
        }
        m.payload = buf.take();
      }
      if (!runs.empty()) {
        m.extras.reserve(runs.size());
        for (auto& r : runs) m.extras.push_back(std::move(r.bytes));
        runs.clear();
        staged_bytes_ -= std::uint64_t{staged} * sizeof(Entry);
        staged = 0;
      }

      account_ship(n, from_flush, pri);
      if (d.mesh_) {
        ++stats_.routed_hop_msgs;
        if (sorted) ++stats_.routed_sorted_msgs;
        if (hop > 1) ++stats_.routed_forward_msgs;
      }
      set.hop[s] = 0;
      // a1 packs the slot with what kind of ship this was: bit 16 pri,
      // 17 flush, 18 sorted fast path; hop in bits 24+.
      trace::instant(trace::Cat::kRoute, trace::kShip, n,
                     static_cast<std::uint32_t>(s) |
                         (pri ? 1u << 16 : 0) | (from_flush ? 1u << 17 : 0) |
                         (sorted ? 1u << 18 : 0) |
                         (static_cast<std::uint32_t>(hop) << 24));
      send_slot(slot, std::move(m));
      sub_pending(n);
    }

    /// pending_ has one writer (see its declaration), so an update is a
    /// plain load and release store, not a locked read-modify-write.
    void add_pending(std::uint64_t n) noexcept {
      pending_.store(pending_.load(std::memory_order_relaxed) + n,
                     std::memory_order_release);
    }
    void sub_pending(std::uint64_t n) noexcept {
      pending_.store(pending_.load(std::memory_order_relaxed) - n,
                     std::memory_order_release);
    }

    void account_ship(std::size_t n, bool from_flush, bool pri) {
      ++stats_.msgs_shipped;
      if (pri) ++stats_.priority_msgs;
      if (from_flush) ++stats_.flush_msgs;
      stats_.occupancy_at_ship.add(static_cast<double>(n));
    }

    /// A per-worker slot ships straight to its destination worker; every
    /// other slot ships to its next-hop process.
    void send_slot(int slot, rt::Message&& m) {
      auto& d = *domain_;
      if (d.per_worker_) {
        m.endpoint = d.ep_final_;
        m.dst_worker = slot;
        self_->send(std::move(m));
      } else {
        m.endpoint = d.ep_routed_;
        self_->send_to_proc(d.router_.ship_target(self_proc_, slot),
                            std::move(m));
      }
    }

    /// Mesh-only counter of segments handed off as slab views.
    void note_subview() {
      if (domain_->mesh_) ++stats_.routed_subview_deliveries;
    }

    /// The prefix of an inbound process-addressed message. Mesh ships
    /// carry a RoutedHeader; a direct-scheme ship is always the last hop,
    /// so its shape follows from the layout, and it carries at most the
    /// SegmentHeader of a permuted sorted ship.
    RoutedWire wire_of(std::span<const std::byte> bytes) const {
      if (domain_->mesh_) return parse_routed_header(bytes, wpp_);
      RoutedWire wire;
      wire.sorted = domain_->sort_at_source_;
      wire.header_bytes = wire.sorted && wpp_ > 1 ? sizeof(SegmentHeader) : 0;
      return wire;
    }

    /// A process-addressed batch arrived at this process. Each payload
    /// extent is an independent entry array under the shared header: a
    /// pre-sorted last-hop batch scatters as refcounted sub-views; an
    /// unsorted extent is classified once and its runs delivered /
    /// re-staged as sub-views (or counting-sorted into scratch when it
    /// mixes buckets).
    void on_routed(rt::Worker& w, const rt::Message& msg) {
      const std::span<const std::byte> bytes = msg.payload.span();
      const RoutedWire wire = wire_of(bytes);
      const auto entries =
          rt::decode_payload<Entry>(bytes.subspan(wire.header_bytes));
      if (wire.sorted) {
        if (wpp_ == 1) {
          // Trivial grouping: every extent is our segment, whole.
          note_subview();
          deliver_batch(w, entries);
          for (const auto& ex : msg.extras) {
            note_subview();
            deliver_batch(w, rt::decode_payload<Entry>(ex.span()));
          }
          return;
        }
        // The in-place permuted SMP ship owns its whole slab; it never
        // carries extents (stage_run refuses sorted slots).
        assert(msg.extras.empty());
        scatter_sorted(w, msg, wire, entries);
        trace::instant(trace::Cat::kRoute, trace::kScatterSorted,
                       entries.size());
      } else {
        const std::uint64_t t0 = trace::maybe_now();
        rebucket_message(w, wire, msg, entries);
        trace::complete(trace::Cat::kRoute, trace::kRebucket, t0,
                        entries.size(), wire.hdr.hop);
      }
    }

    /// Hand a segment of finals to another local rank as a refcounted
    /// view of the slab it already lives in (at the inbound batch's
    /// urgency).
    void regroup(rt::Worker& w, const rt::Message& msg, int rank,
                 util::PayloadRef view) {
      auto& d = *domain_;
      rt::Message m;
      m.endpoint = d.ep_final_;
      m.dst_worker = d.topo_.worker_at(self_proc_, rank);
      m.src_worker = w.id();
      m.expedited = msg.expedited;
      m.payload = std::move(view);
      ++stats_.regroup_msgs;
      w.send(std::move(m));
    }

    /// Sorted last-hop delivery (wpp_ > 1): every entry terminates at
    /// this process and arrives grouped by destination local rank —
    /// deliver our own segment in place, forward each other rank's as a
    /// refcounted sub-view of the inbound slab (the slab recycles when
    /// the last segment drops).
    void scatter_sorted(rt::Worker& w, const rt::Message& msg,
                        const RoutedWire& wire,
                        std::span<const Entry> entries) {
      SegmentHeader seg;
      std::memcpy(&seg,
                  msg.payload.data() + wire.header_bytes - sizeof seg,
                  sizeof seg);
      const LocalWorkerId own = rank_of(w.id());
      std::size_t offset = 0;
      for (int r = 0; r < wpp_; ++r) {
        const std::uint32_t count = seg.counts[r];
        if (count == 0) continue;
        if (offset + count > entries.size()) {
          std::fprintf(stderr,
                       "sorted message: segment counts overflow the "
                       "payload (%zu entries)\n",
                       entries.size());
          std::abort();
        }
        const auto segment = entries.subspan(offset, count);
        const std::size_t seg_bytes_off =
            wire.header_bytes + offset * sizeof(Entry);
        offset += count;
        note_subview();
        if (r == own) {
          deliver_batch(w, segment);
        } else {
          regroup(w, msg, r,
                  msg.payload.subref(seg_bytes_off, count * sizeof(Entry)));
        }
      }
      // Counts summing short of the payload would silently drop the tail
      // — the mirror image of the overflow aborted above, and the same
      // wire-corruption class.
      if (offset != entries.size()) {
        std::fprintf(stderr,
                     "sorted message: segment counts cover %zu of %zu "
                     "entries\n",
                     offset, entries.size());
        std::abort();
      }
    }

    /// Unsorted message: classify every entry of every extent by (final
    /// local rank | next-hop slot) in ONE pass, then move whole runs. A
    /// single-bucket extent — a relay stream whose batch shares one next
    /// hop — never copies: it is delivered in place or re-staged as a
    /// sub-view of the *inbound* slab and rides the next ship as an extra
    /// payload extent. Mixed extents pay exactly one copy, the rebucket
    /// scatter, aimed directly at its final resting place (next-hop slot
    /// buffers for forwards, a regroup scratch for other-rank finals).
    /// Processing the extents together keeps the per-batch amortization:
    /// an intermediate hop can receive several extents per message, and
    /// rebucketing each separately would pay the classify/scratch fixed
    /// costs per extent. For the direct schemes (WPs, PP) every entry is
    /// a final, so this is the destination-side regroup of the paper's
    /// Fig. 5.
    void rebucket_message(rt::Worker& w, const RoutedWire& wire,
                          const rt::Message& msg,
                          std::span<const Entry> entries) {
      const RoutedHeader& hdr = wire.hdr;
      const bool pri = hdr.priority();
      const LocalWorkerId own = rank_of(w.id());
      const auto next_ord = static_cast<std::uint8_t>(hdr.hop + 1);
      const std::size_t nbuckets =
          static_cast<std::size_t>(wpp_) + bulk_.bufs.size();
      constexpr std::uint32_t kMixed = UINT32_MAX;

      extents_.clear();
      if (!entries.empty()) {
        extents_.push_back(
            ExtentView{entries, &msg.payload, wire.header_bytes, 0, 0});
      }
      for (const auto& ex : msg.extras) {
        const auto es = rt::decode_payload<Entry>(ex.span());
        if (!es.empty()) extents_.push_back(ExtentView{es, &ex, 0, 0, 0});
      }
      if (extents_.empty()) return;
      std::size_t total = 0;
      for (const auto& ext : extents_) total += ext.entries.size();

      // Pass 1 over every extent at once: shared bucket counts, the
      // per-entry bucket index, and per-extent single-bucket detection —
      // finals bucket to their local rank, forwards to wpp_ + next-hop
      // slot (one table load each).
      bucket_counts_.assign(nbuckets, 0);
      bucket_cursor_.resize(total);  // per-entry bucket, across extents
      std::size_t ci = 0;
      for (auto& ext : extents_) {
        ext.cursor_off = ci;
        std::uint32_t first = kMixed;
        bool mixed = false;
        for (const Entry& e : ext.entries) {
          const ProcId dst_proc = proc_of(e.dest);
          std::uint32_t b;
          if (dst_proc == self_proc_) {
            b = static_cast<std::uint32_t>(rank_of(e.dest));
          } else {
            const route::Router::Route& r = row_[dst_proc];
            // Dimension-ordered: the hop that carried this entry here
            // matched its coordinate in hdr.dim, so the next mismatch is
            // strictly higher — a cycle would mean wire corruption.
            assert(r.dim > static_cast<std::int16_t>(hdr.dim) &&
                   "routed entry does not advance dimension order");
            b = static_cast<std::uint32_t>(wpp_) +
                static_cast<std::uint32_t>(r.slot);
          }
          bucket_cursor_[ci++] = b;
          bucket_counts_[b]++;
          if (first == kMixed) {
            first = b;
          } else if (b != first) {
            mixed = true;
          }
        }
        ext.only = mixed ? kMixed : first;
      }

      // Single-bucket extents move whole, as sub-views of the inbound
      // slab they arrived in; their counts leave the shared totals so
      // the scratch below covers exactly the mixed remainder.
      std::size_t mixed_total = total;
      for (const auto& ext : extents_) {
        if (ext.only == kMixed) continue;
        const std::size_t n = ext.entries.size();
        const auto count = static_cast<std::uint32_t>(n);
        mixed_total -= n;
        bucket_counts_[ext.only] -= count;
        const std::size_t only = ext.only;
        if (only < static_cast<std::size_t>(wpp_)) {
          note_subview();
          if (static_cast<LocalWorkerId>(only) == own) {
            deliver_batch(w, ext.entries);
          } else {
            regroup(w, msg, static_cast<int>(only),
                    ext.slab->subref(ext.base_off, n * sizeof(Entry)));
          }
        } else {
          const int slot = static_cast<int>(only) - wpp_;
          stats_.routed_forwarded_items += count;
          if (sorted_slot(slot)) {
            stats_.routed_forward_copy_bytes += n * sizeof(Entry);
            append_run(slot, ext.entries.data(), count, next_ord, pri);
          } else {
            stats_.routed_forward_subview_bytes += n * sizeof(Entry);
            stage_run(slot,
                      ext.slab->subref(ext.base_off, n * sizeof(Entry)),
                      count, next_ord, pri);
          }
        }
      }
      if (mixed_total == 0) return;
      if (domain_->mesh_) {
        stats_.routed_rebucket_copy_bytes +=
            std::uint64_t{mixed_total} * sizeof(Entry);
      }

      // Pass 2. Mixed entries pay exactly one copy — the rebucket
      // scatter — and its destination is chosen so no second copy ever
      // follows: forwards scatter STRAIGHT into their next-hop slot's
      // buffer (the scatter doubles as the append, and the slot still
      // ships one contiguous extent by moving its slab); finals bound
      // for other local ranks scatter into a scratch slab sized to just
      // them, so each regroup ships as a refcounted sub-view. An earlier
      // iteration scattered everything into scratch and staged forward
      // runs as sub-view extras — zero additional copies on paper, but
      // the per-extent handle churn and fragmented downstream extents
      // cost more than the one memcpy it saved. Sub-view forwarding
      // stays for single-bucket extents (above), where it genuinely
      // replaces a copy with a handle move.
      std::uint32_t finals_total = 0;
      for (std::size_t b = 0; b < static_cast<std::size_t>(wpp_); ++b) {
        finals_total += bucket_counts_[b];
      }
      bucket_starts_.resize(static_cast<std::size_t>(wpp_));
      std::uint32_t acc = 0;
      for (std::size_t b = 0; b < static_cast<std::size_t>(wpp_); ++b) {
        bucket_starts_[b] = acc;
        acc += bucket_counts_[b];
      }
      util::PayloadRef scratch;
      Entry* fin = nullptr;
      if (finals_total != 0) {
        scratch = util::PayloadPool::global().acquire(
            std::size_t{finals_total} * sizeof(Entry));
        fin = reinterpret_cast<Entry*>(scratch.data());
      }

      // Per-slot bookkeeping hoisted out of the per-entry loop: sticky
      // buffer accounting, the forwarded-items stat, and the pending_
      // credit (one bulk add instead of one per entry; ship_slot
      // debits as slots drain during the scatter).
      const std::uint64_t fwd_mixed =
          std::uint64_t{mixed_total} - finals_total;
      if (fwd_mixed != 0) add_pending(fwd_mixed);
      for (std::size_t b = static_cast<std::size_t>(wpp_); b < nbuckets;
           ++b) {
        if (bucket_counts_[b] == 0) continue;
        note_slot_used(b - static_cast<std::size_t>(wpp_), pri);
        stats_.routed_forwarded_items += bucket_counts_[b];
      }
      const std::uint32_t cap = fill_of(pri);
      SlotSet& fwd = slots(pri);
      for (const auto& ext : extents_) {
        if (ext.only != kMixed) continue;
        const std::size_t n = ext.entries.size();
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t b = bucket_cursor_[ext.cursor_off + i];
          const Entry& e = ext.entries[i];
          if (b < static_cast<std::uint32_t>(wpp_)) {
            fin[bucket_starts_[b]++] = e;
            continue;
          }
          const auto s = static_cast<std::size_t>(b - wpp_);
          auto& buf = fwd.bufs[s];
          buf.push(e, cap);
          // Re-raise after every ship: ship_slot resets the slot's hop.
          if (next_ord > fwd.hop[s]) fwd.hop[s] = next_ord;
          if (buf.size() + fwd.staged[s] >= cap) {
            ship_slot(static_cast<int>(s), /*from_flush=*/false, pri);
          }
        }
      }

      // Finals: one batched delivery for our own rank, sub-views of the
      // scratch slab for the rest. A run's start is recovered as
      // cursor - count (bucket_starts_ walked forward in the scatter).
      for (int r = 0; r < wpp_; ++r) {
        const std::uint32_t count =
            bucket_counts_[static_cast<std::size_t>(r)];
        if (count == 0) continue;
        const std::uint32_t start =
            bucket_starts_[static_cast<std::size_t>(r)] - count;
        // Count every segment handed off as a slab view (mirrors
        // scatter_sorted, so the SMP metric is path-independent).
        note_subview();
        if (r == own) {
          deliver_batch(w, std::span<const Entry>(fin + start, count));
        } else {
          regroup(w, msg, r,
                  scratch.subref(start * sizeof(Entry),
                                 count * sizeof(Entry)));
        }
      }
    }

    /// Final-hop delivery on the destination worker.
    void deliver_batch(rt::Worker& w, std::span<const Entry> entries) {
      auto& d = *domain_;
      for (const Entry& e : entries) {
        if (e.dest != w.id()) {
          std::fprintf(stderr,
                       "TRAM misroute: entry dest=%d delivered on "
                       "worker=%d (scheme=%s, mesh=%s)\n",
                       e.dest, w.id(), to_string(d.cfg_.scheme),
                       d.mesh().to_string().c_str());
          std::abort();
        }
        if constexpr (kTrackLatency) {
          stats_.latency.add(util::now_ns() - e.birth.ns);
        }
        ++stats_.items_delivered;
        d.deliver_(w, e.item);
      }
    }

    TramDomain* domain_;
    rt::Worker* self_;
    ProcId self_proc_;
    int wpp_;  ///< workers per process, cached off the hot paths
    /// This process's row of the Router's precomputed table: the
    /// per-entry routing decision is row_[dst_proc], one indexed load.
    const route::Router::Route* row_;
    /// The bulk slots, and the priority slots mirroring their layout
    /// (sized only when cfg.priority_buffer_items > 0; insert_priority
    /// falls back to the bulk path otherwise).
    SlotSet bulk_;
    SlotSet pri_;
    /// One sticky flag per bulk slot for the reserved_buffers_ metric (a
    /// slot that only ever stages forward runs never acquires a slab, so
    /// the buffer itself cannot tell).
    std::vector<bool> slot_counted_;
    /// Bytes currently pinned by staged forward runs, and the worst case
    /// ever seen — the retention high-water mark max_staged_forward_bytes
    /// reports (max_reserved_buffers-style visibility for the sub-view
    /// backlog, which would otherwise grow silently).
    std::uint64_t staged_bytes_ = 0;
    std::uint64_t staged_bytes_hwm_ = 0;
    /// One inbound payload extent under rebucket_message: its decoded
    /// entries, the slab they live in (for sub-view staging), the byte
    /// offset of the entries within that slab, this extent's start in
    /// bucket_cursor_, and its sole bucket (UINT32_MAX when mixed).
    struct ExtentView {
      std::span<const Entry> entries;
      const util::PayloadRef* slab;
      std::size_t base_off;
      std::size_t cursor_off;
      std::uint32_t only;
    };
    /// rebucket_message scratch, reused across inbound batches (safe:
    /// handlers never nest — both transports enqueue rather than call
    /// through, so a ship inside a handler cannot re-enter it).
    std::vector<ExtentView> extents_;
    std::vector<std::uint32_t> bucket_counts_;
    std::vector<std::uint32_t> bucket_starts_;
    std::vector<std::uint32_t> bucket_cursor_;
    /// Items buffered or staged at this worker, read by quiescence
    /// detection (acquire) from other threads. Single writer: only the
    /// owning worker's thread changes it — inserts, flushes and the
    /// handlers that re-bucket inbound batches all run there — so writes
    /// are load/store pairs (add_pending/sub_pending), never RMWs. PP's
    /// process-shared PpState::pending has many writers and stays an RMW.
    std::atomic<std::uint64_t> pending_{0};
    WorkerTramStats stats_;
    std::uint64_t reserved_buffers_ = 0;
  };
};

}  // namespace tram::core
