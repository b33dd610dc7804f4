/// tramlib benchmark: runs one named workload through tramlib's public
/// API, verifies every run's output, and prints the end-to-end metrics
/// (untraced) or the per-layer metrics (traced) as one JSON object on the
/// last line of stdout.
///
///   tramlib_bench --workload hist-smp|ig-closed|mesh-lossy --seed N
///                 --seconds S --trace 0|1 [--trace-out FILE]
///                 [--git-sha SHA]
///   tramlib_bench --self-test
///
/// Nothing here reaches inside the library: every layer number is timed
/// around a public call (Machine construction and Machine::run, domain
/// construction, Handle::insert / flush_all, the benchmark's own deliver
/// callbacks) or read from a public stats getter (aggregate_stats,
/// Machine::fault_stats, RunResult, PayloadPool::stats).
///
/// An invocation sets up kSetupReps times (setup_s is the median), makes
/// one untimed warm-up run (runtime.cold_run_s), then repeats verified
/// timed runs with identical inputs until --seconds have passed and
/// reports medians over runs. With --trace 1 it alternates untraced and
/// traced runs, reports the per-layer medians over the traced runs, and
/// the traced-vs-untraced throughput gap as bench.trace_overhead_pct.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/tram.hpp"
#include "core/tram_stats.hpp"
#include "route/routed_domain.hpp"
#include "runtime/machine.hpp"
#include "spans.hpp"
#include "stats.hpp"

using namespace tram;

namespace perfbench {
namespace {

constexpr int kSetupReps = 15;
constexpr int kMinRuns = 3;
/// One span per this many calls at each wrapped call site (traced runs);
/// prime, so the sample never aliases with a power-of-two buffer size.
constexpr std::uint64_t kSampleEvery = 251;
/// Histogram items stamped for insert->deliver latency, one per this many.
constexpr std::uint64_t kStampEvery = 64;
/// Inserts between progress() calls, as in the library's own apps.
constexpr std::uint64_t kProgressEvery = 64;

// ---- metric catalogue (names and units match BENCHMARK.json) ----

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"}, {"latency_p50_us", "us"}, {"cpu_ns_per_op", "ns"},
    {"setup_s", "s"},     {"setup_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.insert_ns", "ns"},
    {"core.flush_ns", "ns"},
    {"core.items_per_msg", "items"},
    {"core.msgs_shipped", "count"},
    {"core.flush_msgs", "count"},
    {"route.insert_ns", "ns"},
    {"route.hop_msgs", "count"},
    {"route.forward_msgs", "count"},
    {"route.forwarded_items", "count"},
    {"route.sorted_msgs", "count"},
    {"route.fwd_copy_bytes", "bytes"},
    {"route.rebucket_copy_bytes", "bytes"},
    {"route.max_staged_fwd_bytes", "bytes"},
    {"route.max_buffers", "count"},
    {"fault.injected_drops", "count"},
    {"fault.retransmits", "count"},
    {"fault.fast_retransmits", "count"},
    {"fault.rto_fires", "count"},
    {"fault.rtx_bytes", "bytes"},
    {"fault.acks_sent", "count"},
    {"fault.dup_drops", "count"},
    {"fault.paced_msgs", "count"},
    {"fault.max_inflight_msgs", "count"},
    {"fault.goodput_frac", "ratio"},
    {"net.fabric_messages", "count"},
    {"net.fabric_bytes", "bytes"},
    {"net.bytes_per_op", "bytes"},
    {"net.forwarded_messages", "count"},
    {"runtime.run_s", "s"},
    {"runtime.start_us", "us"},
    {"runtime.qd_tail_us", "us"},
    {"runtime.overhead_cpu_ns_per_op", "ns"},
    {"runtime.cold_run_s", "s"},
    {"pool.recycle_rate", "ratio"},
    {"pool.heap_fallbacks", "count"},
    {"pool.peak_outstanding_bytes", "bytes"},
    {"app.handler_ns", "ns"},
    {"app.latency_p90_us", "us"},
    {"app.latency_p99_us", "us"},
    {"app.req_leg_us_p50", "us"},
    {"app.resp_leg_us_p50", "us"},
    {"bench.peak_rss_mib", "MiB"},
    {"bench.trace_overhead_pct", "%"},
};

using Layers = std::map<std::string, double>;

// ---- inputs ----

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform value in [0, bound) from a 64-bit hash (multiply-high).
std::uint64_t scale(std::uint64_t h, std::uint64_t bound) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * bound) >> 64);
}

/// The per-worker input stream: a splitmix64 counter sequence seeded from
/// the workload seed and the worker id.
class InputStream {
 public:
  InputStream(std::uint64_t seed, WorkerId w)
      : state_(splitmix64(seed ^ (0x5eedULL << 32 |
                                  static_cast<std::uint64_t>(w)))) {}
  std::uint64_t below(std::uint64_t bound) {
    state_ += 0x9e3779b97f4a7c15ULL;
    return scale(splitmix64(state_), bound);
  }

 private:
  std::uint64_t state_;
};

// ---- host measurements ----

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: it keeps the peak of the image before exec, here
/// run.py's.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

// ---- runs ----

/// One verified Machine::run, as seen from outside the library.
struct RunSample {
  bool verified = false;
  std::uint64_t ops = 0;
  double wall_s = 0.0;  // Machine::run call to return
  double cpu_s = 0.0;   // process CPU over the same interval
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  Layers layers;        // traced runs only
};

/// Timestamps taken around Machine::run by run_machine().
struct RunClock {
  std::uint64_t call_ns = 0;
  std::uint64_t first_main_ns = 0;
  std::uint64_t return_ns = 0;
  double cpu_s = 0.0;
};

/// Calls machine.run(main) and timestamps the call, the first main_fn
/// entry on any worker, and the return.
rt::Machine::RunResult run_machine(rt::Machine& machine,
                                   const std::function<void(rt::Worker&)>& main,
                                   std::uint64_t seed, RunClock& clock) {
  std::atomic<std::uint64_t> first{std::numeric_limits<std::uint64_t>::max()};
  auto entry = [&](rt::Worker& w) {
    const std::uint64_t t = now_ns();
    std::uint64_t cur = first.load(std::memory_order_relaxed);
    while (t < cur && !first.compare_exchange_weak(cur, t)) {
    }
    main(w);
  };
  const double cpu0 = process_cpu_s();
  clock.call_ns = now_ns();
  const auto result = machine.run(entry, seed);
  clock.return_ns = now_ns();
  clock.cpu_s = process_cpu_s() - cpu0;
  clock.first_main_ns = first.load();
  return result;
}

/// Per-worker bookkeeping shared by the workloads, written only on its
/// worker's thread during a run.
struct alignas(64) WorkerState {
  std::vector<std::uint32_t> latency_ns;
  std::uint64_t delivered = 0;
  std::uint64_t expected = 0;  // deliveries this worker must see per run
  std::uint64_t last_deliver_ns = 0;
  std::uint64_t handler_countdown = kSampleEvery;
  std::uint64_t bad = 0;  // deliveries that failed a check
};

/// Exact p50/p90/p99 over every worker's raw samples, in microseconds.
void latency_percentiles(const std::vector<WorkerState>& states,
                         RunSample& s) {
  std::vector<std::uint32_t> all;
  for (const auto& st : states) {
    all.insert(all.end(), st.latency_ns.begin(), st.latency_ns.end());
  }
  s.p50_us = percentile(all, 50.0) * 1e-3;
  s.p90_us = percentile(all, 90.0) * 1e-3;
  s.p99_us = percentile(all, 99.0) * 1e-3;
}

class Workload {
 public:
  explicit Workload(int workers) : logs_(static_cast<std::size_t>(workers)),
                                   states_(static_cast<std::size_t>(workers)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Untimed work after setup: derive the expected outputs.
  virtual void prepare() = 0;
  /// One verified Machine::run over the same inputs as every other run.
  virtual RunSample run(bool traced) = 0;

  std::vector<SpanLog>& logs() { return logs_; }

 protected:
  /// Begin a run: clear per-run state and arm or disarm tracing. The
  /// deliver callbacks read traced_ on the worker threads, which
  /// Machine::run creates after this write.
  void begin_run(bool traced) {
    traced_ = traced;
    for (auto& st : states_) {
      st.latency_ns.clear();
      st.delivered = 0;
      st.last_deliver_ns = 0;
      st.handler_countdown = kSampleEvery;
      st.bad = 0;
    }
    for (auto& log : logs_) log.reset_totals();
    core::reset_payload_pool_stats();
  }

  /// Span log for a sampled call on worker w, or nullptr (untraced run,
  /// or not this call's turn: one call in kSampleEvery per countdown).
  SpanLog* sample(WorkerId w, std::uint64_t& countdown) {
    if (!traced_ || --countdown != 0) return nullptr;
    countdown = kSampleEvery;
    return &logs_[static_cast<std::size_t>(w)];
  }

  SiteTotals totals(Site site) const {
    SiteTotals t;
    for (const auto& log : logs_) t.merge(log.totals(site));
    return t;
  }

  /// Layers every workload reports: runtime, net, pool, fault, and the
  /// handler's self time.
  void common_layers(RunSample& s, const rt::Machine& machine,
                     const rt::Machine::RunResult& rr, const RunClock& clock,
                     std::uint64_t handler_calls,
                     std::uint64_t useful_bytes) const {
    Layers& l = s.layers;
    const double ops = static_cast<double>(s.ops);
    std::uint64_t last = 0;
    for (const auto& st : states_) last = std::max(last, st.last_deliver_ns);
    l["runtime.run_s"] = rr.wall_s;
    l["runtime.start_us"] =
        static_cast<double>(clock.first_main_ns - clock.call_ns) * 1e-3;
    l["runtime.qd_tail_us"] =
        last == 0 ? 0.0
                  : static_cast<double>(clock.return_ns - last) * 1e-3;
    const SiteTotals handler = totals(Site::kHandler);
    l["app.handler_ns"] = handler.mean_self_ns();
    const double app_cpu_ns =
        handler.mean_self_ns() * static_cast<double>(handler_calls);
    l["runtime.overhead_cpu_ns_per_op"] =
        (clock.cpu_s * 1e9 - app_cpu_ns) / ops;

    l["net.fabric_messages"] = static_cast<double>(rr.fabric_messages);
    l["net.fabric_bytes"] = static_cast<double>(rr.fabric_bytes);
    l["net.bytes_per_op"] = static_cast<double>(rr.fabric_bytes) / ops;
    l["net.forwarded_messages"] = static_cast<double>(rr.forwarded_messages);

    const auto pool = core::payload_pool_stats();
    l["pool.recycle_rate"] = pool.recycle_rate();
    l["pool.heap_fallbacks"] = static_cast<double>(pool.heap_fallbacks);
    l["pool.peak_outstanding_bytes"] =
        static_cast<double>(pool.peak_outstanding_bytes);

    const core::FaultStats f = machine.fault_stats();
    l["fault.injected_drops"] = static_cast<double>(f.faults_injected_drop);
    l["fault.retransmits"] = static_cast<double>(f.retransmits);
    l["fault.fast_retransmits"] = static_cast<double>(f.fast_retransmits);
    l["fault.rto_fires"] = static_cast<double>(f.rto_fires);
    l["fault.rtx_bytes"] = static_cast<double>(f.rtx_bytes);
    l["fault.acks_sent"] = static_cast<double>(f.acks_sent);
    l["fault.dup_drops"] = static_cast<double>(f.dup_drops);
    l["fault.paced_msgs"] = static_cast<double>(f.paced_msgs);
    l["fault.max_inflight_msgs"] = static_cast<double>(f.max_inflight_msgs);
    l["fault.goodput_frac"] =
        machine.reliability() == nullptr || rr.fabric_bytes == 0
            ? 0.0
            : static_cast<double>(useful_bytes) /
                  static_cast<double>(rr.fabric_bytes);
  }

  /// Aggregation counters of a domain, under the core.* or route.* names
  /// (max_buffers is reported for routed domains only).
  static void domain_layers(Layers& l, const core::WorkerTramStats& st,
                            bool routed, const SiteTotals& insert,
                            const SiteTotals& flush,
                            std::uint64_t max_buffers) {
    if (routed) {
      l["route.insert_ns"] = insert.mean_ns();
      l["route.hop_msgs"] = static_cast<double>(st.routed_hop_msgs);
      l["route.forward_msgs"] = static_cast<double>(st.routed_forward_msgs);
      l["route.forwarded_items"] =
          static_cast<double>(st.routed_forwarded_items);
      l["route.sorted_msgs"] = static_cast<double>(st.routed_sorted_msgs);
      l["route.fwd_copy_bytes"] =
          static_cast<double>(st.routed_forward_copy_bytes);
      l["route.rebucket_copy_bytes"] =
          static_cast<double>(st.routed_rebucket_copy_bytes);
      l["route.max_staged_fwd_bytes"] =
          static_cast<double>(st.max_staged_fwd_bytes);
      l["route.max_buffers"] = static_cast<double>(max_buffers);
    } else {
      l["core.insert_ns"] = insert.mean_ns();
      l["core.flush_ns"] = flush.mean_ns();
      l["core.items_per_msg"] = st.occupancy_at_ship.mean();
      l["core.msgs_shipped"] = static_cast<double>(st.msgs_shipped);
      l["core.flush_msgs"] = static_cast<double>(st.flush_msgs);
    }
  }

  bool traced_ = false;
  std::vector<SpanLog> logs_;
  std::vector<WorkerState> states_;
};

// ---- hist-smp and mesh-lossy: fire-and-forget histogram updates ----

/// One histogram update. `stamp` is the low 32 bits of the insert time on
/// one item in kStampEvery (never 0 there), 0 on the rest.
struct HistItem {
  std::uint32_t bin;
  std::uint32_t stamp;
};

struct HistParams {
  util::Topology topo;
  rt::RuntimeConfig rt;
  core::TramConfig tram;
  std::uint64_t updates_per_worker;
  std::uint64_t bins_per_worker;
};

/// Every worker inserts updates_per_worker updates to uniform random bins
/// of a block-distributed table as fast as it can, then flushes. Verified
/// by hashing the whole table against the table the benchmark derives
/// from the seed (bit-identical, so every update landed exactly once).
template <typename Domain>
class HistWorkload final : public Workload {
  static constexpr bool kRouted =
      std::is_same_v<Domain, route::RoutedDomain<HistItem>>;
  static constexpr Site kInsert = kRouted ? Site::kRouteInsert
                                          : Site::kCoreInsert;
  static constexpr Site kFlush = kRouted ? Site::kRouteFlush
                                         : Site::kCoreFlush;

 public:
  HistWorkload(const HistParams& p, std::uint64_t seed)
      : Workload(p.topo.workers()),
        p_(p),
        seed_(seed),
        total_bins_(p.bins_per_worker *
                    static_cast<std::uint64_t>(p.topo.workers())),
        machine_(p.topo, p.rt),
        domain_(machine_, p.tram,
                [this](rt::Worker& w, const HistItem& it) { deliver(w, it); }),
        tables_(static_cast<std::size_t>(p.topo.workers())) {
    for (auto& t : tables_) t.assign(p_.bins_per_worker, 0);
  }

  void prepare() override {
    std::vector<std::uint64_t> counts(total_bins_, 0);
    for (WorkerId w = 0; w < p_.topo.workers(); ++w) {
      InputStream in(seed_, w);
      for (std::uint64_t i = 0; i < p_.updates_per_worker; ++i) {
        ++counts[in.below(total_bins_)];
      }
    }
    expected_hash_ = hash_bins(counts.data(), counts.size(), 0);
    for (std::size_t w = 0; w < states_.size(); ++w) {
      std::uint64_t n = 0;
      for (std::uint64_t b = 0; b < p_.bins_per_worker; ++b) {
        n += counts[w * p_.bins_per_worker + b];
      }
      states_[w].expected = n;
      states_[w].latency_ns.reserve(2 * n / kStampEvery + 1024);
    }
  }

  RunSample run(bool traced) override {
    begin_run(traced);
    for (auto& t : tables_) std::fill(t.begin(), t.end(), 0);
    domain_.reset_stats();
    RunClock clock;
    const auto rr = run_machine(
        machine_,
        traced ? std::function<void(rt::Worker&)>(
                     [this](rt::Worker& w) { main_fn<true>(w); })
               : std::function<void(rt::Worker&)>(
                     [this](rt::Worker& w) { main_fn<false>(w); }),
        seed_, clock);

    RunSample s;
    s.wall_s = static_cast<double>(clock.return_ns - clock.call_ns) * 1e-9;
    s.cpu_s = clock.cpu_s;
    s.ops = p_.updates_per_worker *
            static_cast<std::uint64_t>(p_.topo.workers());
    const core::WorkerTramStats st = domain_.aggregate_stats();
    s.verified = verify(st, s.ops);
    latency_percentiles(states_, s);
    if (traced) {
      common_layers(s, machine_, rr, clock, s.ops, s.ops * sizeof(HistItem));
      domain_layers(s.layers, st, kRouted, totals(kInsert), totals(kFlush),
                    domain_.max_reserved_buffers());
    }
    return s;
  }

 private:
  static std::uint64_t hash_bins(const std::uint64_t* bins, std::size_t n,
                                 std::uint64_t h) {
    for (std::size_t i = 0; i < n; ++i) h = splitmix64(h ^ bins[i]);
    return h;
  }

  template <bool kTraced>
  void main_fn(rt::Worker& w) {
    auto& h = domain_.on(w);
    std::uint64_t countdown = kSampleEvery;
    InputStream in(seed_, w.id());
    for (std::uint64_t i = 0; i < p_.updates_per_worker; ++i) {
      const std::uint64_t bin = in.below(total_bins_);
      const HistItem item{
          static_cast<std::uint32_t>(bin),
          i % kStampEvery == 0 ? static_cast<std::uint32_t>(now_ns()) | 1u
                               : 0u};
      const auto dest = static_cast<WorkerId>(bin / p_.bins_per_worker);
      if (kTraced && --countdown == 0) {
        countdown = kSampleEvery;
        SpanScope span(&logs_[static_cast<std::size_t>(w.id())], kInsert);
        h.insert(dest, item);
      } else {
        h.insert(dest, item);
      }
      if (i % kProgressEvery == 0) w.progress();
    }
    SpanScope span(kTraced ? &logs_[static_cast<std::size_t>(w.id())]
                           : nullptr,
                   kFlush);
    h.flush_all();
  }

  void deliver(rt::Worker& w, const HistItem& it) {
    auto& st = states_[static_cast<std::size_t>(w.id())];
    SpanScope span(sample(w.id(), st.handler_countdown), Site::kHandler);
    auto& slice = tables_[static_cast<std::size_t>(w.id())];
    const std::uint64_t off =
        it.bin - static_cast<std::uint64_t>(w.id()) * p_.bins_per_worker;
    if (off < slice.size()) {
      ++slice[off];
    } else {
      ++st.bad;
    }
    if (it.stamp != 0) {
      st.latency_ns.push_back(static_cast<std::uint32_t>(now_ns()) -
                              it.stamp);
    }
    if (++st.delivered == st.expected) st.last_deliver_ns = now_ns();
  }

  bool verify(const core::WorkerTramStats& st, std::uint64_t ops) const {
    std::uint64_t total = 0;
    std::uint64_t h = 0;
    std::uint64_t bad = 0;
    for (const auto& t : tables_) {
      for (const std::uint64_t c : t) total += c;
      h = hash_bins(t.data(), t.size(), h);
    }
    for (const auto& s : states_) bad += s.bad;
    return bad == 0 && total == ops && h == expected_hash_ &&
           st.items_delivered == ops;
  }

  HistParams p_;
  std::uint64_t seed_;
  std::uint64_t total_bins_;
  rt::Machine machine_;
  Domain domain_;
  std::vector<std::vector<std::uint64_t>> tables_;
  std::uint64_t expected_hash_ = 0;
};

// ---- ig-closed: index-gather as a message-driven closed loop ----

struct IgParams {
  util::Topology topo;
  rt::RuntimeConfig rt;
  core::TramConfig tram;
  std::uint32_t requests_per_worker;
  std::uint32_t outstanding;
  std::uint64_t entries_per_worker;
};

struct Request {
  std::uint64_t birth_ns;
  std::uint64_t index;
  WorkerId requester;
  std::uint32_t id;
};

struct Response {
  std::uint64_t birth_ns;
  std::uint64_t value;
  std::uint64_t owner_ns;  // sampled handlers of traced runs: when the
                           // owner's handler ran; 0 otherwise
  std::uint32_t id;
  std::uint32_t pad;
};

/// Each worker keeps `outstanding` requests in flight to the owners of
/// uniform random table indices; each response handler issues the
/// requester's next request. Verified per request: answered exactly once,
/// with value_at(index) for the index the benchmark generated.
class IgWorkload final : public Workload {
 public:
  IgWorkload(const IgParams& p, std::uint64_t seed)
      : Workload(p.topo.workers()),
        p_(p),
        seed_(seed),
        total_entries_(p.entries_per_worker *
                       static_cast<std::uint64_t>(p.topo.workers())),
        machine_(p.topo, p.rt),
        requests_(machine_, p.tram,
                  [this](rt::Worker& w, const Request& r) { serve(w, r); }),
        responses_(machine_, p.tram,
                   [this](rt::Worker& w, const Response& r) { answer(w, r); }),
        table_(static_cast<std::size_t>(p.topo.workers())),
        ig_(static_cast<std::size_t>(p.topo.workers())) {
    for (std::size_t w = 0; w < table_.size(); ++w) {
      auto& slice = table_[w];
      slice.resize(p_.entries_per_worker);
      const std::uint64_t base = w * p_.entries_per_worker;
      for (std::uint64_t i = 0; i < slice.size(); ++i) {
        slice[i] = value_at(base + i);
      }
    }
  }

  void prepare() override {
    for (std::size_t w = 0; w < states_.size(); ++w) {
      states_[w].expected = p_.requests_per_worker;
      states_[w].latency_ns.reserve(p_.requests_per_worker);
      ig_[w].answered.assign(p_.requests_per_worker, 0);
    }
  }

  RunSample run(bool traced) override {
    begin_run(traced);
    for (auto& g : ig_) {
      std::fill(g.answered.begin(), g.answered.end(), 0);
      g.next = 0;
      g.served = 0;
      g.req_leg_ns.clear();
      g.resp_leg_ns.clear();
    }
    requests_.reset_stats();
    responses_.reset_stats();
    RunClock clock;
    const auto rr = run_machine(
        machine_,
        [this](rt::Worker& w) { main_fn(w); }, seed_, clock);

    RunSample s;
    s.wall_s = static_cast<double>(clock.return_ns - clock.call_ns) * 1e-9;
    s.cpu_s = clock.cpu_s;
    s.ops = std::uint64_t{p_.requests_per_worker} *
            static_cast<std::uint64_t>(p_.topo.workers());
    core::WorkerTramStats st = requests_.aggregate_stats();
    const core::WorkerTramStats resp = responses_.aggregate_stats();
    s.verified = verify(st, resp, s.ops);
    st.merge(resp);
    latency_percentiles(states_, s);
    if (traced) {
      common_layers(s, machine_, rr, clock, 2 * s.ops,
                    s.ops * (sizeof(Request) + sizeof(Response)));
      domain_layers(s.layers, st, false, totals(Site::kCoreInsert),
                    totals(Site::kCoreFlush), /*max_buffers=*/0);
      std::vector<std::uint64_t> req_leg;
      std::vector<std::uint64_t> resp_leg;
      for (const auto& g : ig_) {
        req_leg.insert(req_leg.end(), g.req_leg_ns.begin(),
                       g.req_leg_ns.end());
        resp_leg.insert(resp_leg.end(), g.resp_leg_ns.begin(),
                        g.resp_leg_ns.end());
      }
      s.layers["app.req_leg_us_p50"] = percentile(req_leg, 50.0) * 1e-3;
      s.layers["app.resp_leg_us_p50"] = percentile(resp_leg, 50.0) * 1e-3;
    }
    return s;
  }

 private:
  /// Per-requester closed-loop state, written only on its worker.
  struct alignas(64) IgState {
    std::vector<std::uint8_t> answered;
    std::uint32_t next = 0;  // next request id to issue
    std::uint64_t served = 0;  // requests this worker answered as owner
    std::vector<std::uint64_t> req_leg_ns;
    std::vector<std::uint64_t> resp_leg_ns;
  };

  static std::uint64_t value_at(std::uint64_t index) {
    return index * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL;
  }
  static std::uint64_t req_id(WorkerId w, std::uint32_t id) {
    return static_cast<std::uint64_t>(w) << 32 | id;
  }
  std::uint64_t index_of(WorkerId w, std::uint32_t id) const {
    return scale(splitmix64(seed_ ^ splitmix64(req_id(w, id))),
                 total_entries_);
  }

  void issue(rt::Worker& w, std::uint32_t id, SpanLog* log) {
    const std::uint64_t index = index_of(w.id(), id);
    const auto owner = static_cast<WorkerId>(index / p_.entries_per_worker);
    const Request r{now_ns(), index, w.id(), id};
    SpanScope span(log, Site::kCoreInsert, req_id(w.id(), id));
    requests_.on(w).insert(owner, r);
  }

  void main_fn(rt::Worker& w) {
    auto& g = ig_[static_cast<std::size_t>(w.id())];
    auto& st = states_[static_cast<std::size_t>(w.id())];
    g.next = std::min(p_.outstanding, p_.requests_per_worker);
    for (std::uint32_t id = 0; id < g.next; ++id) {
      issue(w, id, sample(w.id(), st.handler_countdown));
    }
    SpanScope span(traced_ ? &logs_[static_cast<std::size_t>(w.id())]
                           : nullptr,
                   Site::kCoreFlush);
    requests_.on(w).flush_all();
  }

  /// Owner side: look the index up and reply.
  void serve(rt::Worker& w, const Request& r) {
    auto& st = states_[static_cast<std::size_t>(w.id())];
    SpanLog* log = sample(w.id(), st.handler_countdown);
    SpanScope span(log, Site::kHandler, req_id(r.requester, r.id));
    const auto& slice = table_[static_cast<std::size_t>(w.id())];
    const std::uint64_t off =
        r.index - static_cast<std::uint64_t>(w.id()) * p_.entries_per_worker;
    std::uint64_t value = 0;
    if (off < slice.size()) {
      value = slice[off];
    } else {
      ++st.bad;
    }
    ++ig_[static_cast<std::size_t>(w.id())].served;
    const Response resp{r.birth_ns, value, log != nullptr ? now_ns() : 0,
                        r.id, 0};
    SpanScope insert(log, Site::kCoreInsert, req_id(r.requester, r.id));
    responses_.on(w).insert(r.requester, resp);
  }

  /// Requester side: record the round trip, check the answer, and issue
  /// the next request.
  void answer(rt::Worker& w, const Response& r) {
    const std::uint64_t now = now_ns();
    auto& st = states_[static_cast<std::size_t>(w.id())];
    auto& g = ig_[static_cast<std::size_t>(w.id())];
    SpanLog* log = sample(w.id(), st.handler_countdown);
    SpanScope span(log, Site::kHandler, req_id(w.id(), r.id));
    const std::uint64_t rtt = now - r.birth_ns;
    st.latency_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(rtt, std::numeric_limits<std::uint32_t>::max())));
    if (r.owner_ns != 0) {
      g.req_leg_ns.push_back(r.owner_ns - r.birth_ns);
      g.resp_leg_ns.push_back(now - r.owner_ns);
    }
    if (r.id >= p_.requests_per_worker || g.answered[r.id] != 0 ||
        r.value != value_at(index_of(w.id(), r.id))) {
      ++st.bad;
    } else {
      g.answered[r.id] = 1;
      if (++st.delivered == st.expected) st.last_deliver_ns = now;
    }
    if (g.next < p_.requests_per_worker) issue(w, g.next++, log);
  }

  bool verify(const core::WorkerTramStats& req,
              const core::WorkerTramStats& resp, std::uint64_t ops) const {
    std::uint64_t served = 0;
    for (const auto& g : ig_) served += g.served;
    for (const auto& st : states_) {
      if (st.bad != 0 || st.delivered != st.expected) return false;
    }
    return served == ops && req.items_delivered == ops &&
           resp.items_delivered == ops;
  }

  IgParams p_;
  std::uint64_t seed_;
  std::uint64_t total_entries_;
  rt::Machine machine_;
  core::TramDomain<Request> requests_;
  core::TramDomain<Response> responses_;
  std::vector<std::vector<std::uint64_t>> table_;
  std::vector<IgState> ig_;
};

// ---- workload catalogue ----

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "hist-smp") {
    // 2 processes x 1 worker + 1 comm thread each: 4 busy threads.
    HistParams p{util::Topology(2, 1, 1), rt::RuntimeConfig{},
                 core::TramConfig{}, 4'000'000, 1 << 16};
    p.tram.scheme = core::Scheme::WPs;
    p.tram.buffer_items = 256;
    return std::make_unique<HistWorkload<core::TramDomain<HistItem>>>(p,
                                                                      seed);
  }
  if (name == "ig-closed") {
    IgParams p{util::Topology(4, 1, 1), rt::RuntimeConfig{},
               core::TramConfig{}, 600'000, 64, 1 << 16};
    p.rt.dedicated_comm = false;
    p.tram.scheme = core::Scheme::WPs;
    p.tram.buffer_items = 1024;
    return std::make_unique<IgWorkload>(p, seed);
  }
  if (name == "mesh-lossy") {
    HistParams p{util::Topology(4, 1, 1), rt::RuntimeConfig{},
                 core::TramConfig{}, 3'000'000, 1 << 16};
    p.rt.dedicated_comm = false;
    p.rt.fault.drop_rate = 0.02;
    p.rt.fault.seed = splitmix64(seed);
    p.tram.scheme = core::Scheme::Mesh2D;
    p.tram.route_dims = {2, 2, 0};
    p.tram.buffer_items = 256;
    return std::make_unique<HistWorkload<route::RoutedDomain<HistItem>>>(
        p, seed);
  }
  return nullptr;
}

// ---- command line and main loop ----

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  bool self_test = false;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) {
        std::fprintf(stderr, "--trace takes 0 or 1, not %s\n", v);
        return false;
      }
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--git-sha") {
      o.git_sha = v;
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", a.c_str(), v);
      return false;
    }
  }
  if (!o.self_test && (o.workload.empty() || !(o.seconds > 0.0))) {
    std::fprintf(stderr, "need --workload and --seconds > 0\n");
    return false;
  }
  return true;
}

void print_fingerprint(const Options& o) {
  double load[1] = {-1.0};
  if (getloadavg(load, 1) != 1) load[0] = -1.0;
  std::printf(
      "fingerprint {\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%u,"
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"tram_trace\":\"%s\","
      "\"git_sha\":\"%s\",\"loadavg_1m\":%.2f}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      std::thread::hardware_concurrency(), BENCH_COMPILER, BENCH_BUILD_TYPE,
      BENCH_TRAM_TRACE, o.git_sha.c_str(), load[0]);
}

int bench_main(const Options& o) {
  print_fingerprint(o);
  const std::uint64_t origin_ns = now_ns();

  // Set-up: Machine, domains and table fill, kSetupReps times.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> wl;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    wl.reset();
    const std::uint64_t t0 = now_ns();
    wl = make_workload(o.workload, o.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (!wl) {
      std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
      return 2;
    }
  }
  const double setup_rss_mib = peak_rss_mib();
  wl->prepare();
  const std::uint64_t clock_overhead = calibrate_clock_overhead();
  for (auto& log : wl->logs()) log.set_clock_overhead(clock_overhead);

  std::uint64_t attempted = 0;
  bool any_failure = false;
  auto account = [&](const RunSample& s) {
    attempted += s.ops;
    if (!s.verified) {
      any_failure = true;
      std::printf("VERIFY FAILED on a %s run\n", o.workload.c_str());
    }
  };

  const RunSample cold = wl->run(false);
  account(cold);

  std::vector<RunSample> untraced;
  std::vector<RunSample> traced;
  const std::uint64_t t_start = now_ns();
  auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - t_start) * 1e-9;
  };
  if (!o.trace) {
    while (untraced.size() < kMinRuns || elapsed_s() < o.seconds) {
      untraced.push_back(wl->run(false));
      account(untraced.back());
    }
  } else {
    // Pairs alternate which side runs first, so warm-up and drift do not
    // favour one side.
    for (std::size_t pair = 0; pair < 2 || elapsed_s() < o.seconds; ++pair) {
      for (int k = 0; k < 2; ++k) {
        const bool t = (pair % 2 == 0) == (k == 1);
        (t ? traced : untraced).push_back(wl->run(t));
        account(t ? traced.back() : untraced.back());
      }
    }
  }

  auto med = [](const std::vector<RunSample>& runs, auto field) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(field(r));
    return median(v);
  };
  auto ops_per_s = [](const RunSample& r) {
    return static_cast<double>(r.ops) / r.wall_s;
  };

  std::map<std::string, double> out;
  if (!o.trace) {
    out["ops_per_s"] = med(untraced, ops_per_s);
    out["latency_p50_us"] =
        med(untraced, [](const RunSample& r) { return r.p50_us; });
    out["cpu_ns_per_op"] = med(untraced, [](const RunSample& r) {
      return r.cpu_s * 1e9 / static_cast<double>(r.ops);
    });
    out["setup_s"] = median(setup_s);
    out["setup_rss_mib"] = setup_rss_mib;
  } else {
    for (const MetricDef& m : kPerLayer) {
      out[m.name] = med(traced, [&](const RunSample& r) {
        const auto it = r.layers.find(m.name);
        return it == r.layers.end() ? 0.0 : it->second;
      });
    }
    out["runtime.cold_run_s"] = cold.wall_s;
    // Latency is an end-to-end number: taken from the untraced runs.
    out["app.latency_p90_us"] =
        med(untraced, [](const RunSample& r) { return r.p90_us; });
    out["app.latency_p99_us"] =
        med(untraced, [](const RunSample& r) { return r.p99_us; });
    std::vector<double> overhead;  // per pair, in run order
    for (std::size_t i = 0; i < traced.size(); ++i) {
      overhead.push_back((1.0 - ops_per_s(traced[i]) /
                                    ops_per_s(untraced[i])) * 100.0);
    }
    out["bench.trace_overhead_pct"] = median(overhead);
    out["bench.peak_rss_mib"] = peak_rss_mib();
    if (!o.trace_out.empty() &&
        !write_chrome_trace(o.trace_out, wl->logs(), origin_ns)) {
      std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
    }
  }

  const std::span<const MetricDef> defs =
      o.trace ? std::span<const MetricDef>(kPerLayer)
              : std::span<const MetricDef>(kEndToEnd);
  std::printf("runs: %zu untraced, %zu traced (+1 warm-up)\n",
              untraced.size(), traced.size());
  for (const auto& r : untraced) {
    std::printf("run ops/s %.4g p50 %.4g us p90 %.4g us p99 %.4g us "
                "cpu %.4g ns/op\n",
                ops_per_s(r), r.p50_us, r.p90_us, r.p99_us,
                r.cpu_s * 1e9 / static_cast<double>(r.ops));
  }
  const std::uint64_t failed = failed_ops(attempted, any_failure);
  std::printf("failed_frac %.6f (%llu of %llu operations)\n",
              failed_frac(attempted, failed),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const MetricDef& m : defs) {
    std::printf("%-34s %16.6g %s\n", m.name, out[m.name], m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              any_failure ? "false" : "true",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, out[defs[i].name],
                defs[i].unit);
  }
  std::printf("}}\n");
  return any_failure ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::parse(argc, argv, o)) return 2;
  if (o.self_test) {
    const int failures = perfbench::self_test();
    std::printf("self-test: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  return perfbench::bench_main(o);
}
