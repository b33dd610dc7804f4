/// Microbenchmark of the pooled zero-copy payload path. Three measurements:
///
///  1. raw pool: acquire/fill/release of g-sized slabs from one thread —
///     the per-message buffer-management cost floor;
///  2. cross-thread handoff: 4 producer threads acquire and fill 1 KiB
///     slabs and hand them through MPSC queues to 4 consumer threads that
///     release them — the SMP message path's pool traffic, where any pool
///     state every thread writes shows up as contention (reported as ns
///     per acquire+release, wall time over all handoffs);
///  3. end-to-end: a TramDomain insert -> ship -> deliver workload on the
///     modeled fabric, reporting messages/sec, items/sec, and the pool
///     recycle rate observed during the measured (post-warmup) trial.
///
/// The acceptance bar for the zero-copy refactor: steady-state recycle
/// rate >= 95% and zero heap fallbacks — i.e. the hot path performs no
/// per-message heap allocation.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/tram.hpp"
#include "runtime/machine.hpp"
#include "util/mpsc_queue.hpp"
#include "util/payload_pool.hpp"
#include "util/spinlock.hpp"
#include "util/timebase.hpp"

using namespace tram;

namespace {

struct PathResult {
  double msgs_per_sec = 0.0;
  double items_per_sec = 0.0;
  util::PayloadPool::Stats pool;
};

PathResult raw_pool_path(const bench::BenchOptions& opt) {
  const std::size_t kSlabBytes = 16 * 1024;  // g=1024 entries of 16B
  const std::uint64_t iters = opt.quick ? 500'000 : 2'000'000;
  auto& pool = util::PayloadPool::global();
  // Warm the size class, then measure pure recycling.
  for (int i = 0; i < 64; ++i) {
    util::PayloadRef r = pool.acquire(kSlabBytes);
    r.data()[0] = std::byte{1};
  }
  pool.reset_stats();
  const std::uint64_t t0 = util::now_ns();
  for (std::uint64_t i = 0; i < iters; ++i) {
    util::PayloadRef r = pool.acquire(kSlabBytes);
    // Touch both ends so the compiler cannot elide the buffer.
    r.data()[0] = static_cast<std::byte>(i);
    r.data()[kSlabBytes - 1] = static_cast<std::byte>(i >> 8);
  }
  const std::uint64_t t1 = util::now_ns();
  PathResult res;
  res.msgs_per_sec =
      static_cast<double>(iters) / (static_cast<double>(t1 - t0) * 1e-9);
  res.items_per_sec = res.msgs_per_sec;
  res.pool = pool.stats();
  return res;
}

PathResult cross_thread_trial(const bench::BenchOptions& opt) {
  constexpr int kPairs = 4;
  constexpr std::size_t kSlabBytes = 1024;
  // Per-producer cap on slabs in flight, like a bounded egress ring; it
  // keeps the working set small and the free lists stocked.
  constexpr std::uint64_t kWindow = 64;
  const std::uint64_t per_producer = opt.quick ? 100'000 : 400'000;
  auto& pool = util::PayloadPool::global();
  std::vector<std::unique_ptr<util::MpscQueue<util::PayloadRef>>> queues;
  for (int c = 0; c < kPairs; ++c) {
    queues.push_back(std::make_unique<util::MpscQueue<util::PayloadRef>>());
  }
  // Slabs each producer has had released, bumped by the consumers.
  util::Padded<std::atomic<std::uint64_t>> released[kPairs];
  std::atomic<bool> go{false};

  std::vector<std::thread> threads;
  for (int p = 0; p < kPairs; ++p) {
    threads.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        while (i - released[p].value.load(std::memory_order_acquire) >=
               kWindow) {
          std::this_thread::yield();
        }
        util::PayloadRef r = pool.acquire(kSlabBytes);
        std::memcpy(r.data(), &p, sizeof p);
        r.data()[kSlabBytes - 1] = static_cast<std::byte>(i);
        queues[(static_cast<std::uint64_t>(p) + i) % kPairs]->push(
            std::move(r));
      }
    });
  }
  // Producer p sends its i-th slab to consumer (p + i) % kPairs, so with
  // per_producer a multiple of kPairs every consumer gets per_producer.
  for (int c = 0; c < kPairs; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t got = 0; got < per_producer;) {
        auto r = queues[static_cast<std::size_t>(c)]->try_pop();
        if (!r) {
          std::this_thread::yield();
          continue;
        }
        int p = 0;
        std::memcpy(&p, r->data(), sizeof p);
        r.reset();  // the release under test
        released[p].value.fetch_add(1, std::memory_order_release);
        ++got;
      }
    });
  }
  pool.reset_stats();
  const std::uint64_t t0 = util::now_ns();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const std::uint64_t t1 = util::now_ns();

  PathResult res;
  const double handoffs = static_cast<double>(per_producer) * kPairs;
  res.msgs_per_sec = handoffs / (static_cast<double>(t1 - t0) * 1e-9);
  res.items_per_sec = res.msgs_per_sec;
  res.pool = pool.stats();
  return res;
}

/// Eight threads share the host's cores, so one trial's rate depends on
/// how the scheduler placed them: report the median of five.
PathResult cross_thread_path(const bench::BenchOptions& opt) {
  std::vector<PathResult> trials;
  for (int t = 0; t < 5; ++t) trials.push_back(cross_thread_trial(opt));
  std::sort(trials.begin(), trials.end(),
            [](const PathResult& a, const PathResult& b) {
              return a.msgs_per_sec < b.msgs_per_sec;
            });
  return trials[trials.size() / 2];
}

PathResult end_to_end_path(const bench::BenchOptions& opt) {
  rt::Machine machine(util::Topology(2, 1, 2), bench::bench_runtime());
  core::TramConfig tcfg;
  tcfg.scheme = core::Scheme::WPs;
  tcfg.buffer_items = 1024;
  std::atomic<std::uint64_t> delivered{0};
  core::TramDomain<std::uint64_t> dom(
      machine, tcfg, [&](rt::Worker&, const std::uint64_t&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
  const int workers = machine.topology().workers();
  const int items = opt.quick ? 50'000 : 200'000;

  auto trial = [&] {
    return machine
        .run([&](rt::Worker& w) {
          auto& h = dom.on(w);
          for (int i = 0; i < items; ++i) {
            h.insert(static_cast<WorkerId>((w.id() + i) % workers),
                     static_cast<std::uint64_t>(i));
          }
          h.flush_all();
        })
        .wall_s;
  };

  (void)trial();  // warmup primes every pool size class the path touches
  core::reset_payload_pool_stats();
  dom.reset_stats();
  const double secs = trial();

  PathResult res;
  const auto stats = dom.aggregate_stats();
  res.items_per_sec = static_cast<double>(stats.items_delivered) / secs;
  res.msgs_per_sec =
      static_cast<double>(stats.msgs_shipped + stats.regroup_msgs) / secs;
  res.pool = core::payload_pool_stats();
  return res;
}

/// per_op_ns: show ns per acquire+release (1 / message rate) — only for
/// rows whose every message is exactly one acquire and one release.
void add_path_row(util::Table& table, const char* name, const PathResult& r,
                  bool per_op_ns) {
  table.add_row(
      {name, util::Table::fmt(r.msgs_per_sec / 1e6, 3),
       util::Table::fmt(r.items_per_sec / 1e6, 3),
       per_op_ns ? util::Table::fmt(1e9 / r.msgs_per_sec, 1) : "-",
       util::Table::fmt(100.0 * r.pool.recycle_rate(), 2),
       util::Table::fmt_int(static_cast<long long>(r.pool.heap_fallbacks)),
       util::Table::fmt_int(static_cast<long long>(r.pool.slab_allocs))});
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv,
                 "micro_payload_pool: pooled zero-copy payload path "
                 "(messages/sec and buffer recycle rate)"))
    return 0;

  const PathResult raw = raw_pool_path(opt);
  const PathResult cross = cross_thread_path(opt);
  const PathResult e2e = end_to_end_path(opt);

  util::Table table("Payload pool: allocation-free message path");
  table.set_header({"path", "Mmsgs/s", "Mitems/s", "ns/acq+rel",
                    "recycle %", "heap fallbacks", "slab allocs"});
  add_path_row(table, "raw acquire/release", raw, true);
  add_path_row(table, "4x4 cross-thread handoff", cross, true);
  add_path_row(table, "tram insert->deliver", e2e, false);
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  shapes.expect(raw.pool.recycle_rate() >= 0.99,
                "raw pool path recycles >= 99% of buffers");
  shapes.expect(cross.pool.recycle_rate() >= 0.95,
                "cross-thread handoff recycles >= 95% of buffers");
  shapes.expect(e2e.pool.recycle_rate() >= 0.95,
                "steady-state tram path recycles >= 95% of buffers");
  shapes.expect(raw.pool.heap_fallbacks == 0 &&
                    cross.pool.heap_fallbacks == 0 &&
                    e2e.pool.heap_fallbacks == 0,
                "no heap fallbacks on the hot path");
  shapes.report();
  return 0;
}
