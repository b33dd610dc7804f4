/// PayloadPool/PayloadRef: recycling, refcounting (including cross-thread
/// handoff, the simulated cross-process case), subref pinning, resize
/// semantics, and the exhaustion fallback.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "runtime/message.hpp"
#include "util/mpsc_queue.hpp"
#include "util/payload_pool.hpp"

namespace {

using tram::util::PayloadPool;
using tram::util::PayloadRef;

TEST(PayloadPool, AcquireSizesToRequestAndRoundsCapacity) {
  PayloadPool pool;
  PayloadRef r = pool.acquire(100);
  EXPECT_EQ(r.size(), 100u);
  EXPECT_GE(r.capacity(), 100u);
  EXPECT_TRUE(r.unique());
  const auto s = pool.stats();
  EXPECT_EQ(s.acquires, 1u);
  EXPECT_EQ(s.slab_allocs, 1u);
  EXPECT_EQ(s.heap_fallbacks, 0u);
}

TEST(PayloadPool, AcquireZeroIsEmpty) {
  PayloadPool pool;
  PayloadRef r = pool.acquire(0);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_EQ(pool.stats().acquires, 0u);
}

TEST(PayloadPool, ReleasedSlabIsRecycled) {
  PayloadPool pool;
  const std::byte* first;
  {
    PayloadRef r = pool.acquire(512);
    first = r.data();
  }
  PayloadRef again = pool.acquire(512);
  // Same thread -> same stripe -> LIFO reuse of the identical slab.
  EXPECT_EQ(again.data(), first);
  const auto s = pool.stats();
  EXPECT_EQ(s.pool_hits, 1u);
  EXPECT_EQ(s.slab_allocs, 1u);
  EXPECT_DOUBLE_EQ(s.recycle_rate(), 0.5);
}

TEST(PayloadPool, CopySharesAndLastDropRecycles) {
  PayloadPool pool;
  PayloadRef a = pool.acquire(64);
  std::memset(a.data(), 0x5a, 64);
  PayloadRef b = a;
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_FALSE(a.unique());
  a = PayloadRef();  // drop one reference; the slab must survive
  ASSERT_EQ(b.use_count(), 1u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(std::to_integer<int>(b.data()[i]), 0x5a);
  }
  b = PayloadRef();
  const auto s = pool.stats();
  EXPECT_EQ(s.releases, 1u);  // one slab released once, not per handle
  EXPECT_EQ(s.free_slabs, 1u);
  EXPECT_EQ(s.outstanding, 0u);
}

TEST(PayloadPool, SubrefPinsSlabPastParentRelease) {
  PayloadPool pool;
  PayloadRef whole = pool.acquire(256);
  for (int i = 0; i < 256; ++i) {
    whole.data()[i] = static_cast<std::byte>(i);
  }
  PayloadRef seg = whole.subref(100, 50);
  EXPECT_EQ(seg.size(), 50u);
  whole = PayloadRef();  // parent gone; segment must still pin the slab
  EXPECT_EQ(pool.stats().free_slabs, 0u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(std::to_integer<int>(seg.data()[i]), (100 + i) & 0xff);
  }
  seg = PayloadRef();
  EXPECT_EQ(pool.stats().free_slabs, 1u);
}

TEST(PayloadPool, ResizePreservesPrefixAndZeroFillsGrowth) {
  PayloadPool pool;
  PayloadRef r = pool.acquire(8);
  std::memset(r.data(), 0x11, 8);
  r.resize(16);  // within the 64B class: in place
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(std::to_integer<int>(r.data()[i]), 0x11);
  }
  for (int i = 8; i < 16; ++i) {
    EXPECT_EQ(std::to_integer<int>(r.data()[i]), 0);
  }
  const std::size_t old_cap = r.capacity();
  r.resize(old_cap + 1);  // beyond capacity: fresh slab, prefix kept
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(std::to_integer<int>(r.data()[i]), 0x11);
  }
  EXPECT_EQ(std::to_integer<int>(r.data()[old_cap]), 0);
}

TEST(PayloadPool, DefaultRefResizeDrawsFromGlobalPool) {
  PayloadRef r;
  r.resize(40);
  EXPECT_EQ(r.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(std::to_integer<int>(r.data()[i]), 0);
  }
}

TEST(PayloadPool, ResetStatsKeepsOutstandingExact) {
  // outstanding is a live counter: zeroing the flow counters between
  // benchmark trials must not make later releases underflow it.
  PayloadPool pool;
  PayloadRef held = pool.acquire(64);
  pool.reset_stats();
  EXPECT_EQ(pool.stats().outstanding, 1u);
  EXPECT_EQ(pool.stats().acquires, 0u);
  held = PayloadRef();
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(PayloadPool, ExhaustionFallsBackToHeapBlocks) {
  PayloadPool::Config cfg;
  cfg.max_slabs_per_class = 2;
  PayloadPool pool(cfg);
  PayloadRef a = pool.acquire(64);
  PayloadRef b = pool.acquire(64);
  PayloadRef c = pool.acquire(64);  // class is at its cap: heap block
  std::memset(c.data(), 0x7f, 64);  // still fully usable
  EXPECT_EQ(std::to_integer<int>(c.data()[63]), 0x7f);
  const auto s = pool.stats();
  EXPECT_EQ(s.slab_allocs, 2u);
  EXPECT_EQ(s.heap_fallbacks, 1u);
  a = b = c = PayloadRef();
  EXPECT_EQ(pool.stats().outstanding, 0u);
  // Heap blocks are freed, not cached: only the two real slabs remain.
  EXPECT_EQ(pool.stats().free_slabs, 2u);
}

TEST(PayloadPool, OversizeRequestsBypassThePool) {
  PayloadPool::Config cfg;
  cfg.max_slab_bytes = 1024;
  PayloadPool pool(cfg);
  PayloadRef big = pool.acquire(4096);
  EXPECT_EQ(big.size(), 4096u);
  std::memset(big.data(), 1, 4096);
  EXPECT_EQ(pool.stats().heap_fallbacks, 1u);
}

TEST(PayloadPool, ConcurrentAcquireReleaseIsConsistent) {
  PayloadPool pool;
  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t bytes = 64u + static_cast<std::size_t>((i + t) % 7) * 300u;
        PayloadRef r = pool.acquire(bytes);
        r.data()[0] = static_cast<std::byte>(t);
        r.data()[bytes - 1] = static_cast<std::byte>(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto s = pool.stats();
  EXPECT_EQ(s.acquires, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s.acquires, s.pool_hits + s.slab_allocs + s.heap_fallbacks);
  EXPECT_EQ(s.heap_fallbacks, 0u);
  EXPECT_EQ(s.outstanding, 0u);
  // Steady state must be dominated by recycling, not allocation.
  EXPECT_GT(s.recycle_rate(), 0.95);
  // Striped counters sum exactly once every thread is joined: every slab
  // ever allocated is back on some stripe's free list, and the global
  // byte counter is back to zero. Each thread holds at most one buffer,
  // of at most the 2 KiB class (64 + 6 * 300 bytes rounds up to 2048).
  EXPECT_EQ(s.free_slabs, s.slab_allocs);
  EXPECT_EQ(s.outstanding_bytes, 0u);
  EXPECT_LE(s.peak_outstanding_bytes, std::uint64_t{kThreads} * 2048u);
}

TEST(PayloadPool, CrossThreadHandoffKeepsRefcountExact) {
  // The simulated cross-process case: one thread fills and ships buffers
  // (keeping its own reference alive briefly, like a sender-side stats
  // hook), another consumes and releases. Every slab must come back.
  PayloadPool pool;
  tram::util::MpscQueue<PayloadRef> channel;
  constexpr int kMessages = 50'000;
  constexpr int kWindow = 32;  // in-flight cap: mirrors a bounded egress ring
  std::atomic<int> consumed{0};
  std::thread producer([&] {
    for (int i = 0; i < kMessages; ++i) {
      while (i - consumed.load(std::memory_order_acquire) >= kWindow) {
        std::this_thread::yield();
      }
      PayloadRef r = pool.acquire(1024);
      std::memcpy(r.data(), &i, sizeof i);
      PayloadRef keep = r;  // sender-side copy: refcount 2 across the hop
      channel.push(std::move(r));
      ASSERT_EQ(*reinterpret_cast<const int*>(keep.data()), i);
    }
  });
  std::thread consumer([&] {
    int expected = 0;
    while (expected < kMessages) {
      auto r = channel.try_pop();
      if (!r) {
        std::this_thread::yield();
        continue;
      }
      ASSERT_EQ(*reinterpret_cast<const int*>(r->data()), expected);
      ++expected;
      consumed.store(expected, std::memory_order_release);
    }
  });
  producer.join();
  consumer.join();
  const auto s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.acquires, static_cast<std::uint64_t>(kMessages));
  EXPECT_GT(s.recycle_rate(), 0.9);
  // Acquires land on the producer's stripe and releases on the
  // consumer's; the sums must still balance exactly. At most kWindow
  // buffers are in the channel, plus the one the consumer holds and the
  // one the producer is filling.
  EXPECT_EQ(s.free_slabs, s.slab_allocs);
  EXPECT_EQ(s.outstanding_bytes, 0u);
  EXPECT_LE(s.peak_outstanding_bytes, std::uint64_t{kWindow + 2} * 1024u);
}

TEST(PayloadCodec, EmptyPayloadDecodesToEmptySpan) {
  // The decode_payload hardening: no pointer is formed for empty input.
  EXPECT_TRUE(tram::rt::decode_payload<int>(
                  std::span<const std::byte>{})
                  .empty());
  PayloadRef empty;
  EXPECT_TRUE(tram::rt::decode_payload<std::uint64_t>(empty).empty());
}

TEST(PayloadCodec, EncodeRoundTripsThroughThePool) {
  std::vector<std::uint32_t> items{1u, 2u, 3u, 4u};
  PayloadRef bytes =
      tram::rt::encode_payload(std::span<const std::uint32_t>(items));
  EXPECT_EQ(bytes.size(), 16u);
  auto back = tram::rt::decode_payload<std::uint32_t>(bytes);
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(back[3], 4u);
}

}  // namespace
