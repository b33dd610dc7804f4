#include "util/payload_pool.hpp"

#include <atomic>
#include <bit>
#include <new>

namespace tram::util {

namespace {

/// Round up to a power of two (>= 1).
std::size_t ceil_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

int log2_of(std::size_t pow2) noexcept {
  int n = 0;
  while ((std::size_t{1} << n) < pow2) ++n;
  return n;
}

/// Stripe affinity: a thread draws a ticket on its first pool call and
/// keeps it, so its releases land on the free list its next acquire checks
/// first, and threads created together get distinct stripes.
std::size_t my_stripe() noexcept {
  static std::atomic<std::size_t> next_ticket{0};
  thread_local const std::size_t stripe =
      next_ticket.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

}  // namespace

PayloadPool::PayloadPool() : PayloadPool(Config{}) {}

PayloadPool::PayloadPool(Config cfg) : cfg_(cfg) {
  cfg_.min_slab_bytes = ceil_pow2(cfg_.min_slab_bytes < 64 ? 64 : cfg_.min_slab_bytes);
  cfg_.max_slab_bytes = ceil_pow2(cfg_.max_slab_bytes);
  if (cfg_.max_slab_bytes < cfg_.min_slab_bytes) {
    cfg_.max_slab_bytes = cfg_.min_slab_bytes;
  }
  min_shift_ = log2_of(cfg_.min_slab_bytes);
  num_classes_ = log2_of(cfg_.max_slab_bytes) - min_shift_ + 1;
  classes_ = std::make_unique<SizeClass[]>(static_cast<std::size_t>(num_classes_));
  for (int c = 0; c < num_classes_; ++c) {
    classes_[c].capacity = cfg_.min_slab_bytes << c;
  }
}

PayloadPool::~PayloadPool() {
  // Free every cached slab. Outstanding refs must already be gone: a later
  // release would touch a destroyed pool (the global pool side-steps this
  // by never dying).
  for (int c = 0; c < num_classes_; ++c) {
    for (auto& stripe : classes_[c].stripes) {
      detail::SlabHeader* h = stripe.head;
      while (h != nullptr) {
        detail::SlabHeader* next = h->next_free;
        destroy_block(h);
        h = next;
      }
      stripe.head = nullptr;
    }
  }
}

PayloadPool& PayloadPool::global() {
  // Leaked on purpose: payload refs may outlive every other static.
  static PayloadPool* pool = new PayloadPool();
  return *pool;
}

int PayloadPool::class_index(std::size_t bytes) const noexcept {
  // Constant-time ceil-log2: hot per-message path (every acquire/release).
  const int w = static_cast<int>(std::bit_width(bytes - 1));
  return w <= min_shift_ ? 0 : w - min_shift_;
}

detail::SlabHeader* PayloadPool::new_block(std::size_t capacity,
                                           bool pooled) {
  void* mem = ::operator new(sizeof(detail::SlabHeader) + capacity,
                             std::align_val_t{kCacheLine});
  auto* h = new (mem) detail::SlabHeader;
  h->capacity = capacity;
  h->owner = this;
  h->pooled = pooled;
  return h;
}

void PayloadPool::destroy_block(detail::SlabHeader* h) noexcept {
  h->~SlabHeader();
  ::operator delete(h, std::align_val_t{kCacheLine});
}

void PayloadPool::charge(StripeCounters& ctr, std::size_t capacity) noexcept {
  ctr.outstanding.fetch_add(1, std::memory_order_relaxed);
  // Charge the block's full capacity (not the logical size): that is what
  // the budgeted caller's memory actually holds.
  const std::uint64_t now =
      outstanding_bytes_.fetch_add(capacity, std::memory_order_relaxed) +
      capacity;
  std::uint64_t peak = peak_outstanding_bytes_.load(std::memory_order_relaxed);
  while (now > peak && !peak_outstanding_bytes_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

PayloadRef PayloadPool::acquire(std::size_t bytes) {
  if (bytes == 0) return {};
  const std::size_t base = my_stripe();
  StripeCounters& ctr = counters_[base % kStripes];

  if (bytes > cfg_.max_slab_bytes) {
    ctr.heap_fallbacks.fetch_add(1, std::memory_order_relaxed);
    charge(ctr, bytes);
    detail::SlabHeader* h = new_block(bytes, /*pooled=*/false);
    return PayloadRef(h, detail::slab_data(h), bytes);
  }

  SizeClass& cls = classes_[class_index(bytes)];
  for (std::size_t i = 0; i < kStripes; ++i) {
    Stripe& stripe = cls.stripes[(base + i) % kStripes];
    detail::SlabHeader* h = nullptr;
    {
      std::lock_guard<Spinlock> g(stripe.mu);
      h = stripe.head;
      if (h != nullptr) {
        stripe.head = h->next_free;
        stripe.free_slabs.store(
            stripe.free_slabs.load(std::memory_order_relaxed) - 1,
            std::memory_order_relaxed);
      }
    }
    if (h != nullptr) {
      ctr.pool_hits.fetch_add(1, std::memory_order_relaxed);
      charge(ctr, h->capacity);
      h->next_free = nullptr;
      h->refs.store(1, std::memory_order_relaxed);
      return PayloadRef(h, detail::slab_data(h), bytes);
    }
  }

  if (cfg_.max_slabs_per_class != 0 &&
      cls.total_slabs.load(std::memory_order_relaxed) >=
          cfg_.max_slabs_per_class) {
    // Pool exhausted for this class: degrade to a one-shot heap block.
    ctr.heap_fallbacks.fetch_add(1, std::memory_order_relaxed);
    charge(ctr, bytes);
    detail::SlabHeader* h = new_block(bytes, /*pooled=*/false);
    return PayloadRef(h, detail::slab_data(h), bytes);
  }

  cls.total_slabs.fetch_add(1, std::memory_order_relaxed);
  ctr.slab_allocs.fetch_add(1, std::memory_order_relaxed);
  charge(ctr, cls.capacity);
  detail::SlabHeader* h = new_block(cls.capacity, /*pooled=*/true);
  return PayloadRef(h, detail::slab_data(h), bytes);
}

void PayloadPool::release_slab(detail::SlabHeader* h) noexcept {
  // Last reference dropped; the owner decides between recycle and free.
  h->owner->on_release(h);
}

void PayloadPool::on_release(detail::SlabHeader* h) noexcept {
  const std::size_t base = my_stripe();
  StripeCounters& ctr = counters_[base % kStripes];
  ctr.releases.fetch_add(1, std::memory_order_relaxed);
  ctr.outstanding.fetch_sub(1, std::memory_order_relaxed);
  outstanding_bytes_.fetch_sub(h->capacity, std::memory_order_relaxed);
  if (!h->pooled) {
    destroy_block(h);
    return;
  }
  SizeClass& cls = classes_[class_index(h->capacity)];
  Stripe& stripe = cls.stripes[base % kStripes];
  {
    std::lock_guard<Spinlock> g(stripe.mu);
    h->next_free = stripe.head;
    stripe.head = h;
    stripe.free_slabs.store(
        stripe.free_slabs.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }
}

PayloadPool::Stats PayloadPool::stats() const {
  Stats s;
  std::int64_t outstanding = 0;
  for (const StripeCounters& c : counters_) {
    s.pool_hits += c.pool_hits.load(std::memory_order_relaxed);
    s.slab_allocs += c.slab_allocs.load(std::memory_order_relaxed);
    s.heap_fallbacks += c.heap_fallbacks.load(std::memory_order_relaxed);
    s.releases += c.releases.load(std::memory_order_relaxed);
    outstanding += c.outstanding.load(std::memory_order_relaxed);
  }
  // Every acquire is exactly one of a hit, a new slab or a heap fallback.
  s.acquires = s.pool_hits + s.slab_allocs + s.heap_fallbacks;
  for (int c = 0; c < num_classes_; ++c) {
    for (const Stripe& stripe : classes_[c].stripes) {
      s.free_slabs += stripe.free_slabs.load(std::memory_order_relaxed);
    }
  }
  // A live counter, not acquires - releases: reset_stats() zeroes the
  // flow counters between benchmark trials while buffers stay alive. The
  // stripes are read one after another, so a concurrent cross-stripe
  // handoff can make the sum transiently negative; report that as zero.
  s.outstanding = outstanding > 0 ? static_cast<std::uint64_t>(outstanding)
                                  : 0;
  s.outstanding_bytes = outstanding_bytes_.load(std::memory_order_relaxed);
  s.peak_outstanding_bytes =
      peak_outstanding_bytes_.load(std::memory_order_relaxed);
  return s;
}

void PayloadPool::reset_stats() {
  for (StripeCounters& c : counters_) {
    c.pool_hits.store(0, std::memory_order_relaxed);
    c.slab_allocs.store(0, std::memory_order_relaxed);
    c.heap_fallbacks.store(0, std::memory_order_relaxed);
    c.releases.store(0, std::memory_order_relaxed);
  }
  // Re-arm the high-water to the bytes still live, so the next trial's
  // peak measures that trial alone.
  peak_outstanding_bytes_.store(
      outstanding_bytes_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

}  // namespace tram::util
