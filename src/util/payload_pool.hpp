#pragma once
///
/// \file payload_pool.hpp
/// \brief Process-local slab pool of refcounted message payload buffers.
///
/// The paper's central premise is that fine-grained messaging is dominated
/// by per-message costs; a heap allocation (and free) per message payload
/// is exactly such a cost. This pool removes it: payloads live in slabs
/// drawn from per-size-class free lists, handed out as refcounted
/// PayloadRef handles. The steady-state insert -> ship -> deliver path
/// acquires a recycled slab, fills it in place, moves the handle through
/// rt::Message and net::Packet without copying, and returns the slab to
/// the free list when the last reference drops.
///
/// Design:
///  - Size classes are powers of two from min_slab_bytes to max_slab_bytes;
///    a request rounds up to its class. Larger requests (or requests past a
///    configured per-class slab cap) fall back to one-shot heap blocks that
///    behave identically but are freed on release — the pool degrades, it
///    never fails.
///  - Each class keeps kStripes spinlocked LIFO free lists, one cache line
///    each. A thread takes a stripe index round-robin on its first pool
///    call and keeps it, so threads that start together (up to kStripes
///    of them) never share a stripe; an empty stripe steals from its
///    neighbours before allocating a new slab.
///  - The flow counters (hits, slab allocs, heap fallbacks, releases,
///    outstanding buffers) are per stripe index, one padded line each, and
///    a stripe's free-slab count lives in the stripe; stats() sums them.
///    So an acquire or release writes no line that every thread writes,
///    except outstanding_bytes and, on a new high, its peak: those stay
///    global so the peak, which budgets are checked against, is exact.
///  - A PayloadRef may be a *view* into another ref's slab (subref):
///    destination-side scatter ships segments of one inbound buffer as
///    zero-copy messages, and the slab recycles when the last segment is
///    delivered.
///
/// Thread-safety: acquire/release and refcounting are safe from any
/// thread. Mutation (data() writes, resize) requires the caller to hold
/// the only reference, which all runtime paths do by construction.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "util/spinlock.hpp"
#include "util/sync.hpp"

namespace tram::util {

class PayloadPool;

namespace detail {

/// Control block preceding every slab's payload bytes. Cache-line sized so
/// the payload starts 64-byte aligned (sound for any trivially-copyable
/// wire entry type).
struct alignas(kCacheLine) SlabHeader {
  /// Refcount rides the sync seam: under TRAM_SYNC_DEBUG every inc/dec is
  /// a deterministic-scheduler yield point, which is what licenses the
  /// relaxed/release orders in PayloadRef below.
  DefaultSync::Atomic<std::uint32_t> refs{1};
  /// Usable payload bytes following this header.
  std::size_t capacity = 0;
  /// Pool that created this slab (stats + recycling on last release).
  PayloadPool* owner = nullptr;
  /// Pooled slabs recycle to a free list; fallback blocks are freed.
  bool pooled = false;
  /// Free-list link, valid only while cached in the pool.
  SlabHeader* next_free = nullptr;
};

inline std::byte* slab_data(SlabHeader* h) noexcept {
  return reinterpret_cast<std::byte*>(h + 1);
}
inline const std::byte* slab_data(const SlabHeader* h) noexcept {
  return reinterpret_cast<const std::byte*>(h + 1);
}

}  // namespace detail

/// Refcounted handle to a pooled payload buffer. Move-first (moves are
/// pointer swaps); copying shares the buffer and bumps the refcount. A
/// default-constructed ref is empty and acquires storage from the global
/// pool on first resize.
class PayloadRef {
 public:
  PayloadRef() noexcept = default;
  ~PayloadRef() { release(); }

  PayloadRef(const PayloadRef& o) noexcept
      : hdr_(o.hdr_), data_(o.data_), size_(o.size_) {
    if (hdr_) hdr_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  PayloadRef& operator=(const PayloadRef& o) noexcept {
    if (this != &o) {
      if (o.hdr_) o.hdr_->refs.fetch_add(1, std::memory_order_relaxed);
      release();
      hdr_ = o.hdr_;
      data_ = o.data_;
      size_ = o.size_;
    }
    return *this;
  }
  PayloadRef(PayloadRef&& o) noexcept
      : hdr_(o.hdr_), data_(o.data_), size_(o.size_) {
    o.hdr_ = nullptr;
    o.data_ = nullptr;
    o.size_ = 0;
  }
  PayloadRef& operator=(PayloadRef&& o) noexcept {
    if (this != &o) {
      release();
      hdr_ = o.hdr_;
      data_ = o.data_;
      size_ = o.size_;
      o.hdr_ = nullptr;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Bytes available at data() without reallocating (0 for an empty ref).
  /// For a subref this is the tail of the slab from the view's offset.
  std::size_t capacity() const noexcept {
    if (!hdr_) return 0;
    return hdr_->capacity -
           static_cast<std::size_t>(data_ - detail::slab_data(hdr_));
  }

  const std::byte* data() const noexcept { return data_; }
  /// Mutable access: caller must hold the only reference (all runtime fill
  /// paths do — buffers are filled before they are shared).
  std::byte* data() noexcept { return data_; }

  std::span<const std::byte> span() const noexcept { return {data_, size_}; }
  std::span<std::byte> span() noexcept { return {data_, size_}; }

  /// unique() keeps acquire: callers use it to justify *mutating* the
  /// buffer (resize's in-place path), so the load must synchronize with
  /// the release decrement of the last other owner — otherwise the write
  /// could race that owner's still-unpublished reads.
  bool unique() const noexcept {
    return hdr_ && hdr_->refs.load(std::memory_order_acquire) == 1;
  }
  /// Relaxed: diagnostic counter for tests/stats; nobody touches buffer
  /// memory on the strength of this value.
  std::uint32_t use_count() const noexcept {
    return hdr_ ? hdr_->refs.load(std::memory_order_relaxed) : 0;
  }

  /// Set the logical size. Shrinking and growing within capacity() on a
  /// unique ref are O(1) (grown bytes are zero-filled, matching the
  /// std::vector semantics the runtime had before pooling); anything else
  /// acquires a fresh buffer and copies the prefix.
  void resize(std::size_t n);

  /// A view of [offset, offset+len) sharing this ref's slab: the slab is
  /// pinned until every subref drops. Used for zero-copy scatter of
  /// pre-segmented inbound buffers.
  PayloadRef subref(std::size_t offset, std::size_t len) const noexcept {
    PayloadRef r;
    if (hdr_) {
      hdr_->refs.fetch_add(1, std::memory_order_relaxed);
      r.hdr_ = hdr_;
      r.data_ = data_ + offset;
      r.size_ = len;
    }
    return r;
  }

 private:
  friend class PayloadPool;
  PayloadRef(detail::SlabHeader* h, std::byte* d, std::size_t n) noexcept
      : hdr_(h), data_(d), size_(n) {}

  void release() noexcept;

  detail::SlabHeader* hdr_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Typed facade over a PayloadRef holding an array of T: what PpBuffer
/// seals evaluate to. Iterable/indexable like the vector it replaced, but
/// ships as a message payload without a copy (take_ref()).
template <typename T>
class PooledBatch {
 public:
  PooledBatch() noexcept = default;
  explicit PooledBatch(PayloadRef ref) noexcept : ref_(std::move(ref)) {}

  std::size_t size() const noexcept { return ref_.size() / sizeof(T); }
  bool empty() const noexcept { return ref_.empty(); }

  const T* data() const noexcept {
    return reinterpret_cast<const T*>(ref_.data());
  }
  T* data() noexcept { return reinterpret_cast<T*>(ref_.data()); }

  const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  T& operator[](std::size_t i) noexcept { return data()[i]; }

  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size(); }
  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size(); }

  const PayloadRef& ref() const noexcept { return ref_; }
  /// Surrender the underlying buffer (e.g. into Message::payload).
  PayloadRef take_ref() && noexcept { return std::move(ref_); }

 private:
  PayloadRef ref_;
};

/// The slab pool. One global() instance serves the whole process; tests
/// construct private pools to exercise exhaustion and recycling.
class PayloadPool {
 public:
  struct Config {
    /// Smallest slab class, bytes (power of two).
    std::size_t min_slab_bytes = 64;
    /// Largest pooled class, bytes; bigger requests go to the heap.
    std::size_t max_slab_bytes = std::size_t{1} << 20;
    /// Cap on slabs a class may ever allocate (0 = unbounded). Acquires
    /// past the cap fall back to one-shot heap blocks.
    std::size_t max_slabs_per_class = 0;
  };

  /// Counter snapshot. recycle_rate() is the zero-copy claim's metric: the
  /// fraction of acquires served from a free list instead of an allocation.
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t slab_allocs = 0;
    std::uint64_t heap_fallbacks = 0;
    std::uint64_t releases = 0;
    std::uint64_t free_slabs = 0;
    /// Live buffers right now (not affected by reset_stats()).
    std::uint64_t outstanding = 0;
    /// Slab capacity held by live buffers right now (live counter, like
    /// outstanding). Counts full size-class capacity, not logical sizes —
    /// the bytes a memory budget actually pays for.
    std::uint64_t outstanding_bytes = 0;
    /// High-water mark of outstanding_bytes. reset_stats() re-arms it to
    /// the current outstanding_bytes, so per-trial peaks are measurable.
    std::uint64_t peak_outstanding_bytes = 0;

    double recycle_rate() const {
      return acquires == 0
                 ? 0.0
                 : static_cast<double>(pool_hits) /
                       static_cast<double>(acquires);
    }
  };

  PayloadPool();
  explicit PayloadPool(Config cfg);
  /// All refs into this pool must be dropped first (the global pool is
  /// immortal, so this only binds test-local pools).
  ~PayloadPool();

  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  /// Hand out a buffer of exactly `bytes` logical size (capacity is the
  /// enclosing size class). bytes == 0 returns an empty ref. Thread-safe.
  PayloadRef acquire(std::size_t bytes);

  Stats stats() const;
  /// Zero the counters (not the cached slabs) between benchmark trials.
  void reset_stats();

  /// The process-wide pool used by the runtime message path. Never
  /// destroyed (payloads may be in flight during static teardown).
  static PayloadPool& global();

 private:
  friend class PayloadRef;
  static constexpr std::size_t kStripes = 8;

  struct alignas(kCacheLine) Stripe {
    Spinlock mu;
    detail::SlabHeader* head = nullptr;
    /// Slabs on this list. Written only under mu; atomic so stats() can
    /// read it without the lock.
    std::atomic<std::uint64_t> free_slabs{0};
  };
  struct SizeClass {
    std::size_t capacity = 0;
    std::atomic<std::size_t> total_slabs{0};
    Stripe stripes[kStripes];
  };
  /// Flow counters of one stripe index. Shared only by threads that drew
  /// the same index, hence still atomic read-modify-writes.
  struct alignas(kCacheLine) StripeCounters {
    std::atomic<std::uint64_t> pool_hits{0};
    std::atomic<std::uint64_t> slab_allocs{0};
    std::atomic<std::uint64_t> heap_fallbacks{0};
    std::atomic<std::uint64_t> releases{0};
    /// Acquires minus releases made on this index: a buffer acquired on
    /// one thread and released on another leaves one stripe positive and
    /// another negative; only the sum means anything.
    std::atomic<std::int64_t> outstanding{0};
  };

  static void release_slab(detail::SlabHeader* h) noexcept;
  void on_release(detail::SlabHeader* h) noexcept;

  /// Account a newly handed-out buffer of `capacity` bytes.
  void charge(StripeCounters& ctr, std::size_t capacity) noexcept;
  detail::SlabHeader* new_block(std::size_t capacity, bool pooled);
  static void destroy_block(detail::SlabHeader* h) noexcept;

  int class_index(std::size_t bytes) const noexcept;

  Config cfg_;
  int num_classes_ = 0;
  int min_shift_ = 0;
  std::unique_ptr<SizeClass[]> classes_;

  StripeCounters counters_[kStripes];
  alignas(kCacheLine) std::atomic<std::uint64_t> outstanding_bytes_{0};
  std::atomic<std::uint64_t> peak_outstanding_bytes_{0};
};

inline void PayloadRef::release() noexcept {
  if (!hdr_) return;
  // Classic split refcount-drop: every decrement releases this owner's
  // accesses, and only the thread that hits zero pays an acquire (as a
  // fence) to pull in every other owner's accesses before recycling the
  // slab. Cheaper than acq_rel on all decrements; checked by the
  // DebugSync interleaving tests. TSan cannot model standalone fences
  // (gcc warns -Wtsan and reports the recycled slab's next writer as
  // racing its previous reader), so TSan builds pay acq_rel on every
  // decrement instead — same ordering, visible to the checker.
#if defined(__SANITIZE_THREAD__) || defined(TRAM_TSAN_FENCES)
  if (hdr_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    PayloadPool::release_slab(hdr_);
  }
#else
  if (hdr_->refs.fetch_sub(1, std::memory_order_release) == 1) {
    DefaultSync::fence(std::memory_order_acquire);
    PayloadPool::release_slab(hdr_);
  }
#endif
  hdr_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

inline void PayloadRef::resize(std::size_t n) {
  if (hdr_ && n <= capacity() && unique()) {
    if (n > size_) std::memset(data_ + size_, 0, n - size_);
    size_ = n;
    return;
  }
  PayloadPool& pool =
      hdr_ && hdr_->owner ? *hdr_->owner : PayloadPool::global();
  PayloadRef grown = pool.acquire(n);
  const std::size_t keep = size_ < n ? size_ : n;
  if (keep != 0) std::memcpy(grown.data(), data_, keep);
  if (n > keep) std::memset(grown.data() + keep, 0, n - keep);
  *this = std::move(grown);
}

}  // namespace tram::util
