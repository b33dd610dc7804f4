#pragma once
///
/// \file local_fifo.hpp
/// \brief Unbounded single-threaded FIFO on a growable ring.
///
/// The owning thread's half of a worker inbox (rt::Worker): a message the
/// worker enqueues for itself — a self-send, or in non-SMP mode any
/// transport delivery, which runs on the worker's own thread — needs none
/// of the MPSC queue's machinery. No atomics and no per-element node: a
/// push is a slot move and an index bump, and the ring doubles when full,
/// so a steady state allocates nothing.
///
/// Not thread-safe: one thread pushes and pops.

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace tram::util {

template <typename T>
class LocalFifo {
 public:
  /// Allocates nothing until the first push (a worker's expedited FIFO
  /// may never see a message), then kInitialCapacity slots.
  LocalFifo() = default;

  LocalFifo(const LocalFifo&) = delete;
  LocalFifo& operator=(const LocalFifo&) = delete;

  void push(T&& value) {
    if (tail_ - head_ == capacity_) {
      grow(capacity_ == 0 ? kInitialCapacity : 2 * capacity_);
    }
    slots_[tail_ & (capacity_ - 1)] = std::move(value);
    ++tail_;
  }

  /// Moves the oldest element out; nullopt when empty. The slot is free
  /// before the caller sees the value, so the caller may push (even grow
  /// the ring) while it holds it.
  std::optional<T> try_pop() {
    if (head_ == tail_) return std::nullopt;
    T out = std::move(slots_[head_ & (capacity_ - 1)]);
    ++head_;
    return out;
  }

  bool empty() const noexcept { return head_ == tail_; }
  std::size_t capacity() const noexcept { return capacity_; }

  static constexpr std::size_t kInitialCapacity = 16;

 private:
  /// Re-lay the live elements, in order, into `cap` slots (a power of two).
  void grow(std::size_t cap) {
    std::vector<T> bigger(cap);
    for (std::size_t i = head_; i != tail_; ++i) {
      bigger[i - head_] = std::move(slots_[i & (capacity_ - 1)]);
    }
    tail_ -= head_;
    head_ = 0;
    slots_.swap(bigger);
    capacity_ = cap;
  }

  std::vector<T> slots_;
  std::size_t capacity_ = 0;  // slots_.size(), a power of two (or 0)
  std::size_t head_ = 0;      // next pop
  std::size_t tail_ = 0;      // next push
};

}  // namespace tram::util
