#pragma once
///
/// \file mpsc_queue.hpp
/// \brief Unbounded multi-producer single-consumer queue.
///
/// This is the cross-thread half of a worker inbox — sibling workers and
/// the comm thread enqueue runtime messages, only the owning worker
/// dequeues; messages a worker enqueues on its own thread take the
/// single-threaded util::LocalFifo instead — and the fabric's per-process
/// ingress. Each push allocates a node. We use the Vyukov intrusive
/// MPSC algorithm generalized to non-intrusive nodes: producers swing an
/// atomic head with a single exchange (wait-free), the consumer follows next
/// pointers. The consumer can observe a transiently broken link while a
/// producer is between exchange and store; `try_pop` treats this as "empty",
/// which is safe because the producer completes promptly and the caller
/// polls.
///
/// Memory orders: the producer's exchange(acq_rel) + store(release) and the
/// consumer's load(acquire) on `next` are the load-bearing pair (they
/// publish the node's value). empty_approx() is an advisory idle heuristic
/// whose result is stale the instant it returns, so its load is relaxed;
/// pop_count is a single-writer monotone counter (a diagnostic: the
/// consumer's plain load + store), also relaxed. Both relaxations are
/// exercised by util_sync_test under the DebugSync deterministic
/// scheduler.

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>

#include "util/sync.hpp"

namespace tram::util {

/// Unbounded MPSC FIFO (per-producer FIFO, global order unspecified).
/// T must be movable. pop() must only be called from one consumer thread.
template <typename T, typename Sync = DefaultSync>
class MpscQueue {
 public:
  MpscQueue() {
    Node* stub = new Node();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  ~MpscQueue() {
    // Drain remaining nodes, including the stub.
    Node* node = tail_;
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  /// Producer side; wait-free (single atomic exchange). Thread-safe.
  void push(T value) {
    Node* node = new Node(std::move(value));
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  /// Consumer side; single-threaded. Returns nullopt when empty (or when a
  /// producer is mid-publish — caller polls, so this is indistinguishable
  /// from empty and equally correct).
  std::optional<T> try_pop() {
    Node* tail = tail_;
    Node* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return std::nullopt;
    T out = std::move(next->value);
    tail_ = next;
    delete tail;
    // Single writer (the consumer): a plain load and store, no locked RMW.
    pop_count_.store(pop_count_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    return out;
  }

  /// True when the queue looks empty to the consumer. Producers racing with
  /// this call may make it stale immediately; use only for idle heuristics.
  /// Relaxed: the caller acts on the *value* only (poll again / go idle),
  /// never on memory published by the racing push, so no ordering is needed.
  bool empty_approx() const {
    return tail_->next.load(std::memory_order_relaxed) == nullptr;
  }

  /// Total elements ever popped (consumer-side monotone counter; exact
  /// when read on the consumer thread or after it is joined).
  std::size_t pop_count() const {
    return pop_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    Node() = default;
    explicit Node(T&& v) : value(std::move(v)) {}
    typename Sync::template Atomic<Node*> next{nullptr};
    T value{};
  };

  alignas(64) typename Sync::template Atomic<Node*> head_;  // producers
  alignas(64) Node* tail_;                                  // consumer
  typename Sync::template Atomic<std::size_t> pop_count_{0};
};

}  // namespace tram::util
