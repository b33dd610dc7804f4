#pragma once
///
/// \file worker.hpp
/// \brief A worker PE: message-driven scheduler bound to one thread.
///
/// Equivalent of a Charm++ PE: an OS thread with an inbox of messages,
/// dispatching each to its endpoint handler. The inbox has two classes,
/// expedited and ordinary (expedited messages are handled first — the
/// paper prioritizes TramLib messages this way), and each class has two
/// queues: an MPSC queue for messages other threads enqueue (sibling
/// workers, the comm thread), and a single-threaded FIFO for messages the
/// worker enqueues on its own thread (self-sends, and in non-SMP mode every
/// transport delivery). The FIFO costs no atomic and no allocation per
/// message; per-producer FIFO order holds in each class either way.
///
/// Workers expose two integration points used by TramLib and applications:
///  - idle hooks: run when the inbox is empty (flush-on-idle lives here);
///  - pending counters: report application-level buffered work so that
///    quiescence detection does not fire while items sit in aggregation
///    buffers or deferred queues.

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/message.hpp"
#include "util/local_fifo.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/types.hpp"

namespace tram::rt {

class Machine;
class Process;

class Worker {
 public:
  Worker(Machine& machine, Process& proc, WorkerId id, LocalWorkerId rank);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  WorkerId id() const noexcept { return id_; }
  LocalWorkerId local_rank() const noexcept { return rank_; }
  Process& process() noexcept { return proc_; }
  Machine& machine() noexcept { return machine_; }

  /// Send a message. Same-process destinations are delivered directly into
  /// the target worker's inbox (shared memory); remote destinations go via
  /// the comm thread and fabric. dst_worker must be valid unless the
  /// endpoint is process-addressed (send_to_proc below).
  void send(Message&& m);

  /// Send a message addressed to a process rather than a specific worker;
  /// the receiving side picks a local worker (round-robin). Used by the
  /// WPs/WsP/PP schemes whose buffers target processes.
  void send_to_proc(ProcId dst, Message&& m);

  /// Deliver a message into this worker's inbox (called by peers within the
  /// process, by the comm thread, and by this worker itself). Thread-safe.
  /// On the worker's own thread it takes the single-threaded FIFO.
  void enqueue(Message&& m);

  /// Handle up to kProgressBatch pending messages. Returns the number
  /// handled. Call from compute loops that also generate messages so
  /// that receives interleave with sends (message-driven execution). In
  /// non-SMP mode this is also where the worker pumps its process's
  /// transport: each call first polls it (inbound delivery, forwarding,
  /// reliability acks and retransmits), so a source loop that calls
  /// progress() keeps its peers' traffic moving while it inserts.
  std::size_t progress();

  /// Scheduler loop: handle messages until the machine signals stop,
  /// running idle hooks when the inbox goes empty. Called by the runtime
  /// after the application main returns.
  void scheduler_loop();

  /// Register a callback run whenever this worker finds its inbox empty.
  /// TramLib registers flush-on-idle here.
  void add_idle_hook(std::function<void(Worker&)> hook) {
    idle_hooks_.push_back(std::move(hook));
  }

  /// Register a counter of application-level pending work (buffered items,
  /// deferred updates). The machine is quiescent only when all pending
  /// counters are zero.
  void add_pending_counter(std::function<std::uint64_t()> counter) {
    pending_counters_.push_back(std::move(counter));
  }

  std::uint64_t pending() const {
    std::uint64_t total = 0;
    for (const auto& c : pending_counters_) total += c();
    return total;
  }

  /// Deterministic per-worker RNG stream (re-seeded by Machine::run).
  util::Xoshiro256& rng() noexcept { return rng_; }
  void reseed(std::uint64_t seed) {
    rng_ = util::Xoshiro256::for_stream(seed, static_cast<std::uint64_t>(id_));
  }

  /// Messages handled by this worker since the run started. Acquire:
  /// quiescence detection relies on every send that led to a counted
  /// handling being visible to its later reads of sent_count().
  std::uint64_t handled_count() const noexcept {
    return handled_.load(std::memory_order_acquire);
  }
  /// Runtime messages this worker has sent since the run started.
  std::uint64_t sent_count() const noexcept {
    return sent_.load(std::memory_order_acquire);
  }

  /// Remove all idle hooks / pending counters (between benchmark configs).
  void clear_hooks() {
    idle_hooks_.clear();
    pending_counters_.clear();
  }

 private:
  friend class Machine;
  friend class CommThread;

  /// Bind / unbind the calling thread as the one running this worker
  /// (Machine::run brackets each worker thread with these).
  void bind_current_thread();
  void unbind_current_thread();
  /// Abort unless the caller is the bound thread (or nothing is bound).
  void check_owner(const char* what) const;
  /// Count one send / one handled message. Each counter has one writer,
  /// the owning thread, so a plain load and a release store replace a
  /// locked read-modify-write.
  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }
  /// Dispatch one message to its handler and account it.
  void dispatch(Message&& m);
  /// Dispatch up to budget messages of one class, alternating between the
  /// own-thread FIFO and the MPSC queue so neither starves the other.
  std::size_t drain(util::LocalFifo<Message>& own,
                    util::MpscQueue<Message>& shared, std::size_t budget);
  /// True when no queue holds a message (exact only while quiesced).
  bool inbox_empty() const;
  /// Run idle hooks once; returns true if any work might have been created.
  void run_idle_hooks();

  Machine& machine_;
  Process& proc_;
  const WorkerId id_;
  const LocalWorkerId rank_;

  util::MpscQueue<Message> inbox_;
  util::MpscQueue<Message> expedited_inbox_;
  util::LocalFifo<Message> own_inbox_;
  util::LocalFifo<Message> own_expedited_inbox_;
  /// Debug guard: set while a thread is bound (Machine::run), so send and
  /// progress from any other thread abort. Read only when the caller's
  /// thread-local binding is not this worker.
  std::atomic<bool> bound_{false};

  std::vector<std::function<void(Worker&)>> idle_hooks_;
  std::vector<std::function<std::uint64_t()>> pending_counters_;
  util::Xoshiro256 rng_;
  /// The owning thread's counters, on a line of their own: quiescence
  /// detection reads them from another thread.
  alignas(util::kCacheLine) std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> handled_{0};
};

}  // namespace tram::rt
