#include "runtime/worker.hpp"

#include <cstdio>
#include <cstdlib>
#include <functional>

#include "runtime/machine.hpp"
#include "runtime/process.hpp"
#include "runtime/transport.hpp"
#include "trace/trace.hpp"
#include "util/spinlock.hpp"
#include "util/timebase.hpp"

namespace tram::rt {

Worker::Worker(Machine& machine, Process& proc, WorkerId id,
               LocalWorkerId rank)
    : machine_(machine), proc_(proc), id_(id), rank_(rank) {}

namespace {
/// The worker the calling thread drives, or nullptr on any other thread
/// (main, comm threads, test threads). Set by Machine::run.
thread_local Worker* current_worker = nullptr;
}  // namespace

void Worker::bind_current_thread() {
  current_worker = this;
  bound_.store(true, std::memory_order_relaxed);
}

void Worker::unbind_current_thread() {
  bound_.store(false, std::memory_order_relaxed);
  current_worker = nullptr;
}

void Worker::check_owner(const char* what) const {
  if (current_worker != this && bound_.load(std::memory_order_relaxed))
      [[unlikely]] {
    std::fprintf(stderr, "Worker::%s on foreign thread (worker %d)\n", what,
                 id_);
    std::abort();
  }
}

void Worker::enqueue(Message&& m) {
  if (current_worker == this) {
    (m.expedited ? own_expedited_inbox_ : own_inbox_).push(std::move(m));
  } else {
    (m.expedited ? expedited_inbox_ : inbox_).push(std::move(m));
  }
}

bool Worker::inbox_empty() const {
  return own_inbox_.empty() && own_expedited_inbox_.empty() &&
         inbox_.empty_approx() && expedited_inbox_.empty_approx();
}

void Worker::send(Message&& m) {
  check_owner("send");
  bump(sent_);
  const auto& topo = machine_.topology();
  const ProcId dst_proc = topo.proc_of_worker(m.dst_worker);
  if (dst_proc == proc_.id()) {
    // Shared-memory local delivery: straight into the peer's inbox.
    proc_.worker(topo.local_rank(m.dst_worker)).enqueue(std::move(m));
    return;
  }
  if (machine_.config().dedicated_comm) {
    // Hand off to the comm thread; spin on backpressure (the ring drains at
    // the comm thread's processing rate — this wait is the SMP serialization
    // the paper measures).
    auto& ring = proc_.egress(rank_);
    while (!ring.try_push(std::move(m))) {
      util::cpu_relax();
    }
  } else {
    // Non-SMP: this worker does its own communication, paying the
    // per-message processing cost itself.
    machine_.transport().send(proc_.id(), std::move(m));
  }
}

void Worker::send_to_proc(ProcId dst, Message&& m) {
  if (dst == proc_.id()) {
    // Process-addressed local message: pick a local worker directly.
    m.dst_worker = proc_.pick_delivery_worker();
    send(std::move(m));
    return;
  }
  check_owner("send_to_proc");
  m.dst_worker = kInvalidWorker;
  m.dst_proc_hint = dst;
  bump(sent_);
  if (machine_.config().dedicated_comm) {
    auto& ring = proc_.egress(rank_);
    while (!ring.try_push(std::move(m))) {
      util::cpu_relax();
    }
  } else {
    machine_.transport().send(proc_.id(), std::move(m));
  }
}

void Worker::dispatch(Message&& m) {
  const EndpointId ep = m.endpoint;
  machine_.endpoints().get(ep)(*this, std::move(m));
  // After the handler: every send it made is counted before this handling
  // is (the order quiescence detection's argument needs).
  bump(handled_);
}

std::size_t Worker::drain(util::LocalFifo<Message>& own,
                          util::MpscQueue<Message>& shared,
                          std::size_t budget) {
  std::size_t n = 0;
  while (n < budget) {
    const std::size_t before = n;
    if (auto m = own.try_pop()) {
      dispatch(std::move(*m));
      ++n;
    }
    if (n < budget) {
      if (auto m = shared.try_pop()) {
        dispatch(std::move(*m));
        ++n;
      }
    }
    if (n == before) break;
  }
  return n;
}

std::size_t Worker::progress() {
  check_owner("progress");
  // Non-SMP: this worker is its process's only communicator, so every
  // progress() pass advances the transport before draining the inboxes —
  // fabric ingress, fault-layer releases, and reliability acks, timers and
  // pacing. SMP leaves polling to the comm thread.
  const RuntimeConfig& cfg = machine_.config();
  if (!cfg.dedicated_comm) machine_.transport().poll(proc_);
  // Span timestamp only when a batch is plausibly non-empty: idle workers
  // spin through here, and an unconditional clock read per spin is the
  // kind of traced-run overhead perfbench's bench.trace_overhead_pct
  // measures.
  std::uint64_t t0 = 0;
  if (trace::enabled() && !inbox_empty()) t0 = trace::maybe_now();
  // Expedited messages first (Charm++ expedited entry methods).
  std::size_t n =
      drain(own_expedited_inbox_, expedited_inbox_, kProgressBatch);
  n += drain(own_inbox_, inbox_, kProgressBatch - n);
  // One span per non-empty batch: the worker's busy time is the sum of
  // these, everything between them is idle/overhead.
  if (n > 0) trace::complete(trace::Cat::kRuntime, trace::kWorkerBusy, t0, n);
  return n;
}

void Worker::run_idle_hooks() {
  for (auto& hook : idle_hooks_) hook(*this);
}

void Worker::scheduler_loop() {
  const auto& cfg = machine_.config();
  std::uint32_t idle_round = 0;
  while (!machine_.stopping()) {
    const std::size_t n = progress();
    if (n > 0) {
      idle_round = 0;
      continue;
    }
    // Idle: let the application flush / advance deferred work, then back
    // off progressively so oversubscribed runs do not thrash.
    if (idle_round % 8 == 0) run_idle_hooks();
    ++idle_round;
    // Non-SMP workers never nap: they are also the comm pump and a nap
    // would stretch every modeled arrival they owe their peers.
    util::idle_backoff(idle_round, /*may_nap=*/cfg.dedicated_comm);
  }
}

}  // namespace tram::rt
