#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "runtime/machine.hpp"
#include "util/spinlock.hpp"
#include "util/timebase.hpp"

namespace {

using namespace tram;
using rt::Machine;
using rt::Message;
using rt::RuntimeConfig;
using rt::Worker;
using util::Topology;

RuntimeConfig testing_cfg() { return RuntimeConfig::testing(); }

TEST(PayloadCodec, RoundTripsPods) {
  struct Pod {
    int a;
    double b;
  };
  std::vector<Pod> items{{1, 2.5}, {3, 4.5}};
  const auto bytes = rt::encode_payload(std::span<const Pod>(items));
  EXPECT_EQ(bytes.size(), 2 * sizeof(Pod));
  const auto back = rt::decode_payload<Pod>(bytes);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].a, 1);
  EXPECT_DOUBLE_EQ(back[1].b, 4.5);
  // Single-item convenience overload.
  const auto one = rt::encode_payload<int>(42);
  EXPECT_EQ(rt::decode_payload<int>(one)[0], 42);
}

TEST(Machine, RunsMainOnEveryWorkerExactlyOnce) {
  Machine m(Topology(2, 2, 2), testing_cfg());
  std::vector<util::Padded<int>> calls(8);
  m.run([&](Worker& w) { calls[w.id()].value++; });
  for (const auto& c : calls) EXPECT_EQ(c.value, 1);
}

TEST(Machine, LocalAndRemoteDelivery) {
  Machine m(Topology(2, 2, 2), testing_cfg());
  std::atomic<int> sum{0};
  const EndpointId ep = m.register_endpoint([&](Worker& w, Message&& msg) {
    sum += rt::decode_payload<int>(msg)[0] * (w.id() + 1);
  });
  m.run([&](Worker& w) {
    if (w.id() != 0) return;
    for (WorkerId dst = 0; dst < 8; ++dst) {
      Message msg;
      msg.endpoint = ep;
      msg.dst_worker = dst;
      msg.src_worker = 0;
      msg.payload = rt::encode_payload<int>(1);
      w.send(std::move(msg));
    }
  });
  EXPECT_EQ(sum.load(), 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8);
}

TEST(Machine, SendToProcReachesSomeWorkerOfThatProc) {
  Machine m(Topology(2, 2, 2), testing_cfg());
  std::atomic<int> hits{0};
  std::atomic<int> wrong_proc{0};
  const EndpointId ep = m.register_endpoint([&](Worker& w, Message&&) {
    hits++;
    if (m.topology().proc_of_worker(w.id()) != 3) wrong_proc++;
  });
  m.run([&](Worker& w) {
    if (w.id() != 0) return;
    for (int i = 0; i < 10; ++i) {
      Message msg;
      msg.endpoint = ep;
      msg.src_worker = 0;
      w.send_to_proc(3, std::move(msg));
    }
  });
  EXPECT_EQ(hits.load(), 10);
  EXPECT_EQ(wrong_proc.load(), 0);
}

TEST(Machine, HandlerGeneratedMessagesAreDrainedByQd) {
  // A relay chain: each hop forwards until ttl hits zero. Quiescence must
  // not fire while hops remain.
  Machine m(Topology(2, 2, 2), testing_cfg());
  std::atomic<int> hops{0};
  EndpointId ep = -1;
  ep = m.register_endpoint([&](Worker& w, Message&& msg) {
    const int ttl = rt::decode_payload<int>(msg)[0];
    hops++;
    if (ttl > 0) {
      Message next;
      next.endpoint = ep;
      next.dst_worker = (w.id() + 1) % 8;
      next.src_worker = w.id();
      next.payload = rt::encode_payload<int>(ttl - 1);
      w.send(std::move(next));
    }
  });
  m.run([&](Worker& w) {
    if (w.id() != 0) return;
    Message msg;
    msg.endpoint = ep;
    msg.dst_worker = 1;
    msg.src_worker = 0;
    msg.payload = rt::encode_payload<int>(99);
    w.send(std::move(msg));
  });
  EXPECT_EQ(hops.load(), 100);
}

TEST(Machine, ExpeditedHandledBeforeOrdinary) {
  // Preload one worker's inboxes while it is blocked in main, then check
  // the expedited message is dispatched first.
  Machine m(Topology(1, 1, 2), testing_cfg());
  std::vector<int> order;
  util::Spinlock order_mu;
  const EndpointId ep = m.register_endpoint([&](Worker&, Message&& msg) {
    std::lock_guard<util::Spinlock> g(order_mu);
    order.push_back(rt::decode_payload<int>(msg)[0]);
  });
  m.run([&](Worker& w) {
    if (w.id() == 0) {
      // Fill worker 1's inboxes while it waits at the barrier: the
      // expedited message is sent LAST but must be dispatched FIRST.
      for (int i = 0; i < 3; ++i) {
        Message ordinary;
        ordinary.endpoint = ep;
        ordinary.dst_worker = 1;
        ordinary.src_worker = 0;
        ordinary.payload = rt::encode_payload<int>(i);
        w.send(std::move(ordinary));
      }
      Message fast;
      fast.endpoint = ep;
      fast.dst_worker = 1;
      fast.src_worker = 0;
      fast.expedited = true;
      fast.payload = rt::encode_payload<int>(100);
      w.send(std::move(fast));
    }
    w.machine().barrier();  // worker 1 starts dispatching only after this
  });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 100);
}

TEST(Machine, BarrierSynchronizesWorkers) {
  Machine m(Topology(1, 2, 2), testing_cfg());
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  m.run([&](Worker& w) {
    before++;
    w.machine().barrier();
    if (before.load() != 4) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Machine, ReusableAcrossRuns) {
  Machine m(Topology(2, 1, 2), testing_cfg());
  std::atomic<int> count{0};
  const EndpointId ep =
      m.register_endpoint([&](Worker&, Message&&) { count++; });
  for (int round = 0; round < 5; ++round) {
    count = 0;
    const auto res = m.run([&](Worker& w) {
      Message msg;
      msg.endpoint = ep;
      msg.dst_worker = (w.id() + 1) % 4;
      msg.src_worker = w.id();
      w.send(std::move(msg));
    });
    EXPECT_EQ(count.load(), 4);
    EXPECT_EQ(res.runtime_messages, 4u);
    EXPECT_GE(res.wall_s, 0.0);
  }
}

TEST(Machine, RunResultCountsFabricTraffic) {
  Machine m(Topology(2, 1, 1), testing_cfg());
  const EndpointId ep = m.register_endpoint([](Worker&, Message&&) {});
  const auto res = m.run([&](Worker& w) {
    if (w.id() != 0) return;
    for (int i = 0; i < 7; ++i) {
      Message msg;
      msg.endpoint = ep;
      msg.dst_worker = 1;  // remote
      msg.src_worker = 0;
      msg.payload.resize(10);
      w.send(std::move(msg));
    }
  });
  EXPECT_EQ(res.fabric_messages, 7u);
  EXPECT_EQ(res.runtime_messages, 7u);
  EXPECT_GT(res.fabric_bytes, 70u);
}

TEST(Machine, NonSmpModeWorks) {
  RuntimeConfig cfg = testing_cfg();
  cfg.dedicated_comm = false;
  Machine m(Topology(2, 2, 1), cfg);
  std::atomic<int> got{0};
  const EndpointId ep = m.register_endpoint(
      [&](Worker&, Message&& msg) { got += rt::decode_payload<int>(msg)[0]; });
  m.run([&](Worker& w) {
    Message msg;
    msg.endpoint = ep;
    msg.dst_worker = (w.id() + 1) % 4;
    msg.src_worker = w.id();
    msg.payload = rt::encode_payload<int>(10);
    w.send(std::move(msg));
  });
  EXPECT_EQ(got.load(), 40);
}

TEST(Machine, NonSmpRequiresOneWorkerPerProc) {
  RuntimeConfig cfg = testing_cfg();
  cfg.dedicated_comm = false;
  EXPECT_THROW(Machine(Topology(1, 1, 2), cfg), std::invalid_argument);
}

TEST(Machine, PendingCounterDefersQuiescence) {
  // A worker holds synthetic pending work, releasing it from an idle hook
  // after a few visits; QD must wait for the release plus the message it
  // triggers.
  Machine m(Topology(1, 1, 2), testing_cfg());
  std::atomic<std::uint64_t> pending{3};
  std::atomic<int> released{0};
  const EndpointId ep =
      m.register_endpoint([&](Worker&, Message&&) { released++; });
  m.worker(0).add_pending_counter(
      [&] { return pending.load(std::memory_order_relaxed); });
  m.worker(0).add_idle_hook([&](Worker& w) {
    if (pending.load() == 0) return;
    if (pending.fetch_sub(1) == 1) {
      Message msg;
      msg.endpoint = ep;
      msg.dst_worker = 1;
      msg.src_worker = 0;
      w.send(std::move(msg));
    }
  });
  m.run([](Worker&) {});
  EXPECT_EQ(pending.load(), 0u);
  EXPECT_EQ(released.load(), 1);
  m.clear_worker_hooks();
}

TEST(Machine, ClearWorkerHooksRemovesThem) {
  Machine m(Topology(1, 1, 1), testing_cfg());
  m.worker(0).add_pending_counter([] { return std::uint64_t{7}; });
  EXPECT_EQ(m.total_pending(), 7u);
  m.clear_worker_hooks();
  EXPECT_EQ(m.total_pending(), 0u);
}

TEST(Machine, RegisterEndpointOrderIsStable) {
  Machine m(Topology(1, 1, 1), testing_cfg());
  const EndpointId a = m.register_endpoint([](Worker&, Message&&) {});
  const EndpointId b = m.register_endpoint([](Worker&, Message&&) {});
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(m.endpoints().size(), 2u);
}

TEST(Machine, ProgressInterleavesWithCompute) {
  // Worker 0 floods worker 1 while worker 1 pumps progress() from its own
  // main loop — message-driven interleaving, not post-main drain only. The
  // first 500 must be handled inside worker 1's main. A non-SMP worker has
  // no comm thread, so across processes that holds only if progress()
  // polls the transport itself (fabric ingress, and under loss the
  // reliability layer's acks and retransmits). The deadline turns a
  // starved receiver into a failure instead of a hang.
  struct Setup {
    const char* name;
    Topology topo;
    RuntimeConfig cfg;
  };
  RuntimeConfig non_smp = testing_cfg();
  non_smp.dedicated_comm = false;
  RuntimeConfig lossy = non_smp;
  lossy.fault.drop_rate = 0.1;
  const Setup setups[] = {
      {"smp, same process", Topology(1, 1, 2), testing_cfg()},
      {"non-smp, modeled fabric", Topology(2, 1, 1), non_smp},
      {"non-smp, lossy fabric", Topology(2, 1, 1), lossy},
  };
  for (const Setup& s : setups) {
    SCOPED_TRACE(s.name);
    Machine m(s.topo, s.cfg);
    std::atomic<int> seen{0};
    int seen_in_main = 0;
    const EndpointId ep =
        m.register_endpoint([&](Worker&, Message&&) { seen++; });
    m.run([&](Worker& w) {
      if (w.id() == 0) {
        for (int i = 0; i < 1000; ++i) {
          Message msg;
          msg.endpoint = ep;
          msg.dst_worker = 1;
          msg.src_worker = 0;
          w.send(std::move(msg));
        }
      } else {
        const std::uint64_t deadline = util::now_ns() + 10'000'000'000;
        while (seen.load() < 500 && util::now_ns() < deadline) {
          w.progress();
        }
        seen_in_main = seen.load();
      }
    });
    EXPECT_GE(seen_in_main, 500);
    EXPECT_EQ(seen.load(), 1000);
  }
}

}  // namespace
