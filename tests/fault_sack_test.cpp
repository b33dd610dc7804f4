/// SACK / adaptive-RTO / pacing coverage for the congestion-aware
/// reliability layer (src/fault/):
///  - the SACK bitmap helpers across the RFC-1982 uint32 sequence wrap,
///    including out-of-order sequences beyond the 64-bit window;
///  - end-to-end recovery under heavy loss with SACK on and off (the
///    PR 5 head-of-line path), both bit-for-bit against a fault-free
///    reference — which also proves a retransmit arriving after SACK
///    already covered it, and a stale (duplicated) ack naming sequences
///    outside the live window, are both absorbed;
///  - fast retransmit and the RTT estimator actually engaging;
///  - window pacing never deadlocking quiescence detection: a
///    one-message window forces nearly every send through the pacing
///    queue, and the run still completes exactly-once (paced messages
///    count in in_flight(), so QD cannot fire under them);
///  - the deadline-gated pump: a tail loss that only the retransmit
///    timer can recover, and next_due_ns() tracking the armed deadline.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apps/histogram.hpp"
#include "core/scheme.hpp"
#include "core/tram_stats.hpp"
#include "fault/fault_config.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/faulty_transport.hpp"
#include "fault/reliable_transport.hpp"
#include "fault/reliable_wire.hpp"
#include "runtime/machine.hpp"
#include "util/timebase.hpp"

namespace {

using namespace tram;

// ---- bitmap helpers across the sequence wrap ----

TEST(SackWire, BitmapRoundTripsAcrossSeqWrap) {
  // Receiver: next expected is 2 before the wrap; out-of-order arrivals
  // straddle it on both sides.
  const std::uint32_t cum = 0xfffffffe;
  const std::set<std::uint32_t> ooo = {0xffffffff, 0x00000001, 0x00000002};
  const std::uint64_t bits = fault::build_sack_bitmap(cum, ooo);
  // Offsets from cum+1 = 0xffffffff: 0, 2, 3.
  EXPECT_EQ(bits, (1ull << 0) | (1ull << 2) | (1ull << 3));

  // The sender decodes exactly the same sequences, in serial order.
  std::vector<std::uint32_t> decoded;
  fault::for_each_sacked(cum, bits,
                         [&](std::uint32_t s) { decoded.push_back(s); });
  EXPECT_EQ(decoded, (std::vector<std::uint32_t>{0xffffffff, 0x00000001,
                                                 0x00000002}));
}

TEST(SackWire, SequencesBeyondTheWindowAreNotReported) {
  const std::uint32_t cum = 100;
  // 101..164 are representable (offsets 0..63); 165 and far-future
  // sequences are not — and sequences at/before cum never set a bit
  // (their wrapped offset lands far outside the 64-bit window).
  const std::set<std::uint32_t> ooo = {101, 164, 165, 5000, 100, 50};
  const std::uint64_t bits = fault::build_sack_bitmap(cum, ooo);
  EXPECT_EQ(bits, (1ull << 0) | (1ull << 63));
}

TEST(SackWire, HeaderCarriesSackBitmap) {
  fault::ReliableHeader h;
  h.seq = 7;
  h.ack = 3;
  h.sack = 0xdeadbeefcafef00dull;
  std::array<std::byte, sizeof h> buf{};
  std::memcpy(buf.data(), &h, sizeof h);
  const auto parsed = fault::parse_reliable_header(
      std::span<const std::byte>(buf.data(), buf.size()));
  EXPECT_EQ(parsed.sack, 0xdeadbeefcafef00dull);
  EXPECT_EQ(fault::ReliableHeader::kSackBits, 64u);
}

// ---- end-to-end: heavy loss, SACK on and off ----

apps::HistogramParams histogram_params() {
  apps::HistogramParams p;
  p.updates_per_worker = 1500;
  p.bins_per_worker = 256;
  p.progress_interval = 64;
  p.tram.scheme = core::Scheme::WsP;
  p.tram.buffer_items = 64;
  return p;
}

std::vector<std::vector<std::uint64_t>> reference_tables(
    const util::Topology& topo) {
  rt::RuntimeConfig cfg = rt::RuntimeConfig::testing();
  cfg.dedicated_comm = false;
  rt::Machine machine(topo, cfg);
  apps::HistogramApp app(machine, histogram_params());
  const auto res = app.run();
  EXPECT_TRUE(res.verified);
  std::vector<std::vector<std::uint64_t>> ref;
  for (WorkerId w = 0; w < topo.workers(); ++w) {
    ref.push_back(app.table_slice(w));
  }
  return ref;
}

/// Run the histogram under the given fault config and check exactly-once
/// plus bit-for-bit tables; returns the machine's fault stats.
core::FaultStats run_lossy(const util::Topology& topo,
                           const fault::FaultConfig& f,
                           const std::vector<std::vector<std::uint64_t>>& ref,
                           const std::string& what,
                           std::uint64_t* srtt_out = nullptr) {
  rt::RuntimeConfig cfg = rt::RuntimeConfig::testing();
  cfg.dedicated_comm = false;
  cfg.fault = f;
  rt::Machine machine(topo, cfg);
  apps::HistogramApp app(machine, histogram_params());
  const auto res = app.run();
  EXPECT_TRUE(res.verified) << what;
  EXPECT_EQ(res.tram.items_inserted, res.tram.items_delivered) << what;
  for (WorkerId w = 0; w < topo.workers(); ++w) {
    EXPECT_EQ(app.table_slice(w), ref[static_cast<std::size_t>(w)])
        << what << " worker " << w;
  }
  // QD fired, so nothing may still be unacked, paced, or in the fabric.
  EXPECT_EQ(machine.reliability()->in_flight(), 0u) << what;
  if (srtt_out != nullptr) {
    std::uint64_t srtt = 0;
    for (ProcId s = 0; s < topo.procs(); ++s) {
      for (ProcId d = 0; d < topo.procs(); ++d) {
        if (s == d) continue;
        srtt = std::max(srtt, machine.reliability()->debug_srtt_ns(s, d));
      }
    }
    *srtt_out = srtt;
  }
  return machine.fault_stats();
}

/// Heavy loss with SACK: multi-loss windows recover via fast retransmit
/// (holes named by the bitmap go out before the timer), the RTT
/// estimator converges, and the result is still bit-for-bit. The same
/// run necessarily delivers retransmits for sequences SACK already
/// covered (a timer batch races the ack that settles it) — the dedup
/// window absorbs them, observable as dup_drops with dup_rate == 0.
TEST(FaultSack, HeavyLossRecoversViaFastRetransmit) {
  const util::Topology topo(8, 1, 1);
  const auto ref = reference_tables(topo);

  fault::FaultConfig f;
  f.drop_rate = 0.25;
  f.seed = 31;
  ASSERT_TRUE(f.sack);
  ASSERT_TRUE(f.adaptive_rto);
  std::uint64_t srtt = 0;
  const core::FaultStats fs =
      run_lossy(topo, f, ref, "sack heavy loss", &srtt);
  EXPECT_GE(fs.faults_injected_drop, 1u);
  EXPECT_GE(fs.retransmits, 1u);
  EXPECT_GE(fs.fast_retransmits, 1u);  // SACK recovery actually engaged
  EXPECT_GT(srtt, 0u);                 // estimator took samples
}

/// The A/B control: same loss, SACK off (cumulative-ack head-of-line
/// recovery, the PR 5 path). Still exactly-once and bit-for-bit — the
/// legacy mode stays a correct, if slower, recovery scheme.
TEST(FaultSack, HeadOfLineModeStillRecovers) {
  const util::Topology topo(8, 1, 1);
  const auto ref = reference_tables(topo);

  fault::FaultConfig f;
  f.drop_rate = 0.25;
  f.seed = 31;
  f.sack = false;
  const core::FaultStats fs = run_lossy(topo, f, ref, "hol heavy loss");
  EXPECT_GE(fs.retransmits, 1u);
  EXPECT_EQ(fs.fast_retransmits, 0u);  // no SACK, no fast path
}

/// Stale acks outside the live window: heavy duplication replays old
/// ack/sack pairs after the sender has popped past them (and after the
/// receiver's cum advanced past their seqs). Both ends must treat them
/// as no-ops — monotonic acks, idempotent SACK marks, dedup consumption.
TEST(FaultSack, StaleAcksOutsideWindowAreAbsorbed) {
  const util::Topology topo(8, 1, 1);
  const auto ref = reference_tables(topo);

  fault::FaultConfig f;
  f.drop_rate = 0.1;
  f.dup_rate = 0.3;
  f.delay_ns = 30'000;
  f.delay_rate = 0.5;  // genuine reordering against undelayed peers
  f.seed = 32;
  const core::FaultStats fs = run_lossy(topo, f, ref, "stale acks");
  EXPECT_GE(fs.dup_drops, 1u);
}

/// A one-message window forces nearly every send through the pacing
/// queue. If paced-but-unsent data were invisible to in_flight(),
/// quiescence would fire while messages sit in the queue and the run
/// would lose them — bit-for-bit failure (or a hang if the queue could
/// never drain). Completing exactly-once proves the accounting.
TEST(FaultSack, PacingNeverDeadlocksQuiescence) {
  const util::Topology topo(4, 1, 1);
  const auto ref = reference_tables(topo);

  fault::FaultConfig f;
  f.drop_rate = 0.1;
  f.seed = 33;
  f.window_init = 1;
  f.window_min = 1;
  f.window_max = 2;
  const core::FaultStats fs = run_lossy(topo, f, ref, "tiny window");
  EXPECT_GE(fs.paced_msgs, 1u);          // pacing actually engaged
  EXPECT_LE(fs.max_inflight_msgs, 2u);   // window honored
}

/// The byte cap alone paces too — and a payload larger than the cap must
/// still be admitted (one at a time), or quiescence would hang.
TEST(FaultSack, ByteWindowPacesWithoutDeadlock) {
  const util::Topology topo(4, 1, 1);
  const auto ref = reference_tables(topo);

  fault::FaultConfig f;
  f.dup_rate = 0.05;  // enable faults without loss noise
  f.seed = 34;
  f.window_bytes = 256;  // far below one framed buffer message
  const core::FaultStats fs = run_lossy(topo, f, ref, "byte window");
  EXPECT_GE(fs.paced_msgs, 1u);
}

// ---- the deadline-gated pump ----

/// Two processes of one worker each, non-SMP over the modeled fabric:
/// each worker's progress() is the only thing that runs its process's
/// reliability timers.
rt::RuntimeConfig two_proc_lossy(std::uint64_t seed) {
  rt::RuntimeConfig cfg = rt::RuntimeConfig::testing();
  cfg.dedicated_comm = false;
  cfg.fault.drop_rate = 0.5;
  cfg.fault.seed = seed;
  return cfg;
}

/// The first seed under which the data message 0 -> 1 (seq 0) is dropped
/// on its first attempt iff `first_dropped`, survives its second, and the
/// first standalone ack 1 -> 0 survives. 0 if none below 1000.
std::uint64_t seed_where_first_attempt(bool first_dropped) {
  constexpr auto kData = fault::ReliableHeader::kData;
  constexpr auto kAck = fault::ReliableHeader::kAck;
  for (std::uint64_t seed = 1; seed < 1000; ++seed) {
    const fault::FaultSchedule sched(two_proc_lossy(seed).fault);
    if (sched.fate(0, 1, kData, 0, 0).drop == first_dropped &&
        !sched.fate(0, 1, kData, 0, 1).drop &&
        !sched.fate(1, 0, kAck, 0, 0).drop) {
      return seed;
    }
  }
  return 0;
}

/// Run main_fn to quiescence, or fail the suite after 20 s instead of
/// hanging it: a timer the pump never runs leaves a message unacked, and
/// quiescence never comes.
void run_with_deadline(rt::Machine& m,
                       const std::function<void(rt::Worker&)>& main_fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    m.run(main_fn);
    done.set_value();
  });
  if (finished.wait_for(std::chrono::seconds(20)) !=
      std::future_status::ready) {
    std::fprintf(stderr,
                 "no quiescence within 20 s: a reliability timer never "
                 "ran\n");
    std::_Exit(1);
  }
  runner.join();
}

/// Worker 0 sends one message to worker 1.
void send_one(rt::Worker& w, EndpointId ep) {
  rt::Message msg;
  msg.endpoint = ep;
  msg.dst_worker = 1;
  msg.src_worker = 0;
  w.send(std::move(msg));
}

/// Tail loss: the only data message loses its first attempt and nothing
/// else is ever sent, so no SACK can name the hole and only the
/// retransmit timer recovers it. The sender's poll() scans its channels
/// only once an armed deadline is due, so a send that failed to arm one
/// would leave the message unacked and the run hung.
TEST(FaultPump, TailLossIsRecoveredByTheTimerAlone) {
  const std::uint64_t seed = seed_where_first_attempt(/*first_dropped=*/true);
  ASSERT_NE(seed, 0u);
  rt::Machine m(util::Topology(2, 1, 1), two_proc_lossy(seed));
  std::atomic<int> got{0};
  const EndpointId ep =
      m.register_endpoint([&](rt::Worker&, rt::Message&&) { ++got; });
  run_with_deadline(m, [&](rt::Worker& w) {
    if (w.id() == 0) send_one(w, ep);
  });
  EXPECT_EQ(got.load(), 1);  // exactly once
  const core::FaultStats fs = m.fault_stats();
  EXPECT_GE(fs.faults_injected_drop, 1u);
  EXPECT_GE(fs.rto_fires, 1u);
  EXPECT_EQ(fs.fast_retransmits, 0u);  // nothing arrived out of order
  EXPECT_EQ(m.reliability()->in_flight(), 0u);
}

/// next_due_ns() reads the armed deadline instead of scanning channels:
/// with one send unacked it reports a deadline no later than the
/// channel's own, and once the ack settles the channel (and the sender
/// owes no ack) it is the inner transport's value again.
TEST(FaultPump, NextDueTracksTheRetransmitDeadline) {
  const std::uint64_t seed =
      seed_where_first_attempt(/*first_dropped=*/false);
  ASSERT_NE(seed, 0u);
  rt::Machine m(util::Topology(2, 1, 1), two_proc_lossy(seed));
  const fault::ReliableTransport& rel = *m.reliability();
  const EndpointId ep =
      m.register_endpoint([](rt::Worker&, rt::Message&&) {});
  std::uint64_t due_unacked = 0;
  std::uint64_t probe = 0;
  bool settled = false;
  std::uint64_t due_settled = 1;
  std::uint64_t inner_settled = 0;
  run_with_deadline(m, [&](rt::Worker& w) {
    if (w.id() != 0) return;
    send_one(w, ep);
    // Worker 0 is its process's only pump and has not polled since the
    // send, so no ack can have been applied yet.
    due_unacked = rel.next_due_ns(0);
    probe = rel.debug_probe_deadline_ns(0, 1);
    const std::uint64_t deadline = util::now_ns() + 10'000'000'000;
    while (rel.in_flight() != 0 && util::now_ns() < deadline) w.progress();
    settled = rel.in_flight() == 0;
    due_settled = rel.next_due_ns(0);
    inner_settled = m.fault_layer()->next_due_ns(0);
  });
  EXPECT_NE(probe, 0u);
  EXPECT_NE(due_unacked, 0u);
  EXPECT_LE(due_unacked, probe);
  ASSERT_TRUE(settled);
  EXPECT_EQ(due_settled, inner_settled);
}

}  // namespace
