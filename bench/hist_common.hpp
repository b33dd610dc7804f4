#pragma once
/// Shared runner for the histogram figure benches (Figs 8-11).

#include <memory>

#include "apps/histogram.hpp"
#include "bench_common.hpp"
#include "runtime/machine.hpp"

namespace tram::bench {

struct HistoPoint : RoutedCounters {
  double seconds = 0.0;
  std::uint64_t flush_messages = 0;
  double mean_occupancy = 0.0;  // items per shipped message
  bool verified = true;
};

/// Build a fresh machine + app for the configuration and return the median
/// over `trials` timed runs.
inline HistoPoint run_histogram(const util::Topology& topo,
                                const rt::RuntimeConfig& rt_cfg,
                                const core::TramConfig& tram_cfg,
                                std::uint64_t updates_per_worker,
                                int trials) {
  rt::Machine machine(topo, rt_cfg);
  apps::HistogramParams params;
  params.updates_per_worker = updates_per_worker;
  params.bins_per_worker = 1 << 12;
  params.tram = tram_cfg;
  apps::HistogramApp app(machine, params);

  HistoPoint point;
  point.seconds = median_seconds(trials, [&] {
    const auto res = app.run();
    point.capture(res.tram, res.run, res.max_reserved_buffers,
                  machine.fault_stats());
    point.flush_messages = res.tram.flush_msgs;
    point.mean_occupancy = res.tram.occupancy_at_ship.mean();
    point.verified = point.verified && res.verified;
    return res.run.wall_s;
  });
  return point;
}

}  // namespace tram::bench
