#pragma once
/// Shared runner for the SSSP figure benches (Figs 14-17 and the routed
/// sweep).

#include "apps/sssp.hpp"
#include "bench_common.hpp"
#include "graph/generator.hpp"
#include "runtime/machine.hpp"

namespace tram::bench {

struct SsspPoint : RoutedCounters {
  double seconds = 0.0;
  double wasted_pct = 0.0;
  double mean_occupancy = 0.0;
  bool verified = true;
  /// Items inserted == delivered through the tram domain on every run.
  bool exactly_once = true;
  std::uint64_t priority_messages = 0;
  /// FNV-1a over every vertex's final distance: two runs converged to
  /// bit-for-bit identical distances iff the hashes match (the routed
  /// benches cross-check this against the direct-scheme run).
  std::uint64_t dist_hash = 1469598103934665603ULL;  // FNV offset basis
};

/// Build a fresh machine + app for the configuration and return the median
/// over `trials` timed runs.
inline SsspPoint run_sssp(const graph::Csr& g, const util::Topology& topo,
                          const core::TramConfig& tram_cfg, int trials,
                          const rt::RuntimeConfig& rt_cfg = bench_runtime(),
                          bool prioritize_urgent = false) {
  rt::Machine machine(topo, rt_cfg);
  apps::SsspParams params;
  params.graph = &g;
  params.tram = tram_cfg;
  params.delta = 8;
  params.prioritize_urgent = prioritize_urgent;
  apps::SsspApp app(machine, params);

  SsspPoint point;
  util::RunningStats pct_stats;
  point.seconds = median_seconds(trials, [&] {
    const auto res = app.run();
    pct_stats.add(res.wasted_pct);
    point.capture(res.tram, res.run, res.max_reserved_buffers,
                  machine.fault_stats());
    point.mean_occupancy = res.tram.occupancy_at_ship.mean();
    point.verified = point.verified && res.verified;
    point.exactly_once = point.exactly_once &&
                         res.tram.items_inserted == res.tram.items_delivered;
    point.priority_messages = res.tram.priority_msgs;
    return res.run.wall_s;
  });
  point.wasted_pct = pct_stats.mean();
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    point.dist_hash ^= app.distance(v);
    point.dist_hash *= 1099511628211ULL;  // FNV-1a fold per vertex
  }
  return point;
}

}  // namespace tram::bench
