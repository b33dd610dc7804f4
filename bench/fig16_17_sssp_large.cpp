/// Figs 16-17 reproduction: SSSP on the large graph (62M vertices in the
/// paper, scaled) over node counts, schemes {WW, WPs}. One sweep, two
/// metrics:
///   - Fig 16, total time. Expectation: WPs is considerably better than
///     WW (frequent flush calls and memory footprint hurt WW).
///   - Fig 17, wasted updates. Expectation: unlike the small graph
///     (Fig 15), the large, well-scaling problem shows *no significant
///     difference* across schemes: buffers fill quickly everywhere, so
///     scheme-induced latency differences shrink relative to the work per
///     phase.

#include <cmath>
#include <cstdio>

#include "sssp_common.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig16_17_sssp_large: Figs 16-17")) return 0;

  graph::GeneratorParams gp;
  gp.num_vertices = opt.quick ? 200'000 : 600'000;  // scaled from 62M
  gp.avg_degree = 8.0;
  const graph::Csr g = graph::build_uniform(gp);

  // Capped at 4 nodes: the 2p x 4w shape keeps worker+comm threads within
  // the host's cores, where the timing signal is clean.
  const std::vector<int> node_counts = {1, 2, 4};
  const std::vector<core::Scheme> schemes = {core::Scheme::WW,
                                             core::Scheme::WPs};

  util::Table time_table("Fig 16: SSSP large graph (" +
                         std::to_string(gp.num_vertices) +
                         " vertices, scaled from 62M) — total time (s)");
  util::Table wasted_table("Fig 17: SSSP large graph — wasted updates (% of "
                           "received)");
  std::vector<std::string> time_header{"scheme"}, wasted_header{"scheme"};
  for (const int n : node_counts) {
    time_header.push_back(std::to_string(n) + "n s");
    wasted_header.push_back(std::to_string(n) + "n %");
  }
  time_table.set_header(time_header);
  wasted_table.set_header(wasted_header);

  std::vector<std::vector<double>> secs(schemes.size());
  std::vector<std::vector<double>> msgs(schemes.size());
  std::vector<std::vector<double>> wasted(schemes.size());
  bool all_verified = true;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<std::string> time_row{core::to_string(schemes[s])};
    std::vector<std::string> wasted_row = time_row;
    for (const int nodes : node_counts) {
      core::TramConfig tram;
      tram.scheme = schemes[s];
      tram.buffer_items = 1024;
      // 1 proc x 4 workers per node keeps every thread on its own core.
      const auto topo = util::Topology(nodes, 1, 4);
      const auto point = bench::run_sssp(g, topo, tram,
                                         static_cast<int>(opt.trials));
      secs[s].push_back(point.seconds);
      msgs[s].push_back(static_cast<double>(point.tram_messages));
      wasted[s].push_back(point.wasted_pct);
      all_verified = all_verified && point.verified;
      time_row.push_back(util::Table::fmt(point.seconds, 4) + " (" +
                         util::Table::fmt(point.mean_occupancy, 0) +
                         "/msg)");
      wasted_row.push_back(util::Table::fmt(point.wasted_pct, 2));
    }
    time_table.add_row(time_row);
    wasted_table.add_row(wasted_row);
  }
  bench::emit(time_table, opt);
  bench::emit(wasted_table, opt);

  bench::ShapeChecker shapes;
  const std::size_t last = node_counts.size() - 1;
  shapes.expect(all_verified, "distances match Dijkstra for every run");
  // Scale note (see EXPERIMENTS.md): the paper's absolute "WPs
  // considerably better than WW" holds at 512 PEs; at our 4-16 workers WW's
  // direct delivery is legitimately competitive. What reproduces is the
  // paper's *trend*: WW's time grows with node count much faster than
  // WPs', so the WPs/WW ratio falls toward (and past) 1 as the machine
  // grows.
  const double ww_growth = secs[0][last] / secs[0][0];
  const double wps_growth = secs[1][last] / secs[1][0];
  shapes.expect(ww_growth > 1.15 * wps_growth,
                "WW total time grows with node count faster than WPs "
                "(the paper's large-scale ordering in trend form)");
  // The mechanism behind the paper's WW collapse ("frequent flush calls"):
  // SSSP workers idle constantly waiting on updates, every idle flush
  // scans and ships WW's many per-worker buffers — so WW's message count
  // far exceeds WPs' at scale. Deterministic enough to assert directly.
  shapes.expect(msgs[0][last] > 1.3 * msgs[1][last],
                "WW ships clearly more (flush-driven) messages than WPs at "
                "the largest node count");
  // "No significant difference": within 15 percentage points (the paper's
  // bars are visually close; ours carry run-to-run noise too).
  shapes.expect(std::abs(wasted[0][last] - wasted[1][last]) < 15.0,
                "wasted updates similar across WW and WPs on the large "
                "graph");
  shapes.report();
  return 0;
}
