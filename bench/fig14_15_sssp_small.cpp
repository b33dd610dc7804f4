/// Figs 14-15 reproduction: SSSP on a small graph over process counts,
/// schemes {WW, WPs, PP}. The paper's small problem (8M vertices over
/// 8-32 processes) stresses latency: workers starve waiting for updates,
/// so schemes that ship buffers sooner win. One sweep, two metrics:
///   - Fig 14, total time.
///   - Fig 15, *wasted updates* (received updates that no longer improve
///     a distance) as a percentage of received updates. Expectation:
///     PP < WPs < WW — lower item latency means fewer peers keep
///     speculating against stale distances.

#include <cstdio>

#include "sssp_common.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig14_15_sssp_small: Figs 14-15")) return 0;

  graph::GeneratorParams gp;
  gp.num_vertices = opt.quick ? 40'000 : 120'000;  // scaled from 8M
  gp.avg_degree = 8.0;
  const graph::Csr g = graph::build_uniform(gp);

  std::vector<int> proc_counts = {4, 8, 16};
  if (opt.quick) proc_counts = {4, 8};
  const std::vector<core::Scheme> schemes = {
      core::Scheme::WW, core::Scheme::WPs, core::Scheme::PP};

  util::Table time_table("Fig 14: SSSP small graph (" +
                         std::to_string(gp.num_vertices) +
                         " vertices, scaled from 8M) — total time (s)");
  util::Table wasted_table("Fig 15: SSSP small graph — wasted updates (% of "
                           "received)");
  std::vector<std::string> time_header{"scheme"}, wasted_header{"scheme"};
  for (const int p : proc_counts) {
    time_header.push_back(std::to_string(p) + "p s");
    wasted_header.push_back(std::to_string(p) + "p %");
  }
  time_table.set_header(time_header);
  wasted_table.set_header(wasted_header);

  std::vector<std::vector<double>> secs(schemes.size());
  std::vector<std::vector<double>> wasted(schemes.size());
  bool all_verified = true;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<std::string> time_row{core::to_string(schemes[s])};
    std::vector<std::string> wasted_row = time_row;
    for (const int procs : proc_counts) {
      core::TramConfig tram;
      tram.scheme = schemes[s];
      tram.buffer_items = 256;
      // procs processes spread over procs/2 nodes, 4 workers each.
      const auto topo = util::Topology(procs / 2, 2, 4);
      const auto point = bench::run_sssp(g, topo, tram,
                                         static_cast<int>(opt.trials));
      secs[s].push_back(point.seconds);
      wasted[s].push_back(point.wasted_pct);
      all_verified = all_verified && point.verified;
      time_row.push_back(util::Table::fmt(point.seconds, 4));
      wasted_row.push_back(util::Table::fmt(point.wasted_pct, 2));
    }
    time_table.add_row(time_row);
    wasted_table.add_row(wasted_row);
  }
  bench::emit(time_table, opt);
  bench::emit(wasted_table, opt);

  bench::ShapeChecker shapes;
  const std::size_t last = proc_counts.size() - 1;
  shapes.expect(all_verified, "distances match Dijkstra for every run");
  shapes.expect(secs[1][last] <= secs[0][last] * 1.1,
                "WPs at least matches WW on the small graph");
  shapes.expect(wasted[2][last] <= wasted[1][last] * 1.05,
                "PP wasted updates at or below WPs");
  shapes.expect(wasted[1][last] <= wasted[0][last] * 1.05,
                "WPs wasted updates at or below WW");
  shapes.report();
  return 0;
}
