/// Figs 12-13 reproduction: index-gather per scheme over node counts,
/// buffer 1024 for all schemes (as in the paper). One sweep, two metrics:
///   - Fig 12, request->response latency. Expectation: PP < WPs < WW —
///     the fewer independent buffers a scheme keeps, the faster each
///     buffer fills and ships, so items wait less.
///   - Fig 13, total time. Expectation: the ordering differs from the
///     latency ordering — WPs pays destination-side grouping and PP pays
///     atomics, so WW can stay competitive on total time even while
///     losing on latency.

#include <cstdio>

#include "ig_common.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig12_13_ig: Figs 12-13")) return 0;

  const std::uint64_t requests = opt.quick ? 50'000 : 150'000;  // scaled 8M
  std::vector<int> node_counts = {2, 4, 8};
  if (opt.quick) node_counts = {2, 4};
  const int ppn = 2, wpp = 4;
  const std::vector<core::Scheme> schemes = {
      core::Scheme::WW, core::Scheme::WPs, core::Scheme::PP};

  util::Table lat_table("Fig 12: index-gather mean item latency (us), " +
                        std::to_string(requests) + " requests/PE");
  util::Table time_table("Fig 13: index-gather total time (s), " +
                         std::to_string(requests) + " requests/PE");
  std::vector<std::string> lat_header{"scheme"}, time_header{"scheme"};
  for (const int n : node_counts) {
    lat_header.push_back(std::to_string(n) + "n us");
    time_header.push_back(std::to_string(n) + "n s");
  }
  lat_table.set_header(lat_header);
  time_table.set_header(time_header);

  std::vector<std::vector<double>> lat(schemes.size()), secs(schemes.size());
  bool all_verified = true;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<std::string> lat_row{core::to_string(schemes[s])};
    std::vector<std::string> time_row = lat_row;
    for (const int nodes : node_counts) {
      core::TramConfig tram;
      tram.scheme = schemes[s];
      tram.buffer_items = 1024;
      const auto point = bench::run_ig(util::Topology(nodes, ppn, wpp), tram,
                                       requests,
                                       static_cast<int>(opt.trials));
      lat[s].push_back(point.mean_latency_us);
      secs[s].push_back(point.seconds);
      all_verified = all_verified && point.verified;
      lat_row.push_back(util::Table::fmt(point.mean_latency_us, 1));
      time_row.push_back(util::Table::fmt(point.seconds, 4));
    }
    lat_table.add_row(lat_row);
    time_table.add_row(time_row);
  }
  bench::emit(lat_table, opt);
  bench::emit(time_table, opt);

  bench::ShapeChecker shapes;
  const std::size_t last = node_counts.size() - 1;
  shapes.expect(lat[2][last] < lat[1][last],
                "PP latency below WPs at the largest node count");
  shapes.expect(lat[1][last] < lat[0][last],
                "WPs latency below WW at the largest node count");
  shapes.expect(all_verified, "every response arrived with the right value");
  // The paper's total-time story: WW does not lose on total time the way
  // it loses on latency (grouping/atomics overheads bite WPs and PP).
  shapes.expect(secs[0][last] < 2.0 * secs[1][last],
                "WW total time stays within 2x of WPs (overhead, not "
                "latency, dominates IG total time)");
  shapes.report();
  return 0;
}
