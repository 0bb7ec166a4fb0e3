// Extension L — mapping under link degradation. The paper's environment
// declares that battery-driven degradation makes links come and go, which
// is why "we need to fire up the agents again" — but its figures map a
// stable snapshot. This bench quantifies the missing axis: team finishing
// time against the full underlying topology as a function of how much of
// the network is down at any moment.
#include "bench_util.hpp"
#include "net/link_noise.hpp"

using namespace agentnet;

int main() {
  const int runs = bench_runs(8);
  bench::print_header(
      "Ext L — mapping vs link flap rate",
      "finishing time should rise smoothly with the fraction of links "
      "down; stigmergy's advantage should survive the weather",
      runs);
  const auto& net = bench::mapping_network();
  std::printf("network: %zu nodes, %zu arcs; outages persist 5 steps\n\n",
              net.graph.node_count(), net.graph.edge_count());

  Table table({"links down", "plain team", "stigmergic team", "stig gain"});
  for (double q : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    RunningStats plain, stig;
    for (int variant = 0; variant < 2; ++variant) {
      MappingTaskConfig cfg;
      cfg.population = 15;
      cfg.agent = {MappingPolicy::kConscientious,
                   variant == 0 ? StigmergyMode::kOff
                                : StigmergyMode::kFilterFirst};
      cfg.advance_world = true;
      cfg.truth_edges_override = net.graph.edge_count();
      cfg.record_series = false;
      for (const auto& result :
           bench::mapping_runs(cfg, runs, net.graph.node_count(), [&] {
             World world = World::frozen(net);
             if (q > 0.0) world.set_link_flapper(LinkFlapper(q, 5, 99));
             return world;
           }))
        if (result.finished)
          (variant == 0 ? plain : stig)
              .add(static_cast<double>(result.finishing_time));
    }
    table.add_row({q, bench::finish_mean(plain), bench::finish_mean(stig),
                   bench::finish_mean(plain) / bench::finish_mean(stig)});
  }
  table.set_precision(2);
  bench::finish_table("extL", table);
  std::cout << "\n(stig gain > 1 means the stigmergic team stays faster "
               "under degradation)\n";
  return 0;
}
