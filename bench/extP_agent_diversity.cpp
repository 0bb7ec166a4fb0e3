// Extension P — agent diversity. Minar et al. (the paper's foundation)
// found that "the efficient division of labor in the absence of
// centralized control has a subtle, important effect". This bench builds
// mixed teams of 15 and asks whether blending explorers (random) into a
// team of systematic mappers (conscientious / super-conscientious) helps
// — random walkers cross regions DFS-ish walkers postpone, and their
// knowledge spreads through meetings.
#include "bench_util.hpp"

using namespace agentnet;

namespace {

std::vector<MappingAgentConfig> mixed_team(int random_count,
                                           int conscientious_count,
                                           int super_count,
                                           StigmergyMode mode) {
  std::vector<MappingAgentConfig> team;
  for (int i = 0; i < random_count; ++i)
    team.push_back({MappingPolicy::kRandom, mode});
  for (int i = 0; i < conscientious_count; ++i)
    team.push_back({MappingPolicy::kConscientious, mode});
  for (int i = 0; i < super_count; ++i)
    team.push_back({MappingPolicy::kSuperConscientious, mode});
  return team;
}

}  // namespace

int main() {
  const int runs = bench_runs(10);
  bench::print_header(
      "Ext P — team diversity (mapping, 15 agents)",
      "does a pinch of randomness or super-conscientiousness improve a "
      "conscientious team?",
      runs);
  const auto& net = bench::mapping_network();

  struct Mix {
    const char* label;
    int random, consc, super;
  };
  const Mix mixes[] = {
      {"15 random", 15, 0, 0},
      {"15 conscientious", 0, 15, 0},
      {"15 super-conscientious", 0, 0, 15},
      {"3 random + 12 conscientious", 3, 12, 0},
      {"8 random + 7 conscientious", 8, 7, 0},
      {"12 conscientious + 3 super", 0, 12, 3},
      {"5 random + 5 consc + 5 super", 5, 5, 5},
  };

  for (StigmergyMode mode :
       {StigmergyMode::kOff, StigmergyMode::kFilterFirst}) {
    std::printf("%s:\n", mode == StigmergyMode::kOff
                             ? "plain (Minar-style) agents"
                             : "stigmergic agents");
    Table table({"team composition", "finishing time", "ci95"});
    table.set_precision(1);
    for (const auto& mix : mixes) {
      MappingTaskConfig task;
      task.team = mixed_team(mix.random, mix.consc, mix.super, mode);
      task.record_series = false;
      const auto summary =
          run_mapping_experiment(net, task, runs, paper::kRunSeedBase);
      table.add_row({std::string(mix.label), bench::finish_mean(summary),
                     confidence_halfwidth(summary.finishing_time)});
    }
    bench::finish_table(mode == StigmergyMode::kOff ? "extP_plain" : "extP_stig", table);
    std::printf("\n");
  }
  return 0;
}
