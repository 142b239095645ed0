/// \file trace_tools.cpp
/// Workload tooling example: capture a synthetic benchmark to an RCLP
/// trace pack, replay it through the simulator, and print the
/// instruction-mix profile of every program in the suite.
///
///   ./trace_tools capture <benchmark> <ops> <file.rclp>  write a pack
///   ./trace_tools replay  <file.rclp> [preset]           simulate a pack
///   ./trace_tools mix                                 profile the suite

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/processor.h"
#include "stats/table.h"
#include "trace/pack/pack_reader.h"
#include "trace/pack/pack_writer.h"
#include "trace/synth/suite.h"
#include "trace/trace_stats.h"

namespace {

using namespace ringclu;

int do_capture(const std::string& benchmark, std::uint64_t ops,
               const std::string& path) {
  auto source = make_benchmark_trace(benchmark, 42);
  TracePackWriter writer(path);
  MicroOp op;
  for (std::uint64_t i = 0; i < ops && source->next(op); ++i) {
    writer.append(op);
  }
  std::string error;
  if (!writer.close(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %llu ops of %s to %s\n",
              static_cast<unsigned long long>(writer.ops_written()),
              benchmark.c_str(), path.c_str());
  return 0;
}

int do_replay(const std::string& path, const std::string& preset) {
  std::string error;
  const std::unique_ptr<TracePackReader> reader =
      TracePackReader::open(path, &error);
  if (reader == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  Processor processor(ArchConfig::preset(preset));
  const SimResult result =
      processor.run(*reader, /*warmup=*/0, reader->total_ops());
  std::printf("%s\n", result.detailed_report().c_str());
  return 0;
}

int do_mix() {
  TextTable table({"benchmark", "class", "fp%", "mem%", "branch%",
                   "taken%", "dep dist"});
  for (const BenchmarkDesc& desc : spec2000_benchmarks()) {
    auto trace = make_benchmark_trace(desc.name, 42);
    const TraceMix mix = profile_trace(*trace, 50000);
    table.begin_row();
    table.add_cell(desc.name);
    table.add_cell(desc.is_fp ? "FP" : "INT");
    table.add_cell(mix.fp_fraction() * 100.0, 1);
    table.add_cell(mix.mem_fraction() * 100.0, 1);
    table.add_cell(mix.branch_fraction() * 100.0, 1);
    const std::uint64_t branches =
        mix.by_class[static_cast<std::size_t>(OpClass::Branch)];
    table.add_cell(branches == 0 ? 0.0
                                 : 100.0 *
                                       static_cast<double>(
                                           mix.branches_taken) /
                                       static_cast<double>(branches),
                   1);
    table.add_cell(mix.mean_dep_distance(), 1);
  }
  std::printf("Suite instruction-mix profile (50k ops per program)\n%s",
              table.render_aligned().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "mix") == 0) return do_mix();
  if (argc >= 5 && std::strcmp(argv[1], "capture") == 0) {
    return do_capture(argv[2], std::strtoull(argv[3], nullptr, 10), argv[4]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "replay") == 0) {
    return do_replay(argv[2],
                     argc >= 4 ? argv[3] : "Ring_8clus_1bus_2IW");
  }
  // Default: a short self-demonstration of all three modes.
  std::printf("usage:\n"
              "  trace_tools capture <benchmark> <ops> <file.rclp>\n"
              "  trace_tools replay <file.rclp> [preset]\n"
              "  trace_tools mix\n\n"
              "running the self-demo: capture + replay of 30k swim ops\n\n");
  const std::string path =
      (std::filesystem::temp_directory_path() / "ringclu_demo.rclp").string();
  int status = do_capture("swim", 30000, path);
  if (status == 0) status = do_replay(path, "Ring_8clus_1bus_2IW");
  std::filesystem::remove(path);
  return status;
}
