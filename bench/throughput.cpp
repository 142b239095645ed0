// Simulator-throughput driver: how fast does the simulator itself run?
//
// Simulates the full 26-benchmark suite on the paper's two head-to-head
// 8-cluster machines (Ring and Conv, 1 bus, 2-wide) through SimService
// with an in-memory result store and force=true — every job is a real
// simulation, nothing is read from or written to disk — and reports
// simulated-instructions-per-second, the number the event-driven scheduler
// refactor is measured by.  Emits a machine-readable BENCH_throughput.json
// next to the working directory so successive runs seed a performance
// trajectory.
//
// Wall time is summed over the individual Processor::run calls (per-run
// timers), so the aggregate is per-core simulation speed and is comparable
// across RINGCLU_THREADS settings; end-to-end elapsed time is reported
// separately.
//
// Knobs: RINGCLU_INSTRS / RINGCLU_WARMUP / RINGCLU_SEED / RINGCLU_THREADS.
// With RINGCLU_CHECKPOINT_DIR set, workers restore shared warmup
// checkpoints (writing them on the first cold pass), and the JSON gains
// the measured savings: "warmup_restored_runs" and
// "warmup_amortized_seconds" (simulation seconds not re-spent on warmup,
// net of restore cost).  Successive passes over the same directory
// amortize the entire warmup phase.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/arch_config.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/sim_service.h"
#include "trace/pack/pack_writer.h"
#include "trace/registry.h"
#include "trace/synth/suite.h"
#include "util/assert.h"

namespace {

using namespace ringclu;

struct ConfigStats {
  std::string name;
  std::uint64_t instrs = 0;
  double wall = 0.0;
};

/// Records a gzip pack sized for the run budget into a scratch directory,
/// registers it, and returns its benchmark name ("" on failure).  The
/// packed-trace stage measures mmap+decompress replay against the same
/// budget the synthetic stage ran.
std::string prepare_packed_trace(const RunParams& params,
                                 std::uint64_t* pack_ops) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ringclu_bench_packs";
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return "";
  const std::string path = (dir / "bench_gzip.rclp").string();

  // Fetch runs ahead of commit; 4096 ops of slack covers any lookahead.
  const std::uint64_t ops = params.instrs + params.warmup + 4096;
  auto source = make_benchmark_trace("gzip", params.seed);
  TracePackWriter writer(path);
  MicroOp op;
  for (std::uint64_t i = 0; i < ops && source->next(op); ++i) {
    writer.append(op);
  }
  std::string error;
  if (!writer.close(&error)) {
    std::fprintf(stderr, "[throughput] pack write failed: %s\n",
                 error.c_str());
    return "";
  }
  *pack_ops = ops;
  TraceBenchmarkRegistry::global().add_dir(dir.string());
  return "trace:bench_gzip";
}

}  // namespace

int main() {
  const RunnerOptions options = RunnerOptions::from_env();
  const std::vector<std::string> presets = {"Ring_8clus_1bus_2IW",
                                            "Conv_8clus_1bus_2IW"};
  const std::vector<std::string> benchmarks = default_benchmarks();

  SimServiceOptions service_options;
  service_options.threads = options.threads;
  service_options.force = true;  // Measure simulations, not cache hits.
  service_options.checkpoint = options.checkpoint_options();
  SimService service(
      make_result_store(StoreBackend::Memory, "", /*verbose=*/false),
      service_options);

  std::vector<SimJob> jobs;
  for (const std::string& preset : presets) {
    for (const std::string& benchmark : benchmarks) {
      jobs.push_back(SimJob{ArchConfig::preset(preset), benchmark,
                            options.run_params()});
    }
  }

  std::fprintf(stderr,
               "[throughput] %zu runs (%llu instrs + %llu warmup each, "
               "%d thread(s))...\n",
               jobs.size(), static_cast<unsigned long long>(options.instrs),
               static_cast<unsigned long long>(options.warmup),
               service.options().threads);

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<JobHandle> handles = service.submit_batch(std::move(jobs));
  std::vector<SimResult> results;
  results.reserve(handles.size());
  for (const JobHandle& handle : handles) {
    const JobStatus status = handle.wait();
    RINGCLU_EXPECTS(status == JobStatus::Done);
    results.push_back(handle.result());
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  RINGCLU_ENSURES(service.simulations_run() == results.size());
  // Workers are spawned lazily: what actually ran, not what was asked for
  // (a small matrix on a big machine starts fewer threads than
  // RINGCLU_THREADS).
  const std::size_t workers = service.workers_started();

  std::vector<ConfigStats> per_config;
  for (std::size_t i = 0; i < presets.size(); ++i) {
    ConfigStats stats;
    stats.name = presets[i];
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
      const SimResult& result = results[i * benchmarks.size() + b];
      stats.instrs += result.total_committed;
      stats.wall += result.wall_seconds;
    }
    per_config.push_back(stats);
  }

  std::printf("Simulator throughput (%zu benchmarks x %zu configs)\n",
              benchmarks.size(), presets.size());
  for (const ConfigStats& stats : per_config) {
    std::printf("  %-24s %8.1fM instrs  %6.2fs  %6.2fM instrs/s\n",
                stats.name.c_str(), static_cast<double>(stats.instrs) / 1e6,
                stats.wall,
                stats.wall <= 0.0
                    ? 0.0
                    : static_cast<double>(stats.instrs) / stats.wall / 1e6);
  }
  std::size_t restored_runs = 0;
  double warmup_amortized = 0.0;
  for (const SimResult& result : results) {
    restored_runs += result.warmup_restored ? 1 : 0;
    warmup_amortized += result.warmup_amortized_seconds;
  }

  std::printf("%s\n", throughput_summary(results).c_str());
  std::printf("end-to-end elapsed: %.2fs (%zu of %d worker thread(s) used)\n",
              elapsed, workers, service.options().threads);
  if (!options.checkpoint_dir.empty()) {
    std::printf(
        "warmup checkpoints: %zu/%zu runs restored, %.2fs amortized\n",
        restored_runs, results.size(), warmup_amortized);
  }

  // Packed-trace replay stage: the same budget, but the workload streams
  // from a block-compressed RCLP pack (mmap + decompress) instead of the
  // live generator — the marginal cost of trace-driven simulation.
  std::uint64_t pack_ops = 0;
  const std::string packed_name =
      prepare_packed_trace(options.run_params(), &pack_ops);
  std::uint64_t packed_instrs = 0;
  double packed_wall = 0.0;
  if (!packed_name.empty()) {
    std::vector<SimJob> packed_jobs;
    for (const std::string& preset : presets) {
      packed_jobs.push_back(
          SimJob{ArchConfig::preset(preset), packed_name,
                 options.run_params()});
    }
    const std::vector<JobHandle> packed_handles =
        service.submit_batch(std::move(packed_jobs));
    for (const JobHandle& handle : packed_handles) {
      // Waited outside the contract: with contracts compiled out, its
      // condition is never evaluated.
      const JobStatus status = handle.wait();
      RINGCLU_EXPECTS(status == JobStatus::Done);
      const SimResult result = handle.result();
      packed_instrs += result.total_committed;
      packed_wall += result.wall_seconds;
    }
    std::printf(
        "packed-trace replay (%s, %llu ops x %zu configs): "
        "%.1fM instrs  %.2fs  %.2fM instrs/s\n",
        packed_name.c_str(), static_cast<unsigned long long>(pack_ops),
        presets.size(), static_cast<double>(packed_instrs) / 1e6, packed_wall,
        packed_wall <= 0.0
            ? 0.0
            : static_cast<double>(packed_instrs) / packed_wall / 1e6);
  }

  const double ips = aggregate_sim_ips(results);
  std::FILE* json = std::fopen("BENCH_throughput.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "[throughput] cannot write BENCH_throughput.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"schema_version\": %d,\n", kSimSchemaVersion);
  std::fprintf(json, "  \"instrs_per_run\": %llu,\n",
               static_cast<unsigned long long>(options.instrs));
  std::fprintf(json, "  \"warmup_per_run\": %llu,\n",
               static_cast<unsigned long long>(options.warmup));
  std::fprintf(json, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(options.seed));
  // Workers actually started, not the configured ceiling (the historical
  // "threads" field always echoed the request, even when lazy spawning
  // used fewer).
  std::fprintf(json, "  \"threads\": %zu,\n", workers);
  std::fprintf(json, "  \"threads_requested\": %d,\n",
               service.options().threads);
  std::fprintf(json, "  \"benchmarks\": %zu,\n", benchmarks.size());
  std::fprintf(json, "  \"runs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SimResult& result = results[i];
    std::fprintf(json,
                 "    {\"config\": \"%s\", \"benchmark\": \"%s\", "
                 "\"sim_instrs\": %llu, \"wall_seconds\": %.6f, "
                 "\"sim_instrs_per_second\": %.1f}%s\n",
                 presets[i / benchmarks.size()].c_str(),
                 benchmarks[i % benchmarks.size()].c_str(),
                 static_cast<unsigned long long>(result.total_committed),
                 result.wall_seconds,
                 result.wall_seconds <= 0.0
                     ? 0.0
                     : static_cast<double>(result.total_committed) /
                           result.wall_seconds,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"configs\": [\n");
  for (std::size_t i = 0; i < per_config.size(); ++i) {
    const ConfigStats& stats = per_config[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"sim_instrs\": %llu, "
                 "\"wall_seconds\": %.6f, \"sim_instrs_per_second\": %.1f}%s\n",
                 stats.name.c_str(),
                 static_cast<unsigned long long>(stats.instrs), stats.wall,
                 stats.wall <= 0.0
                     ? 0.0
                     : static_cast<double>(stats.instrs) / stats.wall,
                 i + 1 < per_config.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::uint64_t total_instrs = 0;
  double total_wall = 0.0;
  for (const ConfigStats& stats : per_config) {
    total_instrs += stats.instrs;
    total_wall += stats.wall;
  }
  std::fprintf(json, "  \"total_sim_instrs\": %llu,\n",
               static_cast<unsigned long long>(total_instrs));
  std::fprintf(json, "  \"total_wall_seconds\": %.6f,\n", total_wall);
  std::fprintf(json, "  \"sim_instrs_per_second\": %.1f,\n", ips);
  std::fprintf(json, "  \"warmup_restored_runs\": %zu,\n", restored_runs);
  std::fprintf(json, "  \"warmup_amortized_seconds\": %.6f,\n",
               warmup_amortized);
  if (!packed_name.empty()) {
    std::fprintf(json,
                 "  \"packed_trace\": {\"benchmark\": \"%s\", "
                 "\"pack_ops\": %llu, \"sim_instrs\": %llu, "
                 "\"wall_seconds\": %.6f, "
                 "\"sim_instrs_per_second\": %.1f},\n",
                 packed_name.c_str(),
                 static_cast<unsigned long long>(pack_ops),
                 static_cast<unsigned long long>(packed_instrs), packed_wall,
                 packed_wall <= 0.0
                     ? 0.0
                     : static_cast<double>(packed_instrs) / packed_wall);
  }
  std::fprintf(json, "  \"end_to_end_seconds\": %.6f\n", elapsed);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::fprintf(stderr, "[throughput] wrote BENCH_throughput.json\n");
  return 0;
}
