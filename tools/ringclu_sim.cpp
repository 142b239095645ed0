/// \file ringclu_sim.cpp
/// The command-line driver: simulate one (configuration, workload) pair
/// with arbitrary parameter overrides, or expand and run a declarative
/// sweep spec through the asynchronous SimService and print its report
/// tables (a preset matrix is a spec with one "preset" axis, e.g.
/// examples/sweeps/paper_matrix.json).
///
///   ringclu_sim [--json] <preset|config.json> <benchmark|pack.rclp>
///       [key=value ...]
///   ringclu_sim --config <file.json> <benchmark|pack.rclp> [key=value ...]
///   ringclu_sim --dump-config <preset|config.json> [key=value ...]
///   ringclu_sim --sweep <spec.json> [key=value ...]
///   ringclu_sim --list
///
/// Checkpointing (any run mode; see DESIGN.md §10):
///   --checkpoint-dir=DIR   reuse warmup checkpoints in DIR instead of
///                          re-simulating warmup (writes them on first need)
///   --resume               continue interrupted runs from their mid-run
///                          snapshots (written every snapshot_interval=N
///                          committed instructions)
///
/// A configuration is named either by a Table 3-style preset
/// (Ring_8clus_1bus_2IW, suffixes +SSA / @2cyc) or by a JSON file written
/// by --dump-config / ArchConfig::to_json.  Malformed files and invalid
/// parameter combinations report every problem at once and exit 2, as do
/// a key the mode does not accept and a malformed value.
///
/// Overrides (key=value; --dump-config takes the geometry, size, steering
/// and copy-policy keys):
///   instrs, warmup, seed          run control
///   snapshot_interval=N           mid-run snapshot cadence in committed
///                                 instrs (needs --checkpoint-dir)
///   clusters, width, buses, hop   machine geometry
///   regs, iq, comm_iq, rob, lsq   structure sizes
///   dcount_threshold              Conv imbalance threshold
///   steer                         steering policy by registry name
///   eviction, eager_release       copy policies (bool)
///   report=summary|detailed|csv|json   output format (--json == report=json)
///
/// --sweep overrides:
///   benchmarks=<name,name,...>    (default: spec / suite / RINGCLU_BENCHMARKS)
///   instrs, warmup, seed, threads run control (the spec's run block loses
///                                 to the command line)
///   backend=tsv|memory            result store (RINGCLU_CACHE_BACKEND)
///   cache=<path>                  tsv store file (RINGCLU_CACHE)
///   force=1                       re-simulate despite the store
///   interval=N                    sample metrics every N committed instrs
///   json=<path> | csv=<path>      interval-metric sink (needs interval=N;
///                                 sampled jobs always simulate)
///   expand=<path>                 write the expanded design points as a
///                                 JSON artifact
///   checkpoint_dir=DIR, resume=1  as --checkpoint-dir / --resume
///
/// The paper's figures and ablations are sweep specs under bench/figures/
/// whose "report" array names the tables to print (DESIGN.md §9).
///
/// Examples:
///   ringclu_sim Ring_8clus_1bus_2IW swim instrs=1000000
///   ringclu_sim --dump-config Ring_8clus_1bus_2IW clusters=4 > my.json
///   ringclu_sim --config my.json swim
///   ringclu_sim Conv_8clus_1bus_2IW gcc steer=round_robin report=summary
///   ringclu_sim --sweep examples/sweeps/paper_matrix.json
///       benchmarks=gzip,swim backend=memory instrs=50000
///   ringclu_sim --sweep sweep.json interval=10000 json=metrics.jsonl
///   ringclu_sim --sweep bench/figures/fig06_10_paper_matrix.json

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/sim_service.h"
#include "stats/metric_sink.h"
#include "stats/metrics.h"
#include "steer/registry.h"
#include "trace/pack/pack_reader.h"
#include "trace/registry.h"
#include "trace/synth/suite.h"
#include "util/assert.h"
#include "util/config.h"
#include "util/format.h"
#include "util/json.h"

namespace {

using namespace ringclu;

int list_everything() {
  std::printf("presets (suffixes: +SSA, @2cyc):\n");
  for (const std::string& name : ArchConfig::paper_preset_names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("benchmarks:\n ");
  for (const BenchmarkDesc& desc : spec2000_benchmarks()) {
    std::printf(" %s%s", std::string(desc.name).c_str(),
                desc.is_fp ? "(fp)" : "");
  }
  const std::vector<TraceBenchmarkInfo> traces =
      TraceBenchmarkRegistry::global().list();
  if (!traces.empty()) {
    std::printf("\ntrace benchmarks (RINGCLU_TRACE_DIR / --trace-dir):\n");
    for (const TraceBenchmarkInfo& info : traces) {
      std::printf("  %s  (%llu ops, digest %s)\n", info.name.c_str(),
                  static_cast<unsigned long long>(info.total_ops),
                  format_digest(info.digest).c_str());
    }
  }
  std::printf("\nsteering policies:\n  %s\n",
              SteeringRegistry::global().names_joined().c_str());
  std::printf("config fields (--dump-config shows defaults; sweep axes "
              "accept these or 'preset'):\n  %s\n",
              join(ArchConfig::field_names(), ", ").c_str());
  return 0;
}

/// Checkpoint flags lifted out of argv before mode dispatch; they apply
/// to every run mode and compose with the RINGCLU_CHECKPOINT_DIR /
/// RINGCLU_RESUME environment defaults (flags win).
struct CheckpointFlags {
  std::string dir;
  bool resume = false;
};

/// Strict key=value count: missing -> fallback; malformed/negative/
/// above \p max -> diagnostic + exit 2 (never an abort).
std::uint64_t cli_uint(const Config& options, const char* key,
                       std::uint64_t fallback, std::uint64_t max = UINT64_MAX) {
  const std::optional<std::string> raw = options.get(key);
  if (!raw) return fallback;
  const std::optional<std::uint64_t> parsed = parse_uint(*raw);
  if (!parsed || *parsed > max) {
    std::fprintf(stderr, "bad %s=%s (want a non-negative integer up to %llu)\n",
                 key, raw->c_str(), static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return *parsed;
}

/// cli_uint for an int-typed field.
int cli_int(const Config& options, const char* key, int fallback) {
  return static_cast<int>(
      cli_uint(options, key, static_cast<std::uint64_t>(fallback), INT_MAX));
}

/// Strict key=value boolean (same contract as cli_uint).
bool cli_bool(const Config& options, const char* key, bool fallback) {
  const std::optional<std::string> raw = options.get(key);
  if (!raw) return fallback;
  const std::optional<bool> parsed = parse_bool(*raw);
  if (!parsed) {
    std::fprintf(stderr, "bad %s=%s (want a boolean: 1/0, true/false)\n", key,
                 raw->c_str());
    std::exit(2);
  }
  return *parsed;
}

/// The key=value keys each mode accepts.
std::vector<std::string_view> config_keys() {
  return {"buses",         "clusters", "comm_iq", "dcount_threshold",
          "eager_release", "eviction", "hop",     "iq",
          "lsq",           "regs",     "rob",     "steer",
          "width"};
}
std::vector<std::string_view> single_run_keys() {
  std::vector<std::string_view> keys = config_keys();
  keys.insert(keys.end(),
              {"instrs", "warmup", "seed", "snapshot_interval", "report"});
  return keys;
}
std::vector<std::string_view> sweep_keys() {
  return {"benchmarks", "instrs",   "warmup",         "seed",
          "threads",    "backend",  "cache",          "force",
          "interval",   "json",     "csv",            "checkpoint_dir",
          "snapshot_interval",      "resume",         "expand"};
}

/// False (diagnostic naming the key and the valid keys printed) when
/// \p options holds a key outside \p valid.
bool known_keys(const Config& options, std::vector<std::string_view> valid) {
  std::sort(valid.begin(), valid.end());
  for (const std::string& entry : options.entries()) {
    const std::string key = entry.substr(0, entry.find('='));
    if (!std::binary_search(valid.begin(), valid.end(), key)) {
      const std::vector<std::string> names(valid.begin(), valid.end());
      std::fprintf(stderr, "unknown key '%s'; valid keys: %s\n", key.c_str(),
                   join(names, ", ").c_str());
      return false;
    }
  }
  return true;
}

/// Parses argv[first..argc) as key=value overrides; nullopt (diagnostic
/// printed) on a malformed token or a key outside \p valid.
std::optional<Config> parse_overrides(int argc, char** argv, int first,
                                      std::vector<std::string_view> valid) {
  Config options;
  for (int i = first; i < argc; ++i) {
    if (!options.parse_token(argv[i])) {
      std::fprintf(stderr, "bad override (want key=value): %s\n", argv[i]);
      return std::nullopt;
    }
  }
  if (!known_keys(options, std::move(valid))) return std::nullopt;
  return options;
}

bool ends_with(const std::string& name, std::string_view suffix) {
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

bool is_trace_pack(const std::string& name) {
  return ends_with(name, ".rclp");
}

/// Reads a whole file; nullopt (with a diagnostic) when unreadable.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void print_errors(const char* what, const std::vector<std::string>& errors) {
  std::fprintf(stderr, "%s:\n", what);
  for (const std::string& error : errors) {
    std::fprintf(stderr, "  - %s\n", error.c_str());
  }
}

/// Resolves a configuration token: a .json file (ArchConfig::from_json) or
/// a preset name.  All problems are reported at once; nullopt means the
/// caller should exit 2.
std::optional<ArchConfig> load_config_token(const std::string& token) {
  if (ends_with(token, ".json")) {
    const std::optional<std::string> text = read_file(token);
    if (!text) return std::nullopt;
    std::vector<std::string> errors;
    std::optional<ArchConfig> config = ArchConfig::from_json(*text, &errors);
    if (!config) {
      print_errors(("invalid configuration in " + token).c_str(), errors);
      return std::nullopt;
    }
    return config;
  }
  std::optional<ArchConfig> config = ArchConfig::try_preset(token);
  if (!config) {
    std::fprintf(stderr,
                 "unknown preset '%s' (want Arch_Nclus_Bbus_WIW, e.g. %s; "
                 "suffixes +SSA, @2cyc; or a .json config file; see --list)\n",
                 token.c_str(),
                 ArchConfig::paper_preset_names().front().c_str());
    return std::nullopt;
  }
  return config;
}

/// Applies the single-run key=value overrides onto \p config.  Returns
/// false (diagnostic printed) on an unknown steering policy; a malformed
/// number or boolean exits 2 (cli_uint / cli_bool).
bool apply_config_overrides(ArchConfig& config, const Config& options) {
  config.num_clusters = cli_int(options, "clusters", config.num_clusters);
  config.issue_width = cli_int(options, "width", config.issue_width);
  config.num_buses = cli_int(options, "buses", config.num_buses);
  config.hop_latency = cli_int(options, "hop", config.hop_latency);
  config.regs_per_class = cli_int(options, "regs", config.regs_per_class);
  config.iq_int = config.iq_fp = cli_int(options, "iq", config.iq_int);
  config.iq_comm = cli_int(options, "comm_iq", config.iq_comm);
  config.rob_size = cli_int(options, "rob", config.rob_size);
  config.lsq_size = cli_int(options, "lsq", config.lsq_size);
  config.dcount_threshold =
      cli_int(options, "dcount_threshold", config.dcount_threshold);
  config.copy_eviction = cli_bool(options, "eviction", config.copy_eviction);
  config.eager_copy_release =
      cli_bool(options, "eager_release", config.eager_copy_release);
  const std::string steer = options.get_string("steer", "");
  if (!steer.empty()) {
    // Same resolution rule as JSON "steer" and sweep axes.
    if (const std::optional<std::string> error = config.set_steering(steer)) {
      std::fprintf(stderr, "%s\n", error->c_str());
      return false;
    }
  }
  return true;
}

/// RunnerOptions with the batch-mode key=value overrides applied
/// (threads/backend/cache/force and run control); nullopt (diagnostic
/// printed) on a bad backend name.
std::optional<RunnerOptions> resolve_batch_options(
    const Config& options, const CheckpointFlags& checkpoint_flags) {
  RunnerOptions runner_options = RunnerOptions::from_env();
  runner_options.instrs = cli_uint(options, "instrs", runner_options.instrs);
  runner_options.warmup = cli_uint(options, "warmup", runner_options.warmup);
  runner_options.seed = cli_uint(options, "seed", runner_options.seed);
  runner_options.threads = static_cast<int>(cli_uint(
      options, "threads",
      static_cast<std::uint64_t>(runner_options.threads)));
  runner_options.force = cli_bool(options, "force", runner_options.force);
  runner_options.verbose = false;  // Progress line instead.
  runner_options.checkpoint_dir = options.get_string(
      "checkpoint_dir", runner_options.checkpoint_dir);
  runner_options.snapshot_interval = cli_uint(
      options, "snapshot_interval", runner_options.snapshot_interval);
  runner_options.resume =
      cli_bool(options, "resume", runner_options.resume);
  if (!checkpoint_flags.dir.empty()) {
    runner_options.checkpoint_dir = checkpoint_flags.dir;
  }
  if (checkpoint_flags.resume) runner_options.resume = true;
  const std::string backend_name = options.get_string(
      "backend", std::string(store_backend_name(runner_options.cache_backend)));
  const std::optional<StoreBackend> backend =
      parse_store_backend(backend_name);
  if (!backend) {
    std::fprintf(stderr, "bad backend '%s' (valid: tsv, memory)\n",
                 backend_name.c_str());
    return std::nullopt;
  }
  runner_options.cache_backend = *backend;
  if (const std::string cache = options.get_string("cache", "");
      !cache.empty()) {
    runner_options.cache_path = cache;
  }
  return runner_options;
}

/// Interval-metric streaming for a batch: CLI interval=/json=/csv=
/// overrides win over RINGCLU_INTERVAL / RINGCLU_METRICS (already
/// validated by from_env), and the result lands in \p runner_options'
/// interval and metrics_sink.  Returns false (diagnostic printed) on an
/// inconsistent combination.
bool resolve_streaming(const Config& options, RunnerOptions& runner_options) {
  const std::uint64_t interval =
      cli_uint(options, "interval", runner_options.interval);
  std::string json_path = options.get_string("json", "");
  std::string csv_path = options.get_string("csv", "");
  if (interval > 0 && json_path.empty() && csv_path.empty() &&
      !runner_options.metrics_sink.empty()) {
    const auto spec = parse_metric_sink_spec(runner_options.metrics_sink);
    if (spec.has_value()) {
      (spec->first == MetricSinkKind::JsonLines ? json_path : csv_path) =
          spec->second;
    }
  }
  if (!json_path.empty() && !csv_path.empty()) {
    std::fprintf(stderr, "pick one metric sink: json=<path> or csv=<path>\n");
    return false;
  }
  const std::string sink_path = !json_path.empty() ? json_path : csv_path;
  if ((interval > 0) != !sink_path.empty()) {
    std::fprintf(stderr,
                 "interval metrics need both interval=N and json=<path> "
                 "(or csv=<path>)\n");
    return false;
  }
  runner_options.interval = interval;
  runner_options.metrics_sink =
      interval == 0 ? "" : (json_path.empty() ? "csv:" : "jsonl:") + sink_path;
  return true;
}

/// Submits \p jobs, streams a progress line, waits for completion and
/// returns the results in input order; non-zero on any failed job.
///
/// The progress counter is shared_ptr-owned by the callbacks themselves:
/// workers publish Done (waking wait()) BEFORE running callbacks, so this
/// frame can unwind — normally or via the early error return — while a
/// worker is still counting; a by-reference capture would be a
/// use-after-scope.
int run_batch(SimService& service, std::vector<SimJob> jobs,
              std::vector<SimResult>& results) {
  const std::size_t total = jobs.size();
  auto completed = std::make_shared<std::atomic<std::size_t>>(0);
  std::vector<JobHandle> handles = service.submit_batch(std::move(jobs));
  for (JobHandle& handle : handles) {
    handle.on_complete([completed, total](const SimResult&) {
      const std::size_t done = completed->fetch_add(1) + 1;
      std::fprintf(stderr, "\r[sweep] %zu/%zu done", done, total);
      if (done == total) std::fprintf(stderr, "\n");
    });
  }
  results.clear();
  results.reserve(handles.size());
  for (const JobHandle& handle : handles) {
    if (handle.wait() != JobStatus::Done) {
      std::fprintf(stderr, "\n[sweep] job %s: %s\n", handle.key().c_str(),
                   std::string(job_status_name(handle.status())).c_str());
      return 1;
    }
    results.push_back(handle.result());
  }
  if (completed->load() < total) std::fprintf(stderr, "\n");
  return 0;
}

/// Runs every (point, benchmark) pair of \p spec through SimService with
/// live progress on stderr, then prints the spec's report tables.
int run_spec(const ExperimentSpec& spec, const Config& options,
             const CheckpointFlags& checkpoint_flags) {
  std::optional<RunnerOptions> runner_options =
      resolve_batch_options(options, checkpoint_flags);
  if (!runner_options) return 2;

  // Run control: environment defaults, then the spec's run block, then
  // explicit command-line overrides (runner_options holds the first and
  // the last).
  RunParams params = runner_options->run_params();
  if (!options.contains("instrs") && spec.instrs) params.instrs = *spec.instrs;
  if (!options.contains("warmup") && spec.warmup) params.warmup = *spec.warmup;
  if (!options.contains("seed") && spec.seed) params.seed = *spec.seed;

  std::vector<std::string> benchmarks;
  for (const std::string& name :
       split(options.get_string("benchmarks", ""), ',')) {
    benchmarks.push_back(name);
  }
  if (!benchmarks.empty()) {
    if (const std::optional<std::string> error =
            validate_benchmark_names(benchmarks)) {
      std::fprintf(stderr, "%s\n", error->c_str());
      return 2;
    }
  } else if (!spec.benchmarks.empty()) {
    benchmarks = spec.benchmarks;
  } else {
    benchmarks = default_benchmarks();
  }

  const std::vector<ExperimentPoint> points = spec.expand();
  RINGCLU_ASSERT(!points.empty());  // The caller validated the expansion.

  if (const std::string expand_path = options.get_string("expand", "");
      !expand_path.empty()) {
    std::ofstream outfile(expand_path, std::ios::binary | std::ios::trunc);
    if (!outfile) {
      std::fprintf(stderr, "cannot write '%s'\n", expand_path.c_str());
      return 2;
    }
    outfile << ExperimentSpec::points_to_json(points) << "\n";
    std::fprintf(stderr, "[sweep] wrote %zu expanded configs to %s\n",
                 points.size(), expand_path.c_str());
  }

  if (!resolve_streaming(options, *runner_options)) return 2;
  // Declared before the service: workers stream into the sink until
  // ~SimService joins them.
  const std::unique_ptr<MetricSink> sink = runner_options->build_metric_sink();
  SimService service(*runner_options);
  params.interval = runner_options->interval;

  const std::size_t raw = spec.cross_product_size();
  std::fprintf(stderr,
               "[sweep] %s: %zu design points (%zu raw, %zu collapsed as "
               "duplicates) x %zu benchmarks, %d thread(s), %s store\n",
               spec.name.c_str(), points.size(), raw, raw - points.size(),
               benchmarks.size(), service.options().threads,
               service.store().describe().c_str());
  if (sink != nullptr) {
    std::fprintf(stderr,
                 "[sweep] streaming interval metrics (every %llu committed "
                 "instrs) to %s\n",
                 static_cast<unsigned long long>(params.interval),
                 sink->describe().c_str());
  }

  std::vector<SimResult> results;
  if (const int status = run_batch(
          service, make_sweep_jobs(points, benchmarks, params, sink.get()),
          results);
      status != 0) {
    return status;
  }

  const std::string counts =
      str_format("%zu benchmarks; %zu simulated, %zu from store, %zu coalesced",
                 benchmarks.size(), service.simulations_run(),
                 service.store_hits(), service.coalesced_submissions());
  if (spec.report.empty()) {
    std::printf("IPC by design point (%s)\n", counts.c_str());
  } else {
    std::printf("%s (%s)\n", spec.name.c_str(), counts.c_str());
  }
  std::fputs(render_report(spec, points, results).c_str(), stdout);
  if (aggregate_sim_ips(results) > 0.0) {
    std::printf("%s\n", throughput_summary(results).c_str());
  }
  return 0;
}

/// --sweep: load a declarative ExperimentSpec and run it.
int run_sweep_mode(const std::string& spec_path, const Config& options,
                   const CheckpointFlags& checkpoint_flags) {
  const std::optional<std::string> text = read_file(spec_path);
  if (!text) return 2;
  std::vector<std::string> errors;
  const std::optional<ExperimentSpec> spec =
      ExperimentSpec::from_json(*text, &errors);
  if (!spec) {
    print_errors(("invalid sweep spec " + spec_path).c_str(), errors);
    return 2;
  }
  return run_spec(*spec, options, checkpoint_flags);
}

/// --dump-config: print the resolved configuration as pretty JSON.
int run_dump_config(const std::string& token, const Config& options) {
  std::optional<ArchConfig> config = load_config_token(token);
  if (!config) return 2;
  if (!apply_config_overrides(*config, options)) return 2;
  if (const std::vector<std::string> violations = config->try_validate();
      !violations.empty()) {
    print_errors("invalid configuration", violations);
    return 2;
  }
  const std::optional<JsonValue> document = json_parse(config->to_json());
  RINGCLU_ASSERT(document.has_value());
  std::printf("%s\n", json_pretty(*document).c_str());
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: ringclu_sim [--json] <preset|config.json> <benchmark|pack.rclp> "
      "[key=value ...]\n"
      "       ringclu_sim --config <file.json> <benchmark|pack.rclp> "
      "[key=value ...]\n"
      "       ringclu_sim --dump-config <preset|config.json> [key=value ...]\n"
      "       ringclu_sim --sweep <spec.json> [key=value ...]\n"
      "       ringclu_sim --list\n"
      "flags (any mode): --checkpoint-dir=DIR  reuse warmup checkpoints\n"
      "                  --resume              resume from snapshots\n"
      "                  --trace-dir=DIR       register *.rclp packs as\n"
      "                                        'trace:<stem>' benchmarks\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Checkpoint and trace-dir flags may appear anywhere; lift them out
  // before dispatch.
  CheckpointFlags checkpoint_flags;
  std::vector<char*> kept_args;
  kept_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--resume") == 0) {
      checkpoint_flags.resume = true;
    } else if (std::strncmp(argv[i], "--checkpoint-dir=", 17) == 0) {
      checkpoint_flags.dir = argv[i] + 17;
      if (checkpoint_flags.dir.empty()) {
        std::fprintf(stderr, "--checkpoint-dir needs a directory\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--checkpoint-dir needs a directory\n");
        return 2;
      }
      checkpoint_flags.dir = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-dir=", 12) == 0) {
      if (argv[i][12] == '\0') {
        std::fprintf(stderr, "--trace-dir needs a directory\n");
        return 2;
      }
      TraceBenchmarkRegistry::global().add_dir(argv[i] + 12);
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace-dir needs a directory\n");
        return 2;
      }
      TraceBenchmarkRegistry::global().add_dir(argv[++i]);
    } else {
      kept_args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(kept_args.size());
  argv = kept_args.data();
  if (checkpoint_flags.resume && checkpoint_flags.dir.empty()) {
    std::fprintf(stderr,
                 "--resume needs --checkpoint-dir (or "
                 "RINGCLU_CHECKPOINT_DIR)\n");
    // Not fatal: the environment may provide the directory for batch modes.
  }

  if (argc >= 2 && std::strcmp(argv[1], "--list") == 0) {
    return list_everything();
  }

  if (argc >= 2 && std::strcmp(argv[1], "--sweep") == 0) {
    if (argc < 3) return usage();
    const std::optional<Config> options =
        parse_overrides(argc, argv, 3, sweep_keys());
    if (!options) return 2;
    return run_sweep_mode(argv[2], *options, checkpoint_flags);
  }

  if (argc >= 2 && std::strcmp(argv[1], "--dump-config") == 0) {
    if (argc < 3) return usage();
    const std::optional<Config> options =
        parse_overrides(argc, argv, 3, config_keys());
    if (!options) return 2;
    return run_dump_config(argv[2], *options);
  }

  // --json: machine-readable single-run report (same as report=json).
  bool json_report = false;
  if (argc >= 2 && std::strcmp(argv[1], "--json") == 0) {
    json_report = true;
    --argc;
    ++argv;
  }

  // --config <file>: explicit form of passing a .json path positionally.
  if (argc >= 2 && std::strcmp(argv[1], "--config") == 0) {
    --argc;
    ++argv;
    if (argc < 2 || !ends_with(argv[1], ".json")) {
      std::fprintf(stderr, "--config needs a .json file argument\n");
      return 2;
    }
  }

  if (argc < 3) return usage();

  const std::optional<Config> parsed =
      parse_overrides(argc, argv, 3, single_run_keys());
  if (!parsed) return 2;
  const Config& options = *parsed;
  // Run control comes from the command line alone; the environment is
  // only checked for names nothing reads.
  warn_unknown_env();
  const std::string report =
      options.get_string("report", json_report ? "json" : "detailed");
  if (report != "json" && report != "summary" && report != "csv" &&
      report != "detailed") {
    std::fprintf(stderr,
                 "bad report=%s (want summary, detailed, csv or json)\n",
                 report.c_str());
    return 2;
  }

  std::optional<ArchConfig> loaded = load_config_token(argv[1]);
  if (!loaded) return 2;
  ArchConfig config = *std::move(loaded);
  if (!apply_config_overrides(config, options)) return 2;
  if (const std::vector<std::string> violations = config.try_validate();
      !violations.empty()) {
    print_errors("invalid configuration", violations);
    return 2;
  }

  const std::uint64_t instrs = cli_uint(options, "instrs", 200000);
  const std::uint64_t warmup = cli_uint(options, "warmup", instrs / 10);
  const std::uint64_t seed = cli_uint(options, "seed", 42);
  const std::uint64_t snapshot_interval =
      cli_uint(options, "snapshot_interval", 0);
  if (snapshot_interval > 0 && checkpoint_flags.dir.empty()) {
    std::fprintf(stderr,
                 "snapshot_interval needs --checkpoint-dir; no snapshots "
                 "will be written\n");
  }

  const std::string workload = argv[2];
  std::unique_ptr<TraceSource> trace;
  if (is_trace_pack(workload)) {
    std::string error;
    trace = TracePackReader::open(workload, &error);
    if (trace == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
  } else {
    if (const std::optional<std::string> error =
            validate_benchmark_names({workload})) {
      std::fprintf(stderr, "%s\n", error->c_str());
      return 2;
    }
    trace = make_workload_trace(workload, seed);
  }

  SimJob job;
  job.config = config;
  job.benchmark = workload;
  job.params.instrs = instrs;
  job.params.warmup = warmup;
  job.params.seed = seed;
  job.params.snapshot_interval = snapshot_interval;
  CheckpointOptions checkpoint;
  checkpoint.dir = checkpoint_flags.dir;
  checkpoint.resume = checkpoint_flags.resume;
  const SimResult result = run_sim_job_on_trace(job, checkpoint, *trace);
  if (result.warmup_restored) {
    std::fprintf(stderr,
                 "[ringclu] restored checkpoint from %s (amortized "
                 "%.2fs of simulation)\n",
                 checkpoint_flags.dir.c_str(),
                 result.warmup_amortized_seconds);
  }

  if (report == "json") {
    // The full metrics registry for one run, as one JSON document
    // (round-trip pinned by tests/metrics_test.cpp).
    std::printf("%s\n", result_to_json(result).c_str());
  } else if (report == "summary") {
    std::printf("%s\n", result.summary().c_str());
  } else if (report == "csv") {
    std::printf("%s\n", serialize_result(result).c_str());
  } else {
    std::printf("%s", config.describe().c_str());
    std::printf("\n%s", result.detailed_report().c_str());
    std::printf("  sim rate: %.2fM instrs/s (%.2fs wall)\n",
                result.sim_instrs_per_second() / 1e6, result.wall_seconds);
  }
  return 0;
}
