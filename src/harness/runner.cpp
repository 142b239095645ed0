#include "harness/runner.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <thread>

#include "stats/metric_sink.h"
#include "trace/registry.h"
#include "trace/synth/suite.h"
#include "util/assert.h"
#include "util/config.h"
#include "util/format.h"

namespace ringclu {

int default_thread_count() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 2;
}

namespace {

/// "RINGCLU_<KEY>" for a Config key imported from the environment.
std::string env_var_name(std::string_view key) {
  std::string name = "RINGCLU_";
  for (const char c : key) {
    name += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return name;
}

/// One RINGCLU_<KEY> environment value for exit-2 diagnostics.
[[noreturn]] void env_knob_fail(std::string_view key, const std::string& raw,
                                const char* want) {
  std::fprintf(stderr, "[ringclu] %s=%s is not %s\n",
               env_var_name(key).c_str(), raw.c_str(), want);
  std::exit(2);
}

/// Strict unsigned env knob: missing -> fallback; malformed, negative,
/// overflowing or > \p max -> diagnostic naming the variable, exit 2.
/// (The permissive Config::get_int would abort() on malformed input and
/// silently wrap an overflow — unacceptable for user-typed knobs.)
std::uint64_t env_uint(const Config& env, std::string_view key,
                       std::uint64_t fallback,
                       std::uint64_t max = UINT64_MAX) {
  const std::optional<std::string> raw = env.get(key);
  if (!raw) return fallback;
  const std::optional<std::uint64_t> parsed = parse_uint(*raw);
  if (!parsed || *parsed > max) {
    env_knob_fail(key, *raw,
                  "a non-negative integer (or is out of range)");
  }
  return *parsed;
}

/// Strict boolean env knob (same contract as env_uint).
bool env_bool(const Config& env, std::string_view key, bool fallback) {
  const std::optional<std::string> raw = env.get(key);
  if (!raw) return fallback;
  const std::optional<bool> parsed = parse_bool(*raw);
  if (!parsed) {
    env_knob_fail(key, *raw, "a boolean (1/0, true/false, yes/no, on/off)");
  }
  return *parsed;
}

/// Every RINGCLU_* variable some part of the project reads (README's
/// environment table): the tools' knobs, the daemon's, the client's
/// RINGCLU_SERVE_URL and the golden tests' RINGCLU_REGEN_GOLDEN.
constexpr std::string_view kKnownEnvNames[] = {
    "benchmarks",     "cache",          "cache_backend",
    "checkpoint_dir", "force",          "instrs",
    "interval",       "log",            "metrics",
    "regen_golden",   "resume",         "seed",
    "serve_address",  "serve_journal",  "serve_port",
    "serve_url",      "snapshot_interval", "threads",
    "trace_dir",      "verbose",        "warmup",
};

}  // namespace

/// Not an error: the environment is ambient.
void warn_unknown_env() {
  Config env;
  env.import_env("RINGCLU_");
  for (const std::string& entry : env.entries()) {
    const std::string key = entry.substr(0, entry.find('='));
    if (std::find(std::begin(kKnownEnvNames), std::end(kKnownEnvNames),
                  key) != std::end(kKnownEnvNames)) {
      continue;
    }
    std::string valid;
    for (const std::string_view name : kKnownEnvNames) {
      valid += (valid.empty() ? "" : ", ") + env_var_name(name);
    }
    std::fprintf(stderr,
                 "[ringclu] warning: %s is not a ringclu variable and is "
                 "ignored; valid variables: %s\n",
                 env_var_name(key).c_str(), valid.c_str());
  }
}

RunnerOptions RunnerOptions::from_env() {
  warn_unknown_env();
  Config env;
  env.import_env("RINGCLU_");
  RunnerOptions options;
  options.instrs = env_uint(env, "instrs", 200000);
  options.warmup = env_uint(env, "warmup", options.instrs / 10);
  options.seed = env_uint(env, "seed", 42);
  options.threads = static_cast<int>(
      env_uint(env, "threads", static_cast<std::uint64_t>(
                                   default_thread_count()),
               1u << 20));
  options.force = env_bool(env, "force", false);
  options.verbose = env_bool(env, "verbose", true);
  const std::string backend = env.get_string(
      "cache_backend", std::string(store_backend_name(options.cache_backend)));
  if (const std::optional<StoreBackend> parsed = parse_store_backend(backend)) {
    options.cache_backend = *parsed;
  } else {
    std::fprintf(stderr,
                 "[ringclu] RINGCLU_CACHE_BACKEND=%s is not a result-store "
                 "backend; valid backends: tsv, memory\n",
                 backend.c_str());
    std::exit(2);
  }
  options.cache_path = env.get_string("cache", options.cache_path);
  options.interval = env_uint(env, "interval", 0);
  options.metrics_sink = env.get_string("metrics", "");
  options.checkpoint_dir = env.get_string("checkpoint_dir", "");
  options.snapshot_interval = env_uint(env, "snapshot_interval", 0);
  options.resume = env_bool(env, "resume", false);
  if (options.snapshot_interval > 0 && options.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "[ringclu] RINGCLU_SNAPSHOT_INTERVAL is set but "
                 "RINGCLU_CHECKPOINT_DIR is not; no snapshots will be "
                 "written\n");
  }
  if (options.resume && options.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "[ringclu] RINGCLU_RESUME is set but RINGCLU_CHECKPOINT_DIR "
                 "is not; nothing to resume from\n");
  }
  if (!options.metrics_sink.empty()) {
    if (options.interval == 0) {
      std::fprintf(stderr,
                   "[ringclu] RINGCLU_METRICS is set but RINGCLU_INTERVAL "
                   "is 0; no interval metrics will be produced\n");
    }
    if (!parse_metric_sink_spec(options.metrics_sink)) {
      std::fprintf(stderr,
                   "[ringclu] RINGCLU_METRICS=%s is not a metric sink spec; "
                   "want <kind>:<path> with kind jsonl or csv\n",
                   options.metrics_sink.c_str());
      std::exit(2);
    }
  }
  return options;
}


std::optional<std::string> validate_benchmark_names(
    const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (is_trace_benchmark_name(name)) {
      // The "trace:" namespace belongs to the pack registry; a name that
      // is not registered diagnoses against what is.
      if (TraceBenchmarkRegistry::global().find(name).has_value()) continue;
      const std::string known =
          TraceBenchmarkRegistry::global().names_joined();
      return "unknown trace benchmark '" + name +
             "'; registered trace benchmarks: " +
             (known.empty() ? "(none: set RINGCLU_TRACE_DIR or pass "
                              "--trace-dir)"
                            : known);
    }
    if (!is_benchmark_name(name)) {
      return "unknown benchmark '" + name +
             "'; valid benchmarks: " + known_benchmark_names() +
             " (trace packs register as 'trace:<stem>' via "
             "RINGCLU_TRACE_DIR or --trace-dir)";
    }
  }
  return std::nullopt;
}

std::unique_ptr<MetricSink> RunnerOptions::build_metric_sink() const {
  if (metrics_sink.empty() || interval == 0) return nullptr;
  const auto spec = parse_metric_sink_spec(metrics_sink);
  RINGCLU_EXPECTS(spec.has_value());
  return make_metric_sink(spec->first, spec->second);
}

std::vector<std::string> default_benchmarks() {
  Config env;
  env.import_env("RINGCLU_");
  const std::string filter = env.get_string("benchmarks", "");
  std::vector<std::string> names;
  if (!filter.empty()) {
    for (const std::string& name : split(filter, ',')) names.push_back(name);
    if (const std::optional<std::string> error =
            validate_benchmark_names(names)) {
      std::fprintf(stderr, "[ringclu] RINGCLU_BENCHMARKS: %s\n",
                   error->c_str());
      std::exit(2);
    }
    return names;
  }
  for (const BenchmarkDesc& desc : spec2000_benchmarks()) {
    names.emplace_back(desc.name);
  }
  return names;
}

}  // namespace ringclu
