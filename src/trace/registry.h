#pragma once

/// \file registry.h
/// The trace benchmark registry: every `.rclp` pack found in a registered
/// directory becomes a named benchmark ("trace:<stem>") usable anywhere a
/// synthetic suite name is — single runs, --sweep,
/// ExperimentSpec and the daemon wire format — without those layers
/// knowing traces exist.  Directories come from RINGCLU_TRACE_DIR
/// (colon-separated, scanned lazily on first lookup) and the CLIs'
/// --trace-dir flag.
///
/// Cache identity: every pack carries a content digest, and
/// keyed_workload_name() maps "trace:<stem>" to "trace:<stem>@<digest>"
/// for sim_cache_key / coalescing, so renaming a file never aliases
/// results and identical content dedups across hosts regardless of
/// filename.  TracePackReader::name() returns the same keyed form, which
/// makes checkpoint workload identity content-addressed too.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace_source.h"

namespace ringclu {

inline constexpr std::string_view kTraceBenchmarkPrefix = "trace:";

/// True for names claimed by the registry namespace ("trace:...").
[[nodiscard]] bool is_trace_benchmark_name(std::string_view name);

/// One registered pack.
struct TraceBenchmarkInfo {
  std::string name;  ///< "trace:<stem>"
  std::string path;
  std::uint64_t total_ops = 0;
  std::uint64_t digest = 0;
};

/// Name -> pack map.  Thread-safe (server workers resolve concurrently)
/// and deterministic: names iterate sorted, and the first registration of
/// a name wins so directory precedence is scan order.
class TraceBenchmarkRegistry {
 public:
  [[nodiscard]] static TraceBenchmarkRegistry& global();

  /// Scans \p dir for *.rclp files with a valid header/index; returns how
  /// many new names were registered.  Unreadable or invalid packs are
  /// skipped with a stderr warning (a bad file must not take down
  /// discovery of its siblings).
  int add_dir(const std::string& dir);

  [[nodiscard]] std::optional<TraceBenchmarkInfo> find(
      std::string_view name) const;
  [[nodiscard]] std::vector<TraceBenchmarkInfo> list() const;
  /// Registered names joined with ", " (error messages / --list).
  [[nodiscard]] std::string names_joined() const;
  [[nodiscard]] bool empty() const;

  /// Drops all entries and re-arms the RINGCLU_TRACE_DIR scan (tests).
  void clear();

 private:
  void ensure_env_scanned() const;
  int add_dir_locked(const std::string& dir);

  mutable std::mutex mutex_;
  mutable bool env_scanned_ = false;
  std::map<std::string, TraceBenchmarkInfo> entries_;
};

/// Benchmark -> trace source for every namespace the harness accepts:
/// the synthetic suite and registered "trace:" packs (the seed is unused
/// for packs — the stream is the recording).  \pre the name validated
/// via validate_benchmark_names (aborts on unknown names, like
/// make_benchmark_trace).
[[nodiscard]] std::unique_ptr<TraceSource> make_workload_trace(
    std::string_view benchmark, std::uint64_t seed);

/// The cache-key form of a benchmark name: registered trace benchmarks
/// fold in their content digest ("trace:<stem>@<16-hex>"); every other
/// name (synthetic, already-keyed) passes through unchanged.
[[nodiscard]] std::string keyed_workload_name(std::string_view benchmark);

}  // namespace ringclu
