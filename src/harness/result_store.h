#pragma once

/// \file result_store.h
/// Pluggable persistence for simulation results.
///
/// Every harness entry point (SimService, and the CLI and daemon on top
/// of it) reads and writes results through the ResultStore interface, so
/// the storage strategy can be swapped without touching the scheduling
/// logic.
/// Two backends ship today:
///
///   tsv      one append-only TSV file ("key \t serialized-result" lines),
///            the historical bench_cache/results.tsv format.  Appends are
///            atomic across processes (single O_APPEND write under an
///            advisory flock), so concurrent bench binaries sharing one
///            cache can no longer tear each other's lines.
///   memory   process-local map; nothing touches the filesystem.  The
///            default for tests and for throughput benchmarking.
///
/// Selection: RunnerOptions::cache_backend / RINGCLU_CACHE_BACKEND
/// ("tsv" | "memory").
///
/// Contract (the conformance suite in tests/result_store_test.cpp runs
/// every backend through it):
///   - get(k) after put(k, r) returns a result whose serialized form equals
///     serialize_result(r).  Host-only fields (wall_seconds,
///     total_committed) are outside the serialization schema and may be
///     dropped by persistent backends.
///   - get of an unknown key returns nullopt.
///   - put is first-write-wins for a given key within one store instance
///     (matching the historical "first cache line wins" reload semantics).
///   - get/put/size are safe to call from multiple threads.
///   - Persistent backends reload prior entries on construction and skip
///     (never die on) corrupt lines.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/sim_result.h"

namespace ringclu {

/// Serializes the schema-covered fields of \p result as one TSV record
/// (no trailing newline).
[[nodiscard]] std::string serialize_result(const SimResult& result);
/// Strict variant: aborts on malformed input.
[[nodiscard]] SimResult deserialize_result(const std::string& line);
/// Lenient variant: returns nullopt on malformed input (used when loading
/// an on-disk store, where a truncated write must not be fatal).
[[nodiscard]] std::optional<SimResult> try_deserialize_result(
    const std::string& line);

/// Key -> SimResult persistence.  Implementations are thread-safe.
class ResultStore {
 public:
  virtual ~ResultStore() = default;

  /// The stored result for \p key, or nullopt.
  [[nodiscard]] virtual std::optional<SimResult> get(
      const std::string& key) = 0;

  /// Records \p result under \p key.  First write wins on duplicates.
  virtual void put(const std::string& key, const SimResult& result) = 0;

  /// Number of distinct keys visible to this instance.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// True when entries survive this process (reloadable from disk).
  [[nodiscard]] virtual bool persistent() const = 0;

  /// Human-readable backend description for logs.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Numbered explicitly so the raw values that parameterized test names
/// print stay stable.
enum class StoreBackend { Tsv = 0, Memory = 2 };

/// "tsv" | "memory" -> backend; nullopt on anything else.
[[nodiscard]] std::optional<StoreBackend> parse_store_backend(
    std::string_view name);
[[nodiscard]] std::string_view store_backend_name(StoreBackend backend);

/// Builds a store.  \p path is the TSV file path (tsv) or ignored
/// (memory).  \p verbose enables the corrupt-line warning on load.
[[nodiscard]] std::unique_ptr<ResultStore> make_result_store(
    StoreBackend backend, const std::string& path, bool verbose);

/// Appends \p line (a '\n' is added) to \p path as one atomic write:
/// O_APPEND + advisory flock, created on demand with parent directories.
/// Safe against concurrent appenders in other threads and processes.
void append_line_atomic(const std::string& path, std::string_view line);

}  // namespace ringclu
