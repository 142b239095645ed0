#pragma once

/// \file wire.h
/// JSON wire-format codecs for the ringclu_simd API: the POST /v1/jobs
/// request grammar, the target path/query split, and the error body
/// shape.  Kept separate from the socket layer (http.h) and the job
/// engine (server.h) so the grammar is unit-testable with plain strings.
///
/// Request grammar (one JSON object):
///
///   single run:
///     {"config": "<preset>" | {...ArchConfig...},
///      "benchmark": "<name>",
///      "run": {"instrs": N, "warmup": N, "seed": N},   // optional
///      "client": "<token>", "priority": "high|normal|low",  // optional
///      "interval": N}        // optional: stream interval metrics
///
///   sweep:
///     {"sweep": {...ExperimentSpec document, see experiment.h...},
///      "client": "<token>", "priority": "..."}          // optional
///
/// Unknown keys are errors (same strictness as the config surfaces), and
/// the body is parsed under tight JsonParseLimits — the peer is
/// untrusted.  See DESIGN.md §13.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/sim_job.h"
#include "harness/scheduler.h"
#include "util/json.h"

namespace ringclu {

/// Parse limits for request bodies: generous for any legitimate sweep
/// spec, hard bounds for adversarial bytes.
inline constexpr JsonParseLimits kWireParseLimits = {
    /*max_depth=*/64, /*max_bytes=*/1u << 20};

/// One parsed, validated POST /v1/jobs request, expanded to its task
/// list (one task per (design point, benchmark); exactly one for a
/// single-run request).
struct JobRequest {
  std::string client = "anon";
  PriorityClass priority = PriorityClass::Normal;
  /// Metric-streaming period (single-run requests only); 0 = off.
  std::uint64_t interval = 0;
  bool sweep = false;
  std::string name;  ///< sweep name, or "<config>:<benchmark>"
  /// The fully resolved jobs (sink unset; the server attaches one for
  /// streaming requests).
  std::vector<SimJob> tasks;
};

/// Parses and validates \p body.  \p defaults supplies run parameters
/// the request leaves unset; \p default_benchmarks is the benchmark list
/// for sweeps that do not name one.  On any problem, returns nullopt
/// with a one-line message in \p error.
[[nodiscard]] std::optional<JobRequest> parse_job_request(
    std::string_view body, const RunParams& defaults,
    const std::vector<std::string>& default_benchmarks, std::string* error);

/// A request target split into path and query parameters ("k=v" pairs;
/// no percent-decoding — the API grammar is plain ASCII).
struct SplitTarget {
  std::string path;
  std::map<std::string, std::string> query;
};

[[nodiscard]] SplitTarget split_target(std::string_view target);

/// The uniform error body: {"error":"<message>"}.
[[nodiscard]] std::string error_body(std::string_view message);

}  // namespace ringclu
