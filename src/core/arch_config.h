#pragma once

/// \file arch_config.h
/// Full machine configuration (Table 2 defaults) plus the named preset
/// registry of Table 3.  Preset names follow the paper:
///   {Ring|Conv}_{4|8}clus_{1|2}bus_{1|2}IW [+SSA] [@2cyc]
/// where "+SSA" selects the simple steering algorithm of Section 4.7 and
/// "@2cyc" selects 2-cycle-per-hop buses (Section 4.6).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bpred/predictor.h"
#include "mem/hierarchy.h"
#include "steer/steering.h"

namespace ringclu {

struct JsonValue;

/// Version of the JSON configuration schema (the "config_schema" field
/// emitted by ArchConfig::to_json).  Bumped when a field changes meaning;
/// loading a file with a NEWER version than this is an error, an older or
/// absent version loads defaults-aware as usual.
inline constexpr int kArchConfigSchemaVersion = 1;

struct ArchConfig {
  std::string name = "Ring_8clus_1bus_2IW";
  ArchKind arch = ArchKind::Ring;
  /// Steering policy by registry name (steer/registry.h): "enhanced"
  /// (Ring §3.1 or Conv §4.1 by \c arch), "ssa" (§4.7), "round_robin",
  /// "random" or any externally registered name.  try_validate() rejects
  /// unregistered names; set_steering() checks them on assignment.
  std::string steer = "enhanced";

  int num_clusters = 8;
  int issue_width = 2;  ///< per class (INT and FP) per cluster
  int num_buses = 1;
  int hop_latency = 1;

  int iq_int = 16;
  int iq_fp = 16;
  int iq_comm = 16;
  int regs_per_class = 48;

  int rob_size = 256;
  int lsq_size = 128;
  int fetchq_size = 64;
  int decodeq_size = 16;

  int fetch_width = 8;
  int decode_width = 8;
  int dispatch_width = 8;
  int commit_width = 8;

  /// One-way latency between any cluster and the centralized D-cache
  /// cluster (Section 3.3: 1 cycle each way for all clusters).
  int dcache_transfer = 1;

  /// Conv imbalance threshold (DCOUNT units, instructions).
  int dcount_threshold = 8;

  /// Allow victimizing idle register copies when a register file fills
  /// (deadlock-avoidance extension; see DESIGN.md).
  bool copy_eviction = true;

  /// The alternative copy-release discipline the paper mentions but does
  /// not evaluate (Section 3): release a register copy as soon as its last
  /// pending reader has read it, instead of waiting for the redefining
  /// instruction to commit.  Reduces register pressure at the cost of more
  /// communications (re-requested copies).  Off by default, as in the
  /// paper; bench/abl_copy_release measures the trade-off.
  bool eager_copy_release = false;

  MemHierarchyConfig mem;
  HybridPredictor::SizeConfig bpred;

  /// Aborts on inconsistent parameters.
  void validate() const;

  /// Lenient validation: every violated constraint as a human-readable
  /// message ("num_clusters = 99 out of range [2, 16]"), empty when the
  /// configuration is valid.  validate() aborts on exactly these checks;
  /// loaders report the whole list at once and exit gracefully instead.
  [[nodiscard]] std::vector<std::string> try_validate() const;

  /// The steering policy's registry name (\c steer).
  [[nodiscard]] std::string steering_policy_name() const { return steer; }

  /// Sets the steering policy by name — the one assignment every surface
  /// (JSON "steer", CLI steer=, sweep axes) shares.  Returns the error
  /// message (listing the registered policies) for unknown names, nullopt
  /// on success.
  [[nodiscard]] std::optional<std::string> set_steering(
      std::string_view policy_name);

  /// Table 2-style multi-line description.
  [[nodiscard]] std::string describe() const;

  /// The full configuration (nested mem + bpred included) as one JSON
  /// document, schema-versioned and round-trippable through from_json.
  [[nodiscard]] std::string to_json() const;

  /// Parses \p text (a to_json document or a hand-written subset).
  /// Defaults-aware: an absent field keeps its ArchConfig default; an
  /// unknown field is an error listing the valid keys at that level; a
  /// type mismatch, unregistered steering policy, newer config_schema or
  /// try_validate() violation is an error too.  On failure returns
  /// nullopt with every accumulated message appended to \p errors (may be
  /// nullptr when the caller only needs the verdict).
  ///
  /// A top-level "preset" string loads that preset as the base the other
  /// fields then override — sweep specs lean on this.
  [[nodiscard]] static std::optional<ArchConfig> from_json(
      std::string_view text, std::vector<std::string>* errors = nullptr);

  /// Same, over an already-parsed document (sweep specs embed config
  /// objects and reuse this directly).
  [[nodiscard]] static std::optional<ArchConfig> from_json(
      const JsonValue& document, std::vector<std::string>* errors = nullptr);

  /// Stable digest of every simulated-behavior field (the name is
  /// excluded: it is a display label).  Two configs with equal
  /// fingerprints produce bit-identical simulations; the harness keys the
  /// result store with it for non-preset configs.  Format: "cfg" + 16 hex
  /// digits (FNV-1a over the canonical field dump).
  [[nodiscard]] std::string fingerprint() const;

  /// The identity the result store and coalescing key on: the preset name
  /// when this config IS that preset (byte-compatible with every existing
  /// cache and golden), the fingerprint otherwise (two differently-named
  /// but identical sweep points share one simulation; two same-named but
  /// divergent configs no longer collide).
  [[nodiscard]] std::string cache_identity() const;

  /// Sets the field with dotted \p path (e.g. "num_clusters",
  /// "mem.l1d.size_bytes", "steer") from a JSON scalar.  Returns nullopt
  /// on success, the error message otherwise.  The assignment surface
  /// sweep axes use; validation is deferred to try_validate().
  [[nodiscard]] std::optional<std::string> set_field(std::string_view path,
                                                     const JsonValue& value);

  /// Every settable dotted field path, in serialization order.
  [[nodiscard]] static std::vector<std::string> field_names();

  friend bool operator==(const ArchConfig&, const ArchConfig&) = default;

  /// Bus orientation implied by the architecture (Ring: all forward;
  /// Conv with 2 buses: one per direction).
  [[nodiscard]] BusOrientation bus_orientation() const {
    return (arch == ArchKind::Conv && num_buses == 2)
               ? BusOrientation::OppositeDirections
               : BusOrientation::AllForward;
  }

  /// Builds a configuration from a Table 3-style name.  Aborts on an
  /// unparseable name.
  [[nodiscard]] static ArchConfig preset(std::string_view name);

  /// Lenient variant: nullopt when \p name does not have the
  /// Arch_Nclus_Bbus_WIW shape (optional +SSA / @2cyc suffixes) or when a
  /// parsed field is outside the machine limits validate() enforces.
  [[nodiscard]] static std::optional<ArchConfig> try_preset(
      std::string_view name);

  /// The ten names evaluated in the paper (Table 3).
  [[nodiscard]] static std::vector<std::string> paper_preset_names();
};

}  // namespace ringclu
