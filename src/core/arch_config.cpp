#include "core/arch_config.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>

#include "steer/registry.h"
#include "util/assert.h"
#include "util/format.h"
#include "util/json.h"

namespace ringclu {

namespace {

/// Scalar type of one configurable field.
enum class FieldKind : std::uint8_t {
  String,  ///< std::string
  Arch,    ///< ArchKind, as "Ring" / "Conv"
  Steer,   ///< std::string holding a registered steering-policy name
  Int,     ///< int
  Bool,    ///< bool
  U64,     ///< std::uint64_t
  U32,     ///< std::uint32_t
  Size,    ///< std::size_t
};

/// One settable/serializable field, addressed by dotted path.  The single
/// source of truth behind to_json, from_json, fingerprint() and sweep-axis
/// assignment: adding a field here makes it configurable everywhere.
struct FieldDef {
  std::string_view path;
  FieldKind kind;
  /// Pointer to the field inside \p config (cast per \c kind).
  void* (*slot)(ArchConfig& config);
};

constexpr FieldDef kFields[] = {
    {"name", FieldKind::String,
     [](ArchConfig& c) -> void* { return &c.name; }},
    {"arch", FieldKind::Arch, [](ArchConfig& c) -> void* { return &c.arch; }},
    {"steer", FieldKind::Steer,
     [](ArchConfig& c) -> void* { return &c.steer; }},
    {"num_clusters", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.num_clusters; }},
    {"issue_width", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.issue_width; }},
    {"num_buses", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.num_buses; }},
    {"hop_latency", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.hop_latency; }},
    {"iq_int", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.iq_int; }},
    {"iq_fp", FieldKind::Int, [](ArchConfig& c) -> void* { return &c.iq_fp; }},
    {"iq_comm", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.iq_comm; }},
    {"regs_per_class", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.regs_per_class; }},
    {"rob_size", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.rob_size; }},
    {"lsq_size", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.lsq_size; }},
    {"fetchq_size", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.fetchq_size; }},
    {"decodeq_size", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.decodeq_size; }},
    {"fetch_width", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.fetch_width; }},
    {"decode_width", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.decode_width; }},
    {"dispatch_width", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.dispatch_width; }},
    {"commit_width", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.commit_width; }},
    {"dcache_transfer", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.dcache_transfer; }},
    {"dcount_threshold", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.dcount_threshold; }},
    {"copy_eviction", FieldKind::Bool,
     [](ArchConfig& c) -> void* { return &c.copy_eviction; }},
    {"eager_copy_release", FieldKind::Bool,
     [](ArchConfig& c) -> void* { return &c.eager_copy_release; }},
    {"mem.l1i.size_bytes", FieldKind::U64,
     [](ArchConfig& c) -> void* { return &c.mem.l1i.size_bytes; }},
    {"mem.l1i.line_bytes", FieldKind::U32,
     [](ArchConfig& c) -> void* { return &c.mem.l1i.line_bytes; }},
    {"mem.l1i.ways", FieldKind::U32,
     [](ArchConfig& c) -> void* { return &c.mem.l1i.ways; }},
    {"mem.l1d.size_bytes", FieldKind::U64,
     [](ArchConfig& c) -> void* { return &c.mem.l1d.size_bytes; }},
    {"mem.l1d.line_bytes", FieldKind::U32,
     [](ArchConfig& c) -> void* { return &c.mem.l1d.line_bytes; }},
    {"mem.l1d.ways", FieldKind::U32,
     [](ArchConfig& c) -> void* { return &c.mem.l1d.ways; }},
    {"mem.l2.size_bytes", FieldKind::U64,
     [](ArchConfig& c) -> void* { return &c.mem.l2.size_bytes; }},
    {"mem.l2.line_bytes", FieldKind::U32,
     [](ArchConfig& c) -> void* { return &c.mem.l2.line_bytes; }},
    {"mem.l2.ways", FieldKind::U32,
     [](ArchConfig& c) -> void* { return &c.mem.l2.ways; }},
    {"mem.l1i_latency", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.mem.l1i_latency; }},
    {"mem.l1d_latency", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.mem.l1d_latency; }},
    {"mem.l2_hit_latency", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.mem.l2_hit_latency; }},
    {"mem.l2_miss_latency", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.mem.l2_miss_latency; }},
    {"mem.l1d_ports", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.mem.l1d_ports; }},
    {"bpred.gshare_entries", FieldKind::Size,
     [](ArchConfig& c) -> void* { return &c.bpred.gshare_entries; }},
    {"bpred.bimodal_entries", FieldKind::Size,
     [](ArchConfig& c) -> void* { return &c.bpred.bimodal_entries; }},
    {"bpred.selector_entries", FieldKind::Size,
     [](ArchConfig& c) -> void* { return &c.bpred.selector_entries; }},
    {"bpred.history_bits", FieldKind::Int,
     [](ArchConfig& c) -> void* { return &c.bpred.history_bits; }},
};

/// Canonical string form of one field's current value (the fingerprint
/// and error-message representation).
std::string field_to_string(const ArchConfig& config, const FieldDef& field) {
  // The slot accessors are non-const for the setter's benefit; reading
  // through them never mutates.
  auto& mutable_config = const_cast<ArchConfig&>(config);
  switch (field.kind) {
    case FieldKind::String:
    case FieldKind::Steer:
      return *static_cast<std::string*>(field.slot(mutable_config));
    case FieldKind::Arch:
      return std::string(arch_name(config.arch));
    case FieldKind::Int:
      return str_format("%d", *static_cast<int*>(field.slot(mutable_config)));
    case FieldKind::Bool:
      return *static_cast<bool*>(field.slot(mutable_config)) ? "true"
                                                             : "false";
    case FieldKind::U64:
      return str_format("%llu",
                        static_cast<unsigned long long>(*static_cast<
                            std::uint64_t*>(field.slot(mutable_config))));
    case FieldKind::U32:
      return str_format(
          "%u", *static_cast<std::uint32_t*>(field.slot(mutable_config)));
    case FieldKind::Size:
      return str_format("%llu",
                        static_cast<unsigned long long>(*static_cast<
                            std::size_t*>(field.slot(mutable_config))));
  }
  RINGCLU_UNREACHABLE("bad FieldKind");
}

/// Writes one field's current value into \p writer (value only; the
/// caller has emitted the key).
void emit_field(JsonWriter& writer, const ArchConfig& config,
                const FieldDef& field) {
  auto& mutable_config = const_cast<ArchConfig&>(config);
  switch (field.kind) {
    case FieldKind::String:
    case FieldKind::Steer:
      writer.value(*static_cast<std::string*>(field.slot(mutable_config)));
      return;
    case FieldKind::Arch:
      writer.value(arch_name(config.arch));
      return;
    case FieldKind::Int:
      writer.value(*static_cast<int*>(field.slot(mutable_config)));
      return;
    case FieldKind::Bool:
      writer.value(*static_cast<bool*>(field.slot(mutable_config)));
      return;
    case FieldKind::U64:
      writer.value(*static_cast<std::uint64_t*>(field.slot(mutable_config)));
      return;
    case FieldKind::U32:
      writer.value(static_cast<std::uint64_t>(
          *static_cast<std::uint32_t*>(field.slot(mutable_config))));
      return;
    case FieldKind::Size:
      writer.value(static_cast<std::uint64_t>(
          *static_cast<std::size_t*>(field.slot(mutable_config))));
      return;
  }
  RINGCLU_UNREACHABLE("bad FieldKind");
}

/// True when \p value holds an integral JSON number (no fraction, within
/// exact-double range); \p out receives it.
bool json_integral(const JsonValue& value, long long& out) {
  if (!value.is_number()) return false;
  if (value.number != std::floor(value.number)) return false;
  if (std::abs(value.number) > 9.0e15) return false;
  out = static_cast<long long>(value.number);
  return true;
}

std::string_view json_kind_name(const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return "a boolean";
    case JsonValue::Kind::Number: return "a number";
    case JsonValue::Kind::String: return "a string";
    case JsonValue::Kind::Array: return "an array";
    case JsonValue::Kind::Object: return "an object";
  }
  return "?";
}

/// Assigns \p value to \p field.  Returns the error message on a type
/// mismatch (range checking is try_validate's job, except where the C++
/// type itself cannot hold the value).
std::optional<std::string> apply_field(ArchConfig& config,
                                       const FieldDef& field,
                                       const JsonValue& value) {
  const auto type_error = [&](std::string_view want) {
    return str_format("%.*s: expected %.*s, got %.*s",
                      static_cast<int>(field.path.size()), field.path.data(),
                      static_cast<int>(want.size()), want.data(),
                      static_cast<int>(json_kind_name(value).size()),
                      json_kind_name(value).data());
  };
  long long integral = 0;
  switch (field.kind) {
    case FieldKind::String:
      if (!value.is_string()) return type_error("a string");
      *static_cast<std::string*>(field.slot(config)) = value.string;
      return std::nullopt;
    case FieldKind::Arch:
      if (!value.is_string()) return type_error("\"Ring\" or \"Conv\"");
      if (value.string == "Ring") {
        config.arch = ArchKind::Ring;
      } else if (value.string == "Conv") {
        config.arch = ArchKind::Conv;
      } else {
        return str_format("arch: unknown machine '%s' (want Ring or Conv)",
                          value.string.c_str());
      }
      return std::nullopt;
    case FieldKind::Steer: {
      if (!value.is_string()) return type_error("a steering-policy name");
      if (std::optional<std::string> error =
              config.set_steering(value.string)) {
        return "steer: " + *std::move(error);
      }
      return std::nullopt;
    }
    case FieldKind::Int:
      if (!json_integral(value, integral) || integral < INT32_MIN ||
          integral > INT32_MAX) {
        return type_error("an integer");
      }
      *static_cast<int*>(field.slot(config)) = static_cast<int>(integral);
      return std::nullopt;
    case FieldKind::Bool:
      if (value.kind != JsonValue::Kind::Bool) return type_error("a boolean");
      *static_cast<bool*>(field.slot(config)) = value.boolean;
      return std::nullopt;
    case FieldKind::U64:
      if (!json_integral(value, integral) || integral < 0) {
        return type_error("a non-negative integer");
      }
      *static_cast<std::uint64_t*>(field.slot(config)) =
          static_cast<std::uint64_t>(integral);
      return std::nullopt;
    case FieldKind::U32:
      if (!json_integral(value, integral) || integral < 0 ||
          integral > UINT32_MAX) {
        return type_error("a non-negative integer");
      }
      *static_cast<std::uint32_t*>(field.slot(config)) =
          static_cast<std::uint32_t>(integral);
      return std::nullopt;
    case FieldKind::Size:
      if (!json_integral(value, integral) || integral < 0) {
        return type_error("a non-negative integer");
      }
      *static_cast<std::size_t*>(field.slot(config)) =
          static_cast<std::size_t>(integral);
      return std::nullopt;
  }
  RINGCLU_UNREACHABLE("bad FieldKind");
}

const FieldDef* find_field(std::string_view path) {
  for (const FieldDef& field : kFields) {
    if (field.path == path) return &field;
  }
  return nullptr;
}

/// The member names valid directly under \p prefix ("" = top level),
/// joined for an unknown-key message.  Group names (e.g. "mem") appear
/// once; the top level also admits the loader-directive keys.
std::string valid_keys_under(std::string_view prefix) {
  std::vector<std::string> keys;
  if (prefix.empty()) {
    keys.push_back("config_schema");
    keys.push_back("preset");
  }
  const std::string dotted =
      prefix.empty() ? std::string() : std::string(prefix) + ".";
  for (const FieldDef& field : kFields) {
    std::string_view rest = field.path;
    if (!dotted.empty()) {
      if (rest.substr(0, dotted.size()) != dotted) continue;
      rest.remove_prefix(dotted.size());
    }
    const std::size_t dot = rest.find('.');
    std::string child(dot == std::string_view::npos ? rest
                                                    : rest.substr(0, dot));
    if (std::find(keys.begin(), keys.end(), child) == keys.end()) {
      keys.push_back(std::move(child));
    }
  }
  return join(keys, ", ");
}

/// True when some field path lives under "prefix." (so \p prefix names a
/// nested object, not a scalar).
bool is_group(std::string_view prefix) {
  const std::string dotted = std::string(prefix) + ".";
  for (const FieldDef& field : kFields) {
    if (field.path.size() > dotted.size() &&
        field.path.substr(0, dotted.size()) == dotted) {
      return true;
    }
  }
  return false;
}

/// Applies every member of \p object (recursively) onto \p config,
/// appending messages for unknown keys and type mismatches.
void apply_object(ArchConfig& config, const JsonValue& object,
                  const std::string& prefix,
                  std::vector<std::string>& errors) {
  for (const auto& [key, value] : object.object) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    if (prefix.empty() && (path == "config_schema" || path == "preset")) {
      continue;  // Loader directives, consumed by from_json itself.
    }
    if (const FieldDef* field = find_field(path)) {
      if (std::optional<std::string> error =
              apply_field(config, *field, value)) {
        errors.push_back(*std::move(error));
      }
      continue;
    }
    if (is_group(path)) {
      if (!value.is_object()) {
        errors.push_back(str_format("%s: expected an object, got %.*s",
                                    path.c_str(),
                                    static_cast<int>(
                                        json_kind_name(value).size()),
                                    json_kind_name(value).data()));
        continue;
      }
      apply_object(config, value, path, errors);
      continue;
    }
    errors.push_back(str_format("unknown key '%s'; valid keys: %s",
                                path.c_str(),
                                valid_keys_under(prefix).c_str()));
  }
}

constexpr bool is_power_of_two(std::uint64_t value) {
  return value != 0 && (value & (value - 1)) == 0;
}

/// Appends cache-geometry violations for one level (SetAssocCache's
/// constructor preconditions, reported instead of aborted).
void check_cache(std::string_view label, const CacheConfig& cache,
                 std::vector<std::string>& out) {
  if (!is_power_of_two(cache.line_bytes)) {
    out.push_back(str_format("%.*s.line_bytes = %u must be a power of two",
                             static_cast<int>(label.size()), label.data(),
                             cache.line_bytes));
    return;
  }
  if (cache.ways == 0) {
    out.push_back(str_format("%.*s.ways must be >= 1",
                             static_cast<int>(label.size()), label.data()));
    return;
  }
  const std::uint64_t way_bytes =
      static_cast<std::uint64_t>(cache.line_bytes) * cache.ways;
  if (cache.size_bytes == 0 || cache.size_bytes % way_bytes != 0 ||
      !is_power_of_two(cache.size_bytes / way_bytes)) {
    out.push_back(str_format(
        "%.*s: size_bytes = %llu must be line_bytes*ways times a power of "
        "two (sets)",
        static_cast<int>(label.size()), label.data(),
        static_cast<unsigned long long>(cache.size_bytes)));
  }
}

}  // namespace

std::vector<std::string> ArchConfig::try_validate() const {
  std::vector<std::string> out;
  const auto range = [&out](std::string_view field, int value, int lo,
                            int hi) {
    if (value < lo || value > hi) {
      out.push_back(str_format("%.*s = %d out of range [%d, %d]",
                               static_cast<int>(field.size()), field.data(),
                               value, lo, hi));
    }
  };
  range("num_clusters", num_clusters, 2, kMaxClusters);
  range("issue_width", issue_width, 1, 4);
  range("num_buses", num_buses, 1, 2);
  range("hop_latency", hop_latency, 1, 4);
  if (iq_int < 4) out.push_back(str_format("iq_int = %d must be >= 4", iq_int));
  if (iq_fp < 4) out.push_back(str_format("iq_fp = %d must be >= 4", iq_fp));
  if (iq_comm < 4) {
    out.push_back(str_format("iq_comm = %d must be >= 4", iq_comm));
  }
  if (regs_per_class <= kArchRegsPerClass) {
    // Fewer physical registers than architectural registers per class can
    // deadlock dispatch; require headroom.
    out.push_back(str_format(
        "regs_per_class = %d must exceed the %d architectural registers",
        regs_per_class, kArchRegsPerClass));
  }
  if (rob_size < 16) {
    out.push_back(str_format("rob_size = %d must be >= 16", rob_size));
  }
  if (lsq_size < 8) {
    out.push_back(str_format("lsq_size = %d must be >= 8", lsq_size));
  }
  if (fetch_width < 1 || decode_width < 1 || dispatch_width < 1 ||
      commit_width < 1) {
    out.push_back(str_format(
        "fetch/decode/dispatch/commit widths (%d/%d/%d/%d) must all be >= 1",
        fetch_width, decode_width, dispatch_width, commit_width));
  }
  if (fetchq_size < 1) {
    out.push_back(str_format("fetchq_size = %d must be >= 1", fetchq_size));
  }
  if (decodeq_size < 1) {
    out.push_back(
        str_format("decodeq_size = %d must be >= 1", decodeq_size));
  }
  if (dcache_transfer < 0) {
    out.push_back(str_format("dcache_transfer = %d must be >= 0",
                             dcache_transfer));
  }
  if (dcount_threshold < 1) {
    out.push_back(str_format("dcount_threshold = %d must be >= 1",
                             dcount_threshold));
  }
  if (mem.l1i_latency < 1 || mem.l1d_latency < 1 || mem.l2_hit_latency < 1 ||
      mem.l2_miss_latency < 1) {
    out.push_back(str_format(
        "mem latencies (l1i=%d, l1d=%d, l2_hit=%d, l2_miss=%d) must all "
        "be >= 1",
        mem.l1i_latency, mem.l1d_latency, mem.l2_hit_latency,
        mem.l2_miss_latency));
  }
  if (mem.l1d_ports < 1) {
    out.push_back(
        str_format("mem.l1d_ports = %d must be >= 1", mem.l1d_ports));
  }
  if (!SteeringRegistry::global().contains(steer)) {
    out.push_back(str_format(
        "steer: unknown steering policy '%s'; registered policies: %s",
        steer.c_str(), SteeringRegistry::global().names_joined().c_str()));
  }
  check_cache("mem.l1i", mem.l1i, out);
  check_cache("mem.l1d", mem.l1d, out);
  check_cache("mem.l2", mem.l2, out);
  for (const auto& [label, entries] :
       {std::pair<std::string_view, std::size_t>{"bpred.gshare_entries",
                                                 bpred.gshare_entries},
        {"bpred.bimodal_entries", bpred.bimodal_entries},
        {"bpred.selector_entries", bpred.selector_entries}}) {
    if (!is_power_of_two(entries)) {
      out.push_back(str_format(
          "%.*s = %llu must be a power of two", static_cast<int>(label.size()),
          label.data(), static_cast<unsigned long long>(entries)));
    }
  }
  if (bpred.history_bits < 0 || bpred.history_bits > 62) {
    out.push_back(str_format("bpred.history_bits = %d out of range [0, 62]",
                             bpred.history_bits));
  }
  return out;
}

void ArchConfig::validate() const {
  const std::vector<std::string> violations = try_validate();
  if (violations.empty()) return;
  for (const std::string& violation : violations) {
    std::fprintf(stderr, "[ringclu] invalid ArchConfig '%s': %s\n",
                 name.c_str(), violation.c_str());
  }
  RINGCLU_EXPECTS(violations.empty() && "ArchConfig::validate");
}

std::optional<std::string> ArchConfig::set_steering(
    std::string_view policy_name) {
  if (SteeringRegistry::global().contains(policy_name)) {
    steer = std::string(policy_name);
    return std::nullopt;
  }
  return str_format(
      "unknown steering policy '%.*s'; registered policies: %s",
      static_cast<int>(policy_name.size()), policy_name.data(),
      SteeringRegistry::global().names_joined().c_str());
}

std::string ArchConfig::describe() const {
  std::string out;
  out += str_format("Configuration: %s\n", name.c_str());
  out += str_format("  architecture        : %s\n",
                    std::string(arch_name(arch)).c_str());
  out += str_format("  steering            : %s\n", steer.c_str());
  out += str_format("  clusters            : %d\n", num_clusters);
  out += str_format("  issue width         : %d INT + %d FP per cluster\n",
                    issue_width, issue_width);
  out += str_format("  buses               : %d x unidirectional pipelined, "
                    "%d cycle(s)/hop%s\n",
                    num_buses, hop_latency,
                    bus_orientation() == BusOrientation::OppositeDirections
                        ? " (opposite directions)"
                        : "");
  out += str_format("  issue queues        : %d INT + %d FP + %d comm "
                    "entries/cluster\n",
                    iq_int, iq_fp, iq_comm);
  out += str_format("  register file       : %d INT + %d FP regs/cluster\n",
                    regs_per_class, regs_per_class);
  out += str_format("  fetch/decode/commit : %d / %d / %d wide\n",
                    fetch_width, decode_width, commit_width);
  out += str_format("  ROB / LSQ / fetchq  : %d / %d / %d entries\n",
                    rob_size, lsq_size, fetchq_size);
  out += str_format("  L1I                 : %lluKB, %u-way, %uB lines "
                    "(%d cycle)\n",
                    static_cast<unsigned long long>(mem.l1i.size_bytes / 1024),
                    mem.l1i.ways, mem.l1i.line_bytes, mem.l1i_latency);
  out += str_format("  L1D                 : %lluKB, %u-way, %uB lines "
                    "(%d cycles, %d R/W ports)\n",
                    static_cast<unsigned long long>(mem.l1d.size_bytes / 1024),
                    mem.l1d.ways, mem.l1d.line_bytes, mem.l1d_latency,
                    mem.l1d_ports);
  out += str_format("  L2                  : %lluKB, %u-way, %uB lines "
                    "(%d hit / %d miss)\n",
                    static_cast<unsigned long long>(mem.l2.size_bytes / 1024),
                    mem.l2.ways, mem.l2.line_bytes, mem.l2_hit_latency,
                    mem.l2_miss_latency);
  out += str_format("  to/from D-cache     : %d cycle each way\n",
                    dcache_transfer);
  out += str_format("  branch predictor    : hybrid %zuK gshare + %zuK "
                    "bimodal + %zuK selector, %zu-entry BTB\n",
                    bpred.gshare_entries / 1024, bpred.bimodal_entries / 1024,
                    bpred.selector_entries / 1024,
                    static_cast<std::size_t>(2048));
  if (arch == ArchKind::Conv && steer == "enhanced") {
    out += str_format("  DCOUNT threshold    : %d\n", dcount_threshold);
  }
  return out;
}

std::string ArchConfig::to_json() const {
  JsonWriter writer;
  writer.begin_object();
  writer.key("config_schema").value(kArchConfigSchemaVersion);
  // Fields are grouped by dotted prefix; the table keeps each group
  // contiguous, so nesting tracks prefix changes.
  std::vector<std::string> open;  // currently open group path
  for (const FieldDef& field : kFields) {
    const std::vector<std::string> parts = split(field.path, '.');
    const std::vector<std::string> group(parts.begin(), parts.end() - 1);
    std::size_t shared = 0;
    while (shared < open.size() && shared < group.size() &&
           open[shared] == group[shared]) {
      ++shared;
    }
    while (open.size() > shared) {
      writer.end_object();
      open.pop_back();
    }
    while (open.size() < group.size()) {
      writer.key(group[open.size()]).begin_object();
      open.push_back(group[open.size()]);
    }
    writer.key(parts.back());
    emit_field(writer, *this, field);
  }
  while (!open.empty()) {
    writer.end_object();
    open.pop_back();
  }
  writer.end_object();
  return writer.str();
}

std::optional<ArchConfig> ArchConfig::from_json(
    std::string_view text, std::vector<std::string>* errors) {
  std::vector<std::string> local;
  std::vector<std::string>& out = errors != nullptr ? *errors : local;
  const std::optional<JsonValue> document = json_parse(text);
  if (!document) {
    out.push_back("configuration is not valid JSON");
    return std::nullopt;
  }
  return from_json(*document, errors);
}

std::optional<ArchConfig> ArchConfig::from_json(
    const JsonValue& parsed, std::vector<std::string>* errors) {
  std::vector<std::string> local;
  std::vector<std::string>& out = errors != nullptr ? *errors : local;
  const JsonValue* document = &parsed;
  if (!document->is_object()) {
    out.push_back("configuration must be a JSON object");
    return std::nullopt;
  }

  if (const JsonValue* schema = document->find("config_schema")) {
    long long version = 0;
    if (!json_integral(*schema, version)) {
      out.push_back("config_schema: expected an integer");
      return std::nullopt;
    }
    if (version > kArchConfigSchemaVersion) {
      out.push_back(str_format(
          "config_schema %lld is newer than this build understands (%d)",
          version, kArchConfigSchemaVersion));
      return std::nullopt;
    }
  }

  ArchConfig config;
  if (const JsonValue* base = document->find("preset")) {
    if (!base->is_string()) {
      out.push_back("preset: expected a preset-name string");
      return std::nullopt;
    }
    std::optional<ArchConfig> preset_config = try_preset(base->string);
    if (!preset_config) {
      out.push_back(str_format(
          "preset: unknown preset '%s' (want Arch_Nclus_Bbus_WIW, e.g. %s; "
          "suffixes +SSA, @2cyc)",
          base->string.c_str(), paper_preset_names().front().c_str()));
      return std::nullopt;
    }
    config = *std::move(preset_config);
  }

  const std::size_t before = out.size();
  apply_object(config, *document, "", out);
  for (std::string& violation : config.try_validate()) {
    out.push_back(std::move(violation));
  }
  if (out.size() != before) return std::nullopt;
  return config;
}

std::string ArchConfig::fingerprint() const {
  // FNV-1a over the canonical "path=value" dump of every behavior field.
  // "name" is excluded: it is a display label, not simulated state.
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::string_view text) {
    for (const char ch : text) {
      hash ^= static_cast<unsigned char>(ch);
      hash *= 1099511628211ULL;
    }
  };
  for (const FieldDef& field : kFields) {
    if (field.path == "name") continue;
    mix(field.path);
    mix("=");
    mix(field_to_string(*this, field));
    mix("\n");
  }
  return str_format("cfg%016llx", static_cast<unsigned long long>(hash));
}

std::string ArchConfig::cache_identity() const {
  if (const std::optional<ArchConfig> as_preset = try_preset(name);
      as_preset && *as_preset == *this) {
    return name;
  }
  return fingerprint();
}

std::optional<std::string> ArchConfig::set_field(std::string_view path,
                                                 const JsonValue& value) {
  const FieldDef* field = find_field(path);
  if (field == nullptr) {
    return str_format("unknown field '%.*s'; valid fields: %s",
                      static_cast<int>(path.size()), path.data(),
                      join(field_names(), ", ").c_str());
  }
  return apply_field(*this, *field, value);
}

std::vector<std::string> ArchConfig::field_names() {
  std::vector<std::string> out;
  out.reserve(std::size(kFields));
  for (const FieldDef& field : kFields) out.emplace_back(field.path);
  return out;
}

ArchConfig ArchConfig::preset(std::string_view name) {
  std::optional<ArchConfig> config = try_preset(name);
  RINGCLU_EXPECTS(config.has_value() && "preset: Arch_Nclus_Bbus_WIW");
  return *std::move(config);
}

namespace {

/// Parses "<digits><unit>" (e.g. "8clus"); false on any other shape.
bool leading_int(const std::string& token, std::string_view unit, int& out) {
  if (token.size() <= unit.size()) return false;
  if (token.substr(token.size() - unit.size()) != unit) return false;
  const std::string digits = token.substr(0, token.size() - unit.size());
  if (digits.empty() || digits.size() > 4) return false;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  out = std::stoi(digits);
  return true;
}

}  // namespace

std::optional<ArchConfig> ArchConfig::try_preset(std::string_view name) {
  ArchConfig config;
  config.name = std::string(name);

  std::string_view rest = name;

  // Optional suffixes, in any order after the base name.
  config.steer = "enhanced";
  config.hop_latency = 1;
  for (;;) {
    if (rest.size() > 4 && rest.substr(rest.size() - 4) == "+SSA") {
      config.steer = "ssa";
      rest.remove_suffix(4);
    } else if (rest.size() > 5 && rest.substr(rest.size() - 5) == "@2cyc") {
      config.hop_latency = 2;
      rest.remove_suffix(5);
    } else {
      break;
    }
  }

  const std::vector<std::string> parts = split(rest, '_');
  if (parts.size() != 4) return std::nullopt;

  if (parts[0] == "Ring") {
    config.arch = ArchKind::Ring;
  } else if (parts[0] == "Conv") {
    config.arch = ArchKind::Conv;
  } else {
    return std::nullopt;
  }

  if (!leading_int(parts[1], "clus", config.num_clusters)) {
    return std::nullopt;
  }
  if (!leading_int(parts[2], "bus", config.num_buses)) return std::nullopt;
  if (!leading_int(parts[3], "IW", config.issue_width)) return std::nullopt;

  // Lenient contract: parseable-but-out-of-range values are a rejection,
  // not a contract failure (the ranges validate() would abort on).
  if (config.num_clusters < 2 || config.num_clusters > kMaxClusters) {
    return std::nullopt;
  }
  if (config.num_buses < 1 || config.num_buses > 2) return std::nullopt;
  if (config.issue_width < 1 || config.issue_width > 4) return std::nullopt;

  // Table 2: per-cluster structures scale with cluster count.
  if (config.num_clusters <= 4) {
    config.iq_int = 32;
    config.iq_fp = 32;
    config.regs_per_class = 64;
  } else {
    config.iq_int = 16;
    config.iq_fp = 16;
    config.regs_per_class = 48;
  }

  config.validate();
  return config;
}

std::vector<std::string> ArchConfig::paper_preset_names() {
  return {
      "Conv_4clus_1bus_2IW", "Conv_8clus_1bus_1IW", "Conv_8clus_2bus_1IW",
      "Conv_8clus_1bus_2IW", "Conv_8clus_2bus_2IW", "Ring_4clus_1bus_2IW",
      "Ring_8clus_1bus_1IW", "Ring_8clus_2bus_1IW", "Ring_8clus_1bus_2IW",
      "Ring_8clus_2bus_2IW",
  };
}

}  // namespace ringclu
