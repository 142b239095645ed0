#include "harness/experiment.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "harness/runner.h"
#include "stats/metrics.h"
#include "util/assert.h"
#include "util/format.h"

namespace ringclu {

namespace {

/// Compact label form of one axis value ("8", "true", "Ring", ...).
std::string value_label(const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return value.boolean ? "true" : "false";
    case JsonValue::Kind::Number: return json_number(value.number);
    case JsonValue::Kind::String: return value.string;
    case JsonValue::Kind::Array: return "[...]";
    case JsonValue::Kind::Object: return "{...}";
  }
  return "?";
}

/// Reads an optional non-negative integer member of "run".
void read_run_field(const JsonValue& run, std::string_view key,
                    std::optional<std::uint64_t>& out,
                    std::vector<std::string>& errors) {
  const JsonValue* member = run.find(key);
  if (member == nullptr) return;
  if (!member->is_number() || member->number < 0.0 ||
      member->number != std::floor(member->number)) {
    errors.push_back(str_format("run.%.*s: expected a non-negative integer",
                                static_cast<int>(key.size()), key.data()));
    return;
  }
  out = static_cast<std::uint64_t>(member->number);
}

/// The keys a report table of \p kind accepts, for diagnostics.
std::string_view table_keys(ReportTable::Kind kind) {
  switch (kind) {
    case ReportTable::Kind::Metric: return "metric, rows, decimals, title";
    case ReportTable::Kind::Speedup: return "speedup, title";
    case ReportTable::Kind::Shares: return "shares, title";
  }
  return "";
}

/// Reads one "report" entry; appends a message per problem to \p errors.
/// Point names are checked later, against the expanded points.
ReportTable read_table(const JsonValue& entry, std::size_t i,
                       std::vector<std::string>& errors) {
  ReportTable table;
  const JsonValue* metric = entry.find("metric");
  const JsonValue* speedup = entry.find("speedup");
  const JsonValue* shares = entry.find("shares");
  const int shapes =
      (metric != nullptr) + (speedup != nullptr) + (shares != nullptr);
  if (shapes != 1) {
    errors.push_back(str_format(
        "report[%zu]: expected exactly one of the keys metric, speedup, "
        "shares",
        i));
    return table;
  }
  if (speedup != nullptr) table.kind = ReportTable::Kind::Speedup;
  if (shares != nullptr) table.kind = ReportTable::Kind::Shares;

  const std::string_view valid = table_keys(table.kind);
  for (const auto& [key, value] : entry.object) {
    const bool known =
        key == "title" ||
        (table.kind == ReportTable::Kind::Metric &&
         (key == "metric" || key == "rows" || key == "decimals")) ||
        (table.kind == ReportTable::Kind::Speedup && key == "speedup") ||
        (table.kind == ReportTable::Kind::Shares && key == "shares");
    if (!known) {
      errors.push_back(str_format(
          "report[%zu]: unknown key '%s'; valid keys: %.*s", i, key.c_str(),
          static_cast<int>(valid.size()), valid.data()));
    }
  }
  if (const JsonValue* title = entry.find("title")) {
    if (title->is_string()) {
      table.title = title->string;
    } else {
      errors.push_back(str_format("report[%zu].title: expected a string", i));
    }
  }

  switch (table.kind) {
    case ReportTable::Kind::Metric: {
      if (!metric->is_string()) {
        errors.push_back(
            str_format("report[%zu].metric: expected a metric name", i));
      } else if (MetricsRegistry::builtin().try_find(metric->string) ==
                 nullptr) {
        std::vector<std::string> names;
        for (const MetricDesc& desc : MetricsRegistry::builtin().entries()) {
          names.push_back(desc.name);
        }
        errors.push_back(str_format(
            "report[%zu].metric: unknown metric '%s'; valid metrics: %s", i,
            metric->string.c_str(), join(names, ", ").c_str()));
      } else {
        table.metric = metric->string;
      }
      if (const JsonValue* rows = entry.find("rows")) {
        bool ok = rows->is_array();
        for (const JsonValue& row : rows->array) {
          ok = ok && row.is_string();
          if (ok) table.points.push_back(row.string);
        }
        if (!ok) {
          errors.push_back(str_format(
              "report[%zu].rows: expected an array of point names", i));
        }
      }
      if (const JsonValue* decimals = entry.find("decimals")) {
        if (!decimals->is_number() || decimals->number < 0.0 ||
            decimals->number > 9.0 ||
            decimals->number != std::floor(decimals->number)) {
          errors.push_back(str_format(
              "report[%zu].decimals: expected an integer from 0 to 9", i));
        } else {
          table.decimals = static_cast<int>(decimals->number);
        }
      }
      break;
    }
    case ReportTable::Kind::Speedup: {
      bool ok = speedup->is_array() && !speedup->array.empty();
      for (const JsonValue& pair : speedup->array) {
        ok = ok && pair.is_array() && pair.array.size() == 2 &&
             pair.array[0].is_string() && pair.array[1].is_string();
        if (ok) {
          table.pairs.emplace_back(pair.array[0].string, pair.array[1].string);
        }
      }
      if (!ok) {
        errors.push_back(
            str_format("report[%zu].speedup: expected a non-empty array of "
                       "[numerator, denominator] point-name pairs",
                       i));
      }
      break;
    }
    case ReportTable::Kind::Shares:
      if (shares->is_string()) {
        table.points.push_back(shares->string);
      } else {
        errors.push_back(
            str_format("report[%zu].shares: expected a point name", i));
      }
      break;
  }
  return table;
}

/// Appends a message per report row that names no expanded point (or
/// alias of one).
void check_report_points(const std::vector<ReportTable>& report,
                         const std::vector<ExperimentPoint>& points,
                         std::vector<std::string>& errors) {
  std::vector<std::string> known;
  for (const ExperimentPoint& point : points) {
    known.insert(known.end(), point.aliases.begin(), point.aliases.end());
  }
  const auto check = [&](std::size_t i, const std::string& name) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      errors.push_back(str_format("report[%zu]: unknown point '%s'; points: %s",
                                  i, name.c_str(), join(known, ", ").c_str()));
    }
  };
  for (std::size_t i = 0; i < report.size(); ++i) {
    for (const std::string& name : report[i].points) check(i, name);
    for (const auto& [numerator, denominator] : report[i].pairs) {
      check(i, numerator);
      check(i, denominator);
    }
  }
}

}  // namespace

std::optional<ExperimentSpec> ExperimentSpec::from_json(
    std::string_view text, std::vector<std::string>* errors) {
  std::vector<std::string> local;
  std::vector<std::string>& out = errors != nullptr ? *errors : local;
  const std::size_t before = out.size();

  const std::optional<JsonValue> document = json_parse(text);
  if (!document) {
    out.push_back("sweep spec is not valid JSON");
    return std::nullopt;
  }
  if (!document->is_object()) {
    out.push_back("sweep spec must be a JSON object");
    return std::nullopt;
  }

  static constexpr std::string_view kValidKeys[] = {
      "sweep_schema", "name", "base", "axes", "benchmarks", "run", "report"};
  for (const auto& [key, value] : document->object) {
    if (std::find(std::begin(kValidKeys), std::end(kValidKeys), key) ==
        std::end(kValidKeys)) {
      out.push_back(str_format(
          "unknown key '%s'; valid keys: sweep_schema, name, base, axes, "
          "benchmarks, run, report",
          key.c_str()));
    }
  }

  if (const JsonValue* schema = document->find("sweep_schema")) {
    if (!schema->is_number() ||
        schema->number != std::floor(schema->number)) {
      out.push_back("sweep_schema: expected an integer");
    } else if (schema->number > kSweepSchemaVersion) {
      out.push_back(str_format(
          "sweep_schema %s is newer than this build understands (%d)",
          json_number(schema->number).c_str(), kSweepSchemaVersion));
    }
  }

  ExperimentSpec spec;
  if (const JsonValue* name = document->find("name")) {
    if (!name->is_string()) {
      out.push_back("name: expected a string");
    } else {
      spec.name = name->string;
    }
  }

  if (const JsonValue* base = document->find("base")) {
    if (base->is_string()) {
      std::optional<ArchConfig> preset = ArchConfig::try_preset(base->string);
      if (!preset) {
        out.push_back(str_format(
            "base: unknown preset '%s' (want Arch_Nclus_Bbus_WIW; "
            "suffixes +SSA, @2cyc)",
            base->string.c_str()));
      } else {
        spec.base = *std::move(preset);
      }
    } else if (base->is_object()) {
      if (std::optional<ArchConfig> config =
              ArchConfig::from_json(*base, &out)) {
        spec.base = *std::move(config);
      }
    } else {
      out.push_back("base: expected a preset-name string or a config object");
    }
  }

  if (const JsonValue* axes = document->find("axes")) {
    if (!axes->is_array()) {
      out.push_back("axes: expected an array of {field, values} objects");
    } else {
      for (std::size_t i = 0; i < axes->array.size(); ++i) {
        const JsonValue& axis = axes->array[i];
        if (!axis.is_object()) {
          out.push_back(str_format("axes[%zu]: expected an object", i));
          continue;
        }
        for (const auto& [key, value] : axis.object) {
          if (key != "field" && key != "values") {
            out.push_back(str_format(
                "axes[%zu]: unknown key '%s'; valid keys: field, values", i,
                key.c_str()));
          }
        }
        const JsonValue* field = axis.find("field");
        const JsonValue* values = axis.find("values");
        if (field == nullptr || !field->is_string()) {
          out.push_back(
              str_format("axes[%zu].field: expected a field-name string", i));
          continue;
        }
        if (values == nullptr || !values->is_array() ||
            values->array.empty()) {
          out.push_back(str_format(
              "axes[%zu].values: expected a non-empty array", i));
          continue;
        }
        spec.axes.push_back(SweepAxis{field->string, values->array});
      }
    }
  }

  if (const JsonValue* benchmarks = document->find("benchmarks")) {
    if (!benchmarks->is_array()) {
      out.push_back("benchmarks: expected an array of benchmark names");
    } else {
      for (const JsonValue& benchmark : benchmarks->array) {
        if (!benchmark.is_string()) {
          out.push_back("benchmarks: expected benchmark-name strings");
          break;
        }
        spec.benchmarks.push_back(benchmark.string);
      }
      if (const std::optional<std::string> error =
              validate_benchmark_names(spec.benchmarks)) {
        out.push_back(*error);
      }
    }
  }

  if (const JsonValue* run = document->find("run")) {
    if (!run->is_object()) {
      out.push_back("run: expected an object {instrs, warmup, seed}");
    } else {
      for (const auto& [key, value] : run->object) {
        if (key != "instrs" && key != "warmup" && key != "seed") {
          out.push_back(str_format(
              "run: unknown key '%s'; valid keys: instrs, warmup, seed",
              key.c_str()));
        }
      }
      read_run_field(*run, "instrs", spec.instrs, out);
      read_run_field(*run, "warmup", spec.warmup, out);
      read_run_field(*run, "seed", spec.seed, out);
    }
  }

  if (const JsonValue* report = document->find("report")) {
    if (!report->is_array()) {
      out.push_back("report: expected an array of table objects");
    } else {
      for (std::size_t i = 0; i < report->array.size(); ++i) {
        if (!report->array[i].is_object()) {
          out.push_back(str_format("report[%zu]: expected an object", i));
          continue;
        }
        spec.report.push_back(read_table(report->array[i], i, out));
      }
    }
  }

  // Expansion errors (bad axis fields, invalid points) are spec errors
  // too: a spec that cannot expand should fail at load time, not at
  // submit time.  The trial expansion runs even when parsing already
  // failed, so axis problems surface alongside the other errors — the
  // whole list in one pass.  Report rows are checked against the points
  // only when the expansion succeeded.
  std::vector<std::string> expansion_errors;
  const std::vector<ExperimentPoint> points = spec.expand(&expansion_errors);
  out.insert(out.end(), expansion_errors.begin(), expansion_errors.end());
  if (expansion_errors.empty()) check_report_points(spec.report, points, out);
  if (out.size() != before) return std::nullopt;
  return spec;
}

std::size_t ExperimentSpec::cross_product_size() const {
  std::size_t total = 1;
  for (const SweepAxis& axis : axes) total *= axis.values.size();
  return total;
}

std::vector<ExperimentPoint> ExperimentSpec::expand(
    std::vector<std::string>* errors) const {
  std::vector<std::string> local;
  std::vector<std::string>& out = errors != nullptr ? *errors : local;
  const std::size_t before = out.size();

  std::vector<ExperimentPoint> points;
  std::map<std::string, std::size_t> by_fingerprint;  // -> index in points

  const std::size_t total = cross_product_size();
  std::vector<std::size_t> odometer(axes.size(), 0);
  for (std::size_t step = 0; step < total; ++step) {
    ArchConfig config = base;
    std::string label = base.name;
    std::vector<std::string> suffixes;
    bool ok = true;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const SweepAxis& axis = axes[a];
      const JsonValue& value = axis.values[odometer[a]];
      if (axis.field == "preset") {
        if (!value.is_string()) {
          out.push_back(str_format(
              "axis 'preset': expected preset-name strings, got %s",
              value_label(value).c_str()));
          ok = false;
          break;
        }
        std::optional<ArchConfig> preset =
            ArchConfig::try_preset(value.string);
        if (!preset) {
          out.push_back(str_format("axis 'preset': unknown preset '%s'",
                                   value.string.c_str()));
          ok = false;
          break;
        }
        config = *std::move(preset);
        label = value.string;
        suffixes.clear();  // A preset replaces everything set before it.
        continue;
      }
      if (std::optional<std::string> error =
              config.set_field(axis.field, value)) {
        out.push_back(*std::move(error));
        ok = false;
        break;
      }
      suffixes.push_back(axis.field + "=" + value_label(value));
    }

    // Advance the odometer (last axis fastest) before any `continue`.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++odometer[a] < axes[a].values.size()) break;
      odometer[a] = 0;
    }
    if (!ok) continue;

    const std::string point_name =
        suffixes.empty() ? label : label + "[" + join(suffixes, ",") + "]";
    config.name = point_name;
    if (std::vector<std::string> violations = config.try_validate();
        !violations.empty()) {
      for (const std::string& violation : violations) {
        out.push_back(
            str_format("point %s: %s", point_name.c_str(), violation.c_str()));
      }
      continue;
    }

    const std::string digest = config.fingerprint();
    if (const auto it = by_fingerprint.find(digest);
        it != by_fingerprint.end()) {
      points[it->second].aliases.push_back(point_name);
      continue;
    }
    by_fingerprint.emplace(digest, points.size());
    points.push_back(
        ExperimentPoint{point_name, std::move(config), {point_name}});
  }

  if (out.size() != before) return {};
  return points;
}

RunParams ExperimentSpec::resolve_params(const RunParams& defaults) const {
  RunParams params = defaults;
  if (instrs) params.instrs = *instrs;
  if (warmup) params.warmup = *warmup;
  if (seed) params.seed = *seed;
  return params;
}

std::string ExperimentSpec::points_to_json(
    const std::vector<ExperimentPoint>& points) {
  const auto make_string = [](std::string text) {
    JsonValue value;
    value.kind = JsonValue::Kind::String;
    value.string = std::move(text);
    return value;
  };
  JsonValue document;
  document.kind = JsonValue::Kind::Array;
  for (const ExperimentPoint& point : points) {
    JsonValue entry;
    entry.kind = JsonValue::Kind::Object;
    entry.object.emplace("name", make_string(point.name));
    JsonValue aliases;
    aliases.kind = JsonValue::Kind::Array;
    for (const std::string& alias : point.aliases) {
      aliases.array.push_back(make_string(alias));
    }
    entry.object.emplace("aliases", std::move(aliases));
    entry.object.emplace("fingerprint",
                         make_string(point.config.fingerprint()));
    // to_json output always parses; nest it as a real object.
    std::optional<JsonValue> config = json_parse(point.config.to_json());
    RINGCLU_ASSERT(config.has_value());
    entry.object.emplace("config", *std::move(config));
    document.array.push_back(std::move(entry));
  }
  return json_pretty(document);
}

std::vector<SimJob> make_sweep_jobs(const std::vector<ExperimentPoint>& points,
                                    const std::vector<std::string>& benchmarks,
                                    const RunParams& params,
                                    MetricSink* sink) {
  std::vector<SimJob> jobs;
  jobs.reserve(points.size() * benchmarks.size());
  for (const ExperimentPoint& point : points) {
    for (const std::string& benchmark : benchmarks) {
      jobs.push_back(SimJob{point.config, benchmark, params, sink});
    }
  }
  return jobs;
}

}  // namespace ringclu
