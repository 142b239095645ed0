#include "stats/metric_sink.h"

#include "util/assert.h"
#include "util/format.h"

namespace ringclu {

// ---- MemoryMetricSink -------------------------------------------------

void MemoryMetricSink::on_interval(const MetricRunContext& context,
                                   const IntervalSample& sample) {
  const std::lock_guard<std::mutex> lock(mutex_);
  intervals_.push_back(IntervalRecord{context, sample});
}

void MemoryMetricSink::on_run_complete(const MetricRunContext& context,
                                       const SimResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  runs_.push_back(RunRecord{context, result});
}

std::vector<MemoryMetricSink::IntervalRecord> MemoryMetricSink::intervals()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return intervals_;
}

std::vector<MemoryMetricSink::RunRecord> MemoryMetricSink::runs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return runs_;
}

std::vector<IntervalSample> MemoryMetricSink::intervals_for(
    std::string_view config_name, std::string_view benchmark) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<IntervalSample> out;
  for (const IntervalRecord& record : intervals_) {
    if (record.context.config_name == config_name &&
        record.context.benchmark == benchmark) {
      out.push_back(record.sample);
    }
  }
  return out;
}

// ---- JsonLinesMetricSink ----------------------------------------------

JsonLinesMetricSink::JsonLinesMetricSink(const std::string& path,
                                         const MetricsRegistry& registry)
    : registry_(registry), path_(path) {
  if (path_ != "-") {
    file_ = std::fopen(path_.c_str(), "a");
    RINGCLU_EXPECTS(file_ != nullptr && "cannot open JSONL metrics file");
  }
}

JsonLinesMetricSink::~JsonLinesMetricSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonLinesMetricSink::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = file_ != nullptr ? file_ : stdout;
  std::fprintf(out, "%s\n", line.c_str());
  // Flushed per record so tail-readers and crashed runs see whole lines.
  std::fflush(out);
}

void JsonLinesMetricSink::on_interval(const MetricRunContext& context,
                                      const IntervalSample& sample) {
  write_line(interval_to_json(context, sample, registry_));
}

void JsonLinesMetricSink::on_run_complete(const MetricRunContext& context,
                                          const SimResult& result) {
  (void)context;  // Identity already inside the result record.
  write_line(result_to_json(result, registry_));
}

std::string JsonLinesMetricSink::describe() const {
  return "jsonl:" + (path_ == "-" ? std::string("stdout") : path_);
}

// ---- CsvMetricSink ----------------------------------------------------

namespace {

std::vector<std::string> csv_headers(const MetricsRegistry& registry) {
  // Per-interval committed/cycles deltas come from the registry's
  // counter metrics, so only run identity, interval bounds and the
  // cumulative pair get fixed columns — header names stay unique (strict
  // CSV consumers reject duplicate columns).
  std::vector<std::string> headers = {
      "config", "benchmark",            "seed",
      "index",  "final",                "interval_instrs",
      "cumulative_committed",           "cumulative_cycles"};
  for (const MetricDesc& metric : registry.entries()) {
    if (metric.time_resolved) headers.push_back(metric.name);
  }
  return headers;
}

}  // namespace

CsvMetricSink::CsvMetricSink(std::string path,
                             const MetricsRegistry& registry)
    : registry_(registry),
      path_(std::move(path)),
      table_(csv_headers(registry)) {}

CsvMetricSink::~CsvMetricSink() { flush(); }

void CsvMetricSink::on_interval(const MetricRunContext& context,
                                const IntervalSample& sample) {
  SimResult delta;
  delta.config_name = context.config_name;
  delta.benchmark = context.benchmark;
  delta.counters = sample.delta;

  const std::lock_guard<std::mutex> lock(mutex_);
  table_.begin_row();
  table_.add_cell(context.config_name);
  table_.add_cell(context.benchmark);
  table_.add_cell(static_cast<long long>(context.seed));
  table_.add_cell(static_cast<long long>(sample.index));
  table_.add_cell(sample.final_sample ? "1" : "0");
  table_.add_cell(static_cast<long long>(sample.interval_instrs));
  table_.add_cell(static_cast<long long>(sample.cumulative.committed));
  table_.add_cell(static_cast<long long>(sample.cumulative.cycles));
  for (const MetricDesc& metric : registry_.entries()) {
    if (!metric.time_resolved) continue;
    if (metric.kind == MetricKind::Counter) {
      table_.add_cell(static_cast<long long>(metric.value(delta)));
    } else {
      table_.add_cell(metric.value(delta), 6);
    }
  }
}

void CsvMetricSink::on_run_complete(const MetricRunContext& context,
                                    const SimResult& result) {
  // CSV carries the interval series only; whole-run numbers live in the
  // result store / --json output.
  (void)context;
  (void)result;
}

std::string CsvMetricSink::describe() const { return "csv:" + path_; }

std::string CsvMetricSink::render() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return table_.render_csv();
}

void CsvMetricSink::flush() {
  if (path_.empty()) return;
  {
    // Nothing sampled: leave the target alone rather than overwriting a
    // previously collected series with a header-only document.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (table_.num_rows() == 0) return;
  }
  const std::string document = render();
  std::FILE* file = std::fopen(path_.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "[metrics] cannot write %s\n", path_.c_str());
    return;
  }
  std::fwrite(document.data(), 1, document.size(), file);
  std::fclose(file);
}

// ---- factory ----------------------------------------------------------

std::optional<MetricSinkKind> parse_metric_sink_kind(std::string_view name) {
  if (name == "memory") return MetricSinkKind::Memory;
  if (name == "jsonl") return MetricSinkKind::JsonLines;
  if (name == "csv") return MetricSinkKind::Csv;
  return std::nullopt;
}

std::string_view metric_sink_kind_name(MetricSinkKind kind) {
  switch (kind) {
    case MetricSinkKind::Memory: return "memory";
    case MetricSinkKind::JsonLines: return "jsonl";
    case MetricSinkKind::Csv: return "csv";
  }
  RINGCLU_UNREACHABLE("bad MetricSinkKind");
}

std::optional<std::pair<MetricSinkKind, std::string>> parse_metric_sink_spec(
    std::string_view spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const std::optional<MetricSinkKind> kind =
      parse_metric_sink_kind(spec.substr(0, colon));
  const std::string path(spec.substr(colon + 1));
  if (!kind || path.empty() || *kind == MetricSinkKind::Memory) {
    return std::nullopt;
  }
  return std::make_pair(*kind, path);
}

std::unique_ptr<MetricSink> make_metric_sink(MetricSinkKind kind,
                                             const std::string& path) {
  switch (kind) {
    case MetricSinkKind::Memory: return std::make_unique<MemoryMetricSink>();
    case MetricSinkKind::JsonLines:
      return std::make_unique<JsonLinesMetricSink>(path);
    case MetricSinkKind::Csv: return std::make_unique<CsvMetricSink>(path);
  }
  RINGCLU_UNREACHABLE("bad MetricSinkKind");
}

}  // namespace ringclu
