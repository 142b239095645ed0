// Tests for the metrics registry + observer + sink layer (stats/metrics.h,
// core/sim_observer.h, stats/metric_sink.h, util/json.h):
//   - registry contents, lookup and extension,
//   - sampling determinism (hooked and unhooked runs are bit-identical)
//     and the reconciliation invariant (interval deltas sum exactly to the
//     end-of-run counters),
//   - the three sink backends,
//   - machine-readable JSON outputs round-tripping through the parser
//     (exactly what ringclu_sim --json prints),
//   - SimService streaming semantics (no store hits, no coalescing).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/arch_config.h"
#include "core/processor.h"
#include "harness/runner.h"
#include "harness/sim_service.h"
#include "stats/metric_sink.h"
#include "stats/metrics.h"
#include "trace/synth/suite.h"
#include "util/format.h"
#include "util/json.h"

namespace ringclu {
namespace {

// ---- util/json --------------------------------------------------------

TEST(Json, WriterProducesParseableNestedDocument) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("name").value("a \"quoted\" name, with commas\n");
  writer.key("count").value(std::uint64_t{42});
  writer.key("pi").value(3.25);
  writer.key("flag").value(true);
  writer.key("list").begin_array();
  writer.value(std::uint64_t{1}).value(std::uint64_t{2});
  writer.begin_object();
  writer.key("inner").null();
  writer.end_object();
  writer.end_array();
  writer.end_object();

  const std::optional<JsonValue> doc = json_parse(writer.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("name")->string, "a \"quoted\" name, with commas\n");
  EXPECT_DOUBLE_EQ(doc->find("count")->number, 42.0);
  EXPECT_DOUBLE_EQ(doc->find("pi")->number, 3.25);
  EXPECT_TRUE(doc->find("flag")->boolean);
  ASSERT_TRUE(doc->find("list")->is_array());
  ASSERT_EQ(doc->find("list")->array.size(), 3u);
  EXPECT_EQ(doc->find("list")->array[2].find("inner")->kind,
            JsonValue::Kind::Null);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_FALSE(json_parse("").has_value());
  EXPECT_FALSE(json_parse("{").has_value());
  EXPECT_FALSE(json_parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(json_parse("[1 2]").has_value());
  EXPECT_FALSE(json_parse("\"unterminated").has_value());
  EXPECT_FALSE(json_parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(json_parse("nul").has_value());
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double value : {0.0, 1.0, -17.0, 0.1234567890123456, 1e-9,
                             123456789.25, 1.4240956992309883}) {
    const std::optional<JsonValue> parsed = json_parse(json_number(value));
    ASSERT_TRUE(parsed.has_value()) << value;
    EXPECT_DOUBLE_EQ(parsed->number, value);
  }
}

// ---- registry ---------------------------------------------------------

SimResult fabricated_result() {
  SimResult result;
  result.config_name = "Ring_4clus_1bus_2IW";
  result.benchmark = "gzip";
  result.counters.cycles = 1000;
  result.counters.committed = 1500;
  result.counters.comms = 300;
  result.counters.comm_distance_sum = 450;
  result.counters.branches = 200;
  result.counters.mispredicts = 20;
  result.counters.loads = 100;
  result.counters.l1d_accesses = 120;
  result.counters.l1d_misses = 30;
  result.counters.dispatched_per_cluster = {100, 200, 300, 400};
  return result;
}

TEST(MetricsRegistry, BuiltinCoversAccessorsAndCounters) {
  const MetricsRegistry& registry = MetricsRegistry::builtin();
  const SimResult result = fabricated_result();

  const MetricDesc& ipc = registry.at("ipc");
  EXPECT_EQ(ipc.kind, MetricKind::Ratio);
  EXPECT_EQ(ipc.unit, "instr/cycle");
  EXPECT_EQ(ipc.figure, "fig06");
  EXPECT_TRUE(ipc.time_resolved);
  EXPECT_DOUBLE_EQ(ipc.value(result), result.ipc());

  EXPECT_DOUBLE_EQ(registry.at("comms_per_instr").value(result),
                   result.comms_per_instr());
  EXPECT_DOUBLE_EQ(registry.at("avg_comm_distance").value(result),
                   result.avg_comm_distance());
  EXPECT_DOUBLE_EQ(registry.at("mispredict_rate").value(result),
                   result.mispredict_rate());

  const MetricDesc& cycles = registry.at("cycles");
  EXPECT_EQ(cycles.kind, MetricKind::Counter);
  EXPECT_DOUBLE_EQ(cycles.value(result), 1000.0);

  EXPECT_DOUBLE_EQ(registry.at("l1d_miss_rate").value(result), 30.0 / 120.0);
  EXPECT_DOUBLE_EQ(registry.at("dispatch_share_max").value(result),
                   400.0 / 1000.0);
  EXPECT_DOUBLE_EQ(registry.at("dispatch_share_min").value(result),
                   100.0 / 1000.0);

  // Host-side throughput exists but is excluded from interval series.
  EXPECT_FALSE(registry.at("sim_instrs_per_second").time_resolved);
}

TEST(MetricsRegistry, LookupAndKindNames) {
  const MetricsRegistry& registry = MetricsRegistry::builtin();
  EXPECT_EQ(registry.try_find("no_such_metric"), nullptr);
  EXPECT_NE(registry.try_find("nready_avg"), nullptr);
  EXPECT_GE(registry.size(), 35u);
  EXPECT_EQ(metric_kind_name(MetricKind::Counter), "counter");
  EXPECT_EQ(metric_kind_name(MetricKind::Ratio), "ratio");
}

TEST(MetricsRegistry, ZeroDenominatorsYieldZeroNotNan) {
  const MetricsRegistry& registry = MetricsRegistry::builtin();
  const SimResult empty;  // all counters zero, no clusters
  for (const MetricDesc& metric : registry.entries()) {
    const double value = metric.value(empty);
    EXPECT_EQ(value, 0.0) << metric.name;
  }
}

TEST(MetricsRegistry, ExtensionCopyDoesNotAffectBuiltin) {
  MetricsRegistry registry = MetricsRegistry::make_builtin();
  const std::size_t builtin_size = MetricsRegistry::builtin().size();
  MetricDesc custom;
  custom.name = "commit_burst";
  custom.unit = "instr/cycle";
  custom.description = "a custom derived view";
  custom.value = [](const SimResult& r) { return r.ipc() * 2.0; };
  registry.add(std::move(custom));
  EXPECT_EQ(registry.size(), builtin_size + 1);
  EXPECT_EQ(MetricsRegistry::builtin().size(), builtin_size);
  EXPECT_EQ(MetricsRegistry::builtin().try_find("commit_burst"), nullptr);
}

TEST(MetricsRegistryDeathTest, DuplicateNameAborts) {
  MetricsRegistry registry = MetricsRegistry::make_builtin();
  MetricDesc duplicate;
  duplicate.name = "ipc";
  duplicate.value = [](const SimResult&) { return 0.0; };
  EXPECT_DEATH(registry.add(std::move(duplicate)), "duplicate metric");
}

// ---- sampling determinism + reconciliation ----------------------------

constexpr std::uint64_t kInstrs = 12000;
constexpr std::uint64_t kWarmup = 1000;
constexpr std::uint64_t kInterval = 2500;

/// Observer collecting every sample in-process.
class CollectObserver final : public SimObserver {
 public:
  void on_interval(const IntervalSample& sample) override {
    samples.push_back(sample);
  }
  std::vector<IntervalSample> samples;
};

SimResult simulate(const std::string& preset, const std::string& benchmark,
                   const RunHooks& hooks = {}) {
  const ArchConfig config = ArchConfig::preset(preset);
  auto trace = make_benchmark_trace(benchmark, /*seed=*/42);
  Processor processor(config, /*seed=*/42);
  return processor.run(*trace, kWarmup, kInstrs, hooks);
}

/// Field-wise sum, the inverse of SimCounters::minus.
SimCounters add_counters(SimCounters accum, const SimCounters& delta) {
  for (const CounterField& field : kCounterFields) {
    accum.*field.member += delta.*field.member;
  }
  if (accum.dispatched_per_cluster.empty()) {
    accum.dispatched_per_cluster.assign(delta.dispatched_per_cluster.size(),
                                        0);
  }
  for (std::size_t c = 0; c < delta.dispatched_per_cluster.size(); ++c) {
    accum.dispatched_per_cluster[c] += delta.dispatched_per_cluster[c];
  }
  return accum;
}

TEST(Sampling, ObserverLeavesCountersBitIdentical) {
  const SimResult plain = simulate("Ring_4clus_1bus_2IW", "gzip");
  CollectObserver observer;
  const SimResult hooked = simulate(
      "Ring_4clus_1bus_2IW", "gzip",
      RunHooks{.observer = &observer, .interval_instrs = kInterval});
  EXPECT_TRUE(plain.counters == hooked.counters);
  EXPECT_FALSE(observer.samples.empty());
}

TEST(Sampling, IntervalSeriesReconcilesExactlyWithEndOfRunCounters) {
  CollectObserver observer;
  const SimResult result = simulate(
      "Conv_8clus_1bus_2IW", "swim",
      RunHooks{.observer = &observer, .interval_instrs = kInterval});
  ASSERT_GE(observer.samples.size(), 2u);

  SimCounters summed;
  for (std::size_t i = 0; i < observer.samples.size(); ++i) {
    const IntervalSample& sample = observer.samples[i];
    EXPECT_EQ(sample.index, i);
    EXPECT_EQ(sample.interval_instrs, kInterval);
    EXPECT_EQ(sample.final_sample, i + 1 == observer.samples.size());
    if (!sample.final_sample) {
      // Boundary samples cover at least one full interval.
      EXPECT_GE(sample.delta.committed, kInterval);
    }
    summed = add_counters(std::move(summed), sample.delta);
    // Cumulative is exactly the running sum at every sample.
    EXPECT_TRUE(summed == sample.cumulative) << "sample " << i;
  }
  // The series sums/ends exactly at the end-of-run counters.
  EXPECT_TRUE(summed == result.counters);
  EXPECT_TRUE(observer.samples.back().cumulative == result.counters);
}

TEST(Sampling, DisabledHooksProduceNoSamples) {
  CollectObserver observer;
  const SimResult result = simulate(
      "Ring_4clus_1bus_2IW", "gzip",
      RunHooks{.observer = &observer, .interval_instrs = 0});
  EXPECT_GT(result.counters.committed, 0u);
  EXPECT_TRUE(observer.samples.empty());
  EXPECT_FALSE(
      (RunHooks{.observer = nullptr, .interval_instrs = 100}.sampling()));
  EXPECT_FALSE(
      (RunHooks{.observer = &observer, .interval_instrs = 0}.sampling()));
  EXPECT_TRUE(
      (RunHooks{.observer = &observer, .interval_instrs = 100}.sampling()));
}

// ---- run_sim_job + sinks ----------------------------------------------

SimJob streaming_job(MetricSink* sink,
                     const std::string& preset = "Ring_4clus_1bus_2IW",
                     const std::string& benchmark = "gzip") {
  return SimJob{ArchConfig::preset(preset), benchmark,
                RunParams{kInstrs, kWarmup, 42, kInterval}, sink};
}

TEST(MetricSinks, MemorySinkReceivesSeriesAndRunRecord) {
  MemoryMetricSink sink;
  const SimJob job = streaming_job(&sink);
  ASSERT_TRUE(job.streaming());
  const SimResult result = run_sim_job(job);

  const auto intervals =
      sink.intervals_for("Ring_4clus_1bus_2IW", "gzip");
  ASSERT_GE(intervals.size(), 2u);
  EXPECT_TRUE(intervals.back().cumulative == result.counters);

  const auto runs = sink.runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].context.interval_instrs, kInterval);
  EXPECT_EQ(runs[0].context.seed, 42u);
  EXPECT_TRUE(runs[0].result.counters == result.counters);
}

TEST(MetricSinks, JsonLinesEveryLineParsesAndReconciles) {
  const std::string path = "/tmp/ringclu_metrics_test.jsonl";
  std::remove(path.c_str());
  SimResult result;
  {
    JsonLinesMetricSink sink(path);
    EXPECT_EQ(sink.describe(), "jsonl:" + path);
    result = run_sim_job(streaming_job(&sink));
  }

  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::string line;
  std::uint64_t interval_committed = 0;
  std::size_t interval_lines = 0;
  std::size_t result_lines = 0;
  while (std::getline(file, line)) {
    const std::optional<JsonValue> record = json_parse(line);
    ASSERT_TRUE(record.has_value()) << line;
    const std::string type = record->find("type")->string;
    if (type == "interval") {
      ++interval_lines;
      EXPECT_EQ(record->find("benchmark")->string, "gzip");
      EXPECT_DOUBLE_EQ(record->find("interval_instrs")->number,
                       static_cast<double>(kInterval));
      interval_committed += static_cast<std::uint64_t>(
          record->find("counters")->find("committed")->number);
      // Interval records carry time-resolved metrics only.
      EXPECT_NE(record->find("metrics")->find("ipc"), nullptr);
      EXPECT_EQ(record->find("metrics")->find("sim_instrs_per_second"),
                nullptr);
    } else {
      EXPECT_EQ(type, "result");
      ++result_lines;
      EXPECT_DOUBLE_EQ(record->find("counters")->find("committed")->number,
                       static_cast<double>(result.counters.committed));
    }
  }
  EXPECT_GE(interval_lines, 2u);
  EXPECT_EQ(result_lines, 1u);
  // The JSONL series also reconciles with the end-of-run counters.
  EXPECT_EQ(interval_committed, result.counters.committed);
  std::remove(path.c_str());
}

TEST(MetricSinks, CsvSinkRendersHeaderAndOneRowPerInterval) {
  CsvMetricSink sink("");  // no path: render() only, flush is a no-op
  MemoryMetricSink reference;
  {
    // Stream the same run into both sinks via two separate simulations
    // (deterministic, so the series are identical).
    (void)run_sim_job(streaming_job(&sink));
    (void)run_sim_job(streaming_job(&reference));
  }
  const std::string csv = sink.render();
  ASSERT_FALSE(csv.empty());
  const std::size_t newlines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(newlines,
            1 + reference.intervals().size());  // header + one per interval
  EXPECT_EQ(csv.compare(0, 16, "config,benchmark"), 0);
  EXPECT_NE(csv.find(",ipc"), std::string::npos);
  EXPECT_NE(csv.find("Ring_4clus_1bus_2IW,gzip"), std::string::npos);

  // Header names are unique (strict CSV consumers reject duplicates).
  const std::string header = csv.substr(0, csv.find('\n'));
  std::vector<std::string> columns = split(header, ',');
  std::sort(columns.begin(), columns.end());
  EXPECT_EQ(std::adjacent_find(columns.begin(), columns.end()),
            columns.end());
}

TEST(MetricSinks, CsvFlushWithoutRowsLeavesTargetAlone) {
  const std::string path = "/tmp/ringclu_metrics_empty_test.csv";
  {
    std::ofstream existing(path);
    existing << "previous series\n";
  }
  {
    CsvMetricSink sink(path);  // destroyed with zero rows sampled
  }
  std::ifstream file(path);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_EQ(line, "previous series");
  std::remove(path.c_str());
}

TEST(MetricSinks, RunnerBuildsNoSinkWithoutInterval) {
  RunnerOptions options;
  options.verbose = false;
  options.cache_backend = StoreBackend::Memory;
  options.interval = 0;  // metrics spec alone must not build a sink
  options.metrics_sink = "csv:/tmp/ringclu_should_not_exist.csv";
  EXPECT_EQ(options.build_metric_sink(), nullptr);
}

TEST(MetricSinks, FactoryAndSpecParsing) {
  EXPECT_EQ(parse_metric_sink_kind("jsonl"), MetricSinkKind::JsonLines);
  EXPECT_EQ(parse_metric_sink_kind("csv"), MetricSinkKind::Csv);
  EXPECT_EQ(parse_metric_sink_kind("memory"), MetricSinkKind::Memory);
  EXPECT_FALSE(parse_metric_sink_kind("protobuf").has_value());
  EXPECT_EQ(metric_sink_kind_name(MetricSinkKind::JsonLines), "jsonl");

  const auto spec = parse_metric_sink_spec("jsonl:/tmp/x.jsonl");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->first, MetricSinkKind::JsonLines);
  EXPECT_EQ(spec->second, "/tmp/x.jsonl");
  EXPECT_FALSE(parse_metric_sink_spec("jsonl").has_value());
  EXPECT_FALSE(parse_metric_sink_spec("jsonl:").has_value());
  EXPECT_FALSE(parse_metric_sink_spec("memory:/tmp/x").has_value());
  EXPECT_FALSE(parse_metric_sink_spec("bogus:/tmp/x").has_value());

  EXPECT_NE(make_metric_sink(MetricSinkKind::Memory, ""), nullptr);
  EXPECT_NE(make_metric_sink(MetricSinkKind::Csv, ""), nullptr);
}

// ---- machine-readable result JSON (the --json contract) ---------------

TEST(ResultJson, RoundTripsThroughParser) {
  // result_to_json is byte-for-byte what `ringclu_sim --json` prints
  // (tools/ringclu_sim.cpp); parsing it here pins the CLI contract.
  const SimResult result = simulate("Ring_4clus_1bus_2IW", "gzip");
  const std::string json = result_to_json(result);
  const std::optional<JsonValue> doc = json_parse(json);
  ASSERT_TRUE(doc.has_value());

  EXPECT_EQ(doc->find("type")->string, "result");
  EXPECT_DOUBLE_EQ(doc->find("schema_version")->number, kSimSchemaVersion);
  EXPECT_EQ(doc->find("config")->string, "Ring_4clus_1bus_2IW");
  EXPECT_EQ(doc->find("benchmark")->string, "gzip");
  EXPECT_DOUBLE_EQ(doc->find("counters")->find("cycles")->number,
                   static_cast<double>(result.counters.cycles));
  EXPECT_DOUBLE_EQ(doc->find("metrics")->find("ipc")->number, result.ipc());
  // Every registry metric appears in the metrics object.
  for (const MetricDesc& metric : MetricsRegistry::builtin().entries()) {
    ASSERT_NE(doc->find("metrics")->find(metric.name), nullptr)
        << metric.name;
    EXPECT_DOUBLE_EQ(doc->find("metrics")->find(metric.name)->number,
                     metric.value(result))
        << metric.name;
  }
  const JsonValue* shares = doc->find("dispatch_shares");
  ASSERT_TRUE(shares != nullptr && shares->is_array());
  ASSERT_EQ(shares->array.size(),
            result.counters.dispatched_per_cluster.size());
  double total = 0.0;
  for (const JsonValue& share : shares->array) total += share.number;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ResultJson, IntervalRecordRoundTrips) {
  CollectObserver observer;
  const SimResult result = simulate(
      "Ring_4clus_1bus_2IW", "gzip",
      RunHooks{.observer = &observer, .interval_instrs = kInterval});
  ASSERT_FALSE(observer.samples.empty());
  const MetricRunContext context{result.config_name, result.benchmark,
                                 kInterval, 42};
  const std::string json = interval_to_json(context, observer.samples[0]);
  const std::optional<JsonValue> doc = json_parse(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("type")->string, "interval");
  EXPECT_DOUBLE_EQ(doc->find("index")->number, 0.0);
  EXPECT_FALSE(doc->find("final")->boolean);
  EXPECT_DOUBLE_EQ(
      doc->find("counters")->find("committed")->number,
      static_cast<double>(observer.samples[0].delta.committed));
}

// ---- SimService streaming semantics -----------------------------------

TEST(ServiceStreaming, StreamingJobsBypassStoreAndNeverCoalesce) {
  SimServiceOptions options;
  options.threads = 2;
  SimService service(
      make_result_store(StoreBackend::Memory, "", /*verbose=*/false),
      options);
  MemoryMetricSink sink;

  // Seed the store with a non-streaming run of the same key.
  SimJob plain = streaming_job(nullptr);
  plain.sink = nullptr;
  ASSERT_FALSE(plain.streaming());
  ASSERT_EQ(service.submit(plain).wait(), JobStatus::Done);
  EXPECT_EQ(service.simulations_run(), 1u);

  // A streaming duplicate must simulate again (the store copy has no
  // interval series to give) ...
  JobHandle first = service.submit(streaming_job(&sink));
  // ... and a second concurrent streaming duplicate must not coalesce
  // onto the first: each sink consumer gets a full series.
  JobHandle second = service.submit(streaming_job(&sink));
  ASSERT_EQ(first.wait(), JobStatus::Done);
  ASSERT_EQ(second.wait(), JobStatus::Done);

  EXPECT_EQ(service.simulations_run(), 3u);
  EXPECT_EQ(service.coalesced_submissions(), 0u);
  EXPECT_EQ(service.store_hits(), 0u);

  // Both streaming runs produced identical full series.
  const auto intervals = sink.intervals_for("Ring_4clus_1bus_2IW", "gzip");
  ASSERT_GE(intervals.size(), 4u);
  EXPECT_EQ(intervals.size() % 2, 0u);
  EXPECT_EQ(sink.runs().size(), 2u);

  // A later non-streaming duplicate is a plain store hit.
  ASSERT_EQ(service.submit(plain).wait(), JobStatus::Done);
  EXPECT_EQ(service.store_hits(), 1u);
  EXPECT_EQ(service.simulations_run(), 3u);
}

TEST(ServiceStreaming, RepeatedStreamingRunsDoNotGrowPersistentStore) {
  const std::string cache = "/tmp/ringclu_streaming_store_test.tsv";
  std::remove(cache.c_str());
  MemoryMetricSink sink;
  auto count_lines = [&cache] {
    std::ifstream file(cache);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(file, line)) ++lines;
    return lines;
  };
  SimServiceOptions options;
  options.threads = 1;
  for (int round = 0; round < 2; ++round) {
    SimService service(
        make_result_store(StoreBackend::Tsv, cache, /*verbose=*/false),
        options);
    ASSERT_EQ(service.submit(streaming_job(&sink)).wait(), JobStatus::Done);
    EXPECT_EQ(service.simulations_run(), 1u);  // streamed: no store hit
  }
  // The second streaming run found the key already present and did not
  // append a duplicate line.
  EXPECT_EQ(count_lines(), 1u);
  std::remove(cache.c_str());
}

TEST(ServiceStreaming, CacheKeyIgnoresSamplingInterval) {
  // Sampling never changes the simulated numbers, so the interval is
  // deliberately outside the cache identity (pinned interchange format).
  RunParams sampled{5000, 500, 7, /*interval=*/1234};
  RunParams plain{5000, 500, 7, /*interval=*/0};
  EXPECT_EQ(sim_cache_key("Ring_8clus_1bus_2IW", "gzip", sampled),
            sim_cache_key("Ring_8clus_1bus_2IW", "gzip", plain));
}

TEST(ServiceStreaming, RunnerThreadsSinkThroughEveryJob) {
  const std::string path = "/tmp/ringclu_runner_metrics_test.jsonl";
  std::remove(path.c_str());
  RunnerOptions options;
  options.instrs = 5000;
  options.warmup = 500;
  options.threads = 2;
  options.verbose = false;
  options.cache_backend = StoreBackend::Memory;
  options.interval = 1000;
  options.metrics_sink = "jsonl:" + path;
  {
    const std::unique_ptr<MetricSink> sink = options.build_metric_sink();
    ASSERT_NE(sink, nullptr);
    SimService service(options);
    std::vector<SimJob> jobs;
    for (const char* benchmark : {"gzip", "swim"}) {
      jobs.push_back(SimJob{ArchConfig::preset("Ring_4clus_1bus_2IW"),
                            benchmark, options.run_params(), sink.get()});
    }
    const std::vector<JobHandle> handles =
        service.submit_batch(std::move(jobs));
    ASSERT_EQ(handles.size(), 2u);
    for (const JobHandle& handle : handles) {
      EXPECT_EQ(handle.wait(), JobStatus::Done);
    }
  }
  // Every line parses; both benchmarks are present.
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::string line;
  std::size_t lines = 0;
  bool saw_gzip = false;
  bool saw_swim = false;
  while (std::getline(file, line)) {
    const std::optional<JsonValue> record = json_parse(line);
    ASSERT_TRUE(record.has_value()) << line;
    ++lines;
    const std::string benchmark = record->find("benchmark")->string;
    saw_gzip = saw_gzip || benchmark == "gzip";
    saw_swim = saw_swim || benchmark == "swim";
  }
  EXPECT_GE(lines, 4u);
  EXPECT_TRUE(saw_gzip);
  EXPECT_TRUE(saw_swim);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ringclu
