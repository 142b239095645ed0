// The declarative experiment API end to end: ArchConfig JSON round-trips
// (pinned bit-identical against the golden files), defaults-aware loading
// with exhaustive error reporting, config fingerprints as cache identity,
// the string-keyed steering registry, and ExperimentSpec sweep expansion
// (cross-product, deterministic naming, duplicate collapsing) feeding the
// SimService exactly like --matrix does.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/arch_config.h"
#include "core/processor.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/result_store.h"
#include "harness/runner.h"
#include "harness/sim_service.h"
#include "steer/registry.h"
#include "steer/ssa_steering.h"
#include "trace/synth/suite.h"
#include "util/json.h"

#ifndef RINGCLU_GOLDEN_DIR
#error "RINGCLU_GOLDEN_DIR must point at the golden data directory"
#endif

namespace ringclu {
namespace {

/// One deterministic run, serialized the way the stores and goldens pin it.
std::string run_serialized(const ArchConfig& config,
                           const std::string& benchmark,
                           std::uint64_t instrs = 6000,
                           std::uint64_t warmup = 600,
                           std::uint64_t seed = 42) {
  auto trace = make_benchmark_trace(benchmark, seed);
  Processor processor(config, seed);
  SimResult result = processor.run(*trace, warmup, instrs);
  return serialize_result(result);
}

ArchConfig round_trip(const ArchConfig& config) {
  std::vector<std::string> errors;
  std::optional<ArchConfig> loaded =
      ArchConfig::from_json(config.to_json(), &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  EXPECT_TRUE(loaded.has_value());
  return loaded.value_or(ArchConfig{});
}

std::string errors_joined(const std::vector<std::string>& errors) {
  std::string out;
  for (const std::string& error : errors) out += error + "\n";
  return out;
}

// ---- ArchConfig JSON ---------------------------------------------------

TEST(ConfigJson, EveryPaperPresetRoundTripsExactly) {
  for (const std::string& name : ArchConfig::paper_preset_names()) {
    const ArchConfig config = ArchConfig::preset(name);
    const ArchConfig reloaded = round_trip(config);
    EXPECT_EQ(config, reloaded) << name;
    // Serialization is stable: to_json of the round-trip is byte-equal.
    EXPECT_EQ(config.to_json(), reloaded.to_json()) << name;
  }
}

TEST(ConfigJson, RoundTrippedPresetSimulatesBitIdentical) {
  // The acceptance bar: preset -> to_json -> from_json -> run produces the
  // exact counters the preset itself does, for all ten Table 3 names.
  for (const std::string& name : ArchConfig::paper_preset_names()) {
    const ArchConfig config = ArchConfig::preset(name);
    const ArchConfig reloaded = round_trip(config);
    EXPECT_EQ(run_serialized(config, "gzip", 3000, 300),
              run_serialized(reloaded, "gzip", 3000, 300))
        << name;
  }
}

TEST(ConfigJson, RoundTripMatchesGoldenFiles) {
  // Same scenarios/budget as golden_test: the round-tripped configuration
  // must reproduce the pinned golden bytes, suffixed presets included.
  struct Scenario {
    const char* preset;
    const char* benchmark;
    const char* golden;
  };
  constexpr Scenario kScenarios[] = {
      {"Ring_8clus_1bus_2IW", "gcc", "ring_8c1b2w_gcc.tsv"},
      {"Conv_8clus_2bus_1IW", "art", "conv_8c2b1w_art.tsv"},
      {"Ring_8clus_1bus_2IW+SSA", "mcf", "ring_8c1b2w_ssa_mcf.tsv"},
      {"Conv_8clus_1bus_2IW@2cyc", "gzip", "conv_8c1b2w_2cyc_gzip.tsv"},
  };
  for (const Scenario& scenario : kScenarios) {
    ArchConfig reloaded = round_trip(ArchConfig::preset(scenario.preset));
    std::ifstream in(std::string(RINGCLU_GOLDEN_DIR) + "/" + scenario.golden);
    ASSERT_TRUE(in) << "missing golden " << scenario.golden;
    std::string expected;
    std::getline(in, expected);
    EXPECT_EQ(run_serialized(reloaded, scenario.benchmark, 15000, 1500),
              expected)
        << scenario.preset;
  }
}

TEST(ConfigJson, AbsentFieldsKeepDefaults) {
  std::vector<std::string> errors;
  const std::optional<ArchConfig> config =
      ArchConfig::from_json(R"({"num_clusters": 4})", &errors);
  ASSERT_TRUE(config.has_value()) << errors_joined(errors);
  EXPECT_EQ(config->num_clusters, 4);
  EXPECT_EQ(config->issue_width, ArchConfig{}.issue_width);
  EXPECT_EQ(config->mem.l1d.size_bytes, ArchConfig{}.mem.l1d.size_bytes);
}

TEST(ConfigJson, PresetBaseThenFieldOverride) {
  std::vector<std::string> errors;
  const std::optional<ArchConfig> config = ArchConfig::from_json(
      R"({"preset": "Ring_4clus_1bus_2IW", "num_buses": 2})", &errors);
  ASSERT_TRUE(config.has_value()) << errors_joined(errors);
  EXPECT_EQ(config->num_buses, 2);
  EXPECT_EQ(config->iq_int, 32);  // Table 2 sizing came from the preset.
  EXPECT_EQ(config->name, "Ring_4clus_1bus_2IW");
}

TEST(ConfigJson, UnknownTopLevelKeyListsValidKeys) {
  std::vector<std::string> errors;
  EXPECT_FALSE(ArchConfig::from_json(R"({"nonsense": 1})", &errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("unknown key 'nonsense'"), std::string::npos);
  EXPECT_NE(errors[0].find("num_clusters"), std::string::npos);
  EXPECT_NE(errors[0].find("preset"), std::string::npos);
}

TEST(ConfigJson, UnknownNestedKeyListsSiblingKeys) {
  std::vector<std::string> errors;
  EXPECT_FALSE(ArchConfig::from_json(R"({"mem": {"l1x": 1}})", &errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("unknown key 'mem.l1x'"), std::string::npos);
  EXPECT_NE(errors[0].find("l1d"), std::string::npos);
  EXPECT_NE(errors[0].find("l2_hit_latency"), std::string::npos);
}

TEST(ConfigJson, TypeMismatchesAreReported) {
  std::vector<std::string> errors;
  EXPECT_FALSE(ArchConfig::from_json(
      R"({"num_clusters": "eight", "copy_eviction": 3})", &errors));
  EXPECT_EQ(errors.size(), 2u) << errors_joined(errors);
}

TEST(ConfigJson, NewerSchemaVersionRejected) {
  std::vector<std::string> errors;
  EXPECT_FALSE(ArchConfig::from_json(R"({"config_schema": 99})", &errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("newer"), std::string::npos);
}

TEST(ConfigJson, AllViolationsReportedAtOnce) {
  std::vector<std::string> errors;
  EXPECT_FALSE(ArchConfig::from_json(
      R"({"num_clusters": 99, "issue_width": 9, "rob_size": 1})", &errors));
  EXPECT_GE(errors.size(), 3u) << errors_joined(errors);
}

TEST(ConfigJson, UnknownSteeringPolicyListsRegisteredNames) {
  std::vector<std::string> errors;
  EXPECT_FALSE(ArchConfig::from_json(R"({"steer": "bogus"})", &errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("registered policies"), std::string::npos);
  EXPECT_NE(errors[0].find("enhanced"), std::string::npos);
  EXPECT_NE(errors[0].find("ssa"), std::string::npos);
}

TEST(ConfigJson, BuiltinSteerNamesRoundTrip) {
  for (const char* name : {"enhanced", "ssa", "round_robin", "random"}) {
    ArchConfig config;
    EXPECT_EQ(config.set_steering(name), std::nullopt) << name;
    EXPECT_EQ(config.steering_policy_name(), name);
    EXPECT_EQ(round_trip(config).steer, name);

    std::vector<std::string> errors;
    const std::optional<ArchConfig> parsed = ArchConfig::from_json(
        std::string(R"({"steer": ")") + name + R"("})", &errors);
    ASSERT_TRUE(parsed.has_value()) << errors_joined(errors);
    EXPECT_EQ(*parsed, config) << name;
  }
}

// ---- try_validate / fingerprint ---------------------------------------

TEST(ConfigValidate, PresetsHaveNoViolations) {
  for (const std::string& name : ArchConfig::paper_preset_names()) {
    EXPECT_TRUE(ArchConfig::preset(name).try_validate().empty()) << name;
  }
}

TEST(ConfigValidate, ViolationsAreHumanReadableAndComplete) {
  ArchConfig config;
  config.num_clusters = 99;
  config.rob_size = 1;
  config.bpred.gshare_entries = 1000;  // not a power of two
  const std::vector<std::string> violations = config.try_validate();
  EXPECT_EQ(violations.size(), 3u) << errors_joined(violations);
  EXPECT_NE(violations[0].find("num_clusters = 99"), std::string::npos);
}

TEST(ConfigValidate, JsonExposedFieldsAreRangeChecked) {
  // Fields the JSON surface opened up must fail validation gracefully,
  // not SIGABRT later in the pipeline (watchdog, event queue, ...).
  ArchConfig config;
  config.decode_width = 0;
  config.fetchq_size = 0;
  config.mem.l1d_ports = 0;
  config.mem.l2_miss_latency = -5;
  EXPECT_EQ(config.try_validate().size(), 4u);

  std::vector<std::string> errors;
  EXPECT_FALSE(ArchConfig::from_json(R"({"decode_width": 0})", &errors));
  EXPECT_FALSE(ArchConfig::from_json(
      R"({"mem": {"l1d_ports": 0}})", &errors));
}

TEST(ConfigValidateDeathTest, ValidateStillAbortsOnViolation) {
  ArchConfig config;
  config.num_clusters = 99;
  EXPECT_DEATH(config.validate(), "num_clusters");
}

TEST(ConfigFingerprint, NameDoesNotAffectFingerprint) {
  ArchConfig a = ArchConfig::preset("Ring_8clus_1bus_2IW");
  ArchConfig b = a;
  b.name = "anything_else";
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(ConfigFingerprint, BehaviorFieldsChangeFingerprint) {
  const ArchConfig base = ArchConfig::preset("Ring_8clus_1bus_2IW");
  ArchConfig tweaked = base;
  tweaked.mem.l1d.size_bytes *= 2;
  EXPECT_NE(base.fingerprint(), tweaked.fingerprint());
  ArchConfig steered = base;
  steered.steer = "ssa";
  EXPECT_NE(base.fingerprint(), steered.fingerprint());
}

TEST(ConfigFingerprint, CacheIdentityIsPresetNameOrFingerprint) {
  const ArchConfig preset = ArchConfig::preset("Ring_8clus_1bus_2IW");
  EXPECT_EQ(preset.cache_identity(), "Ring_8clus_1bus_2IW");

  // Same name, divergent behavior: must NOT collide with the preset key.
  ArchConfig divergent = preset;
  divergent.rob_size = 64;
  EXPECT_EQ(divergent.cache_identity(), divergent.fingerprint());
  EXPECT_NE(divergent.cache_identity(), preset.cache_identity());

  // Different names, identical behavior: must share one key (coalescing).
  ArchConfig renamed = divergent;
  renamed.name = "some_sweep_point";
  EXPECT_EQ(renamed.cache_identity(), divergent.cache_identity());

  const RunParams params;
  EXPECT_EQ(sim_cache_key(SimJob{renamed, "gzip", params}),
            sim_cache_key(SimJob{divergent, "gzip", params}));
}

// ---- Steering registry -------------------------------------------------

TEST(SteeringRegistryTest, BuiltinsAreRegisteredSorted) {
  const std::vector<std::string> names = SteeringRegistry::global().names();
  EXPECT_EQ(names, (std::vector<std::string>{"enhanced", "random",
                                             "round_robin", "ssa"}));
  EXPECT_TRUE(SteeringRegistry::global().contains("enhanced"));
  EXPECT_FALSE(SteeringRegistry::global().contains("ENHANCED"));
}

TEST(SteeringRegistryTest, TryCreateIsGracefulOnUnknownNames) {
  EXPECT_EQ(SteeringRegistry::global().try_create(
                "no_such_policy", SteerFactoryArgs{ArchKind::Ring, 8, 8, 1}),
            nullptr);
}

TEST(SteeringRegistryDeathTest, CreateUnknownAborts) {
  EXPECT_DEATH((void)SteeringRegistry::global().create(
                   "no_such_policy", SteerFactoryArgs{ArchKind::Ring, 8, 8, 1}),
               "unknown steering policy");
}

TEST(SteeringRegistryDeathTest, DuplicateRegistrationAborts) {
  EXPECT_DEATH(SteeringRegistry::global().register_policy(
                   "enhanced",
                   [](const SteerFactoryArgs&) {
                     return std::unique_ptr<SteeringPolicy>();
                   }),
               "already registered");
}

TEST(SteeringRegistryTest, ExternalPolicyPlugsInWithoutCoreChanges) {
  // A "new" policy registered from the outside (here: SSA under a private
  // name) is reachable by config string and simulates exactly like the
  // built-in it wraps — no enum edit, no core-header change.
  static bool registered = false;
  if (!registered) {
    SteeringRegistry::global().register_policy(
        "test_custom_ssa", [](const SteerFactoryArgs& args) {
          return std::unique_ptr<SteeringPolicy>(
              std::make_unique<SimpleSteering>(args.num_clusters));
        });
    registered = true;
  }

  ArchConfig builtin = ArchConfig::preset("Ring_8clus_1bus_2IW+SSA");
  ArchConfig custom = ArchConfig::preset("Ring_8clus_1bus_2IW");
  ASSERT_EQ(custom.set_steering("test_custom_ssa"), std::nullopt);
  custom.name = builtin.name;  // Identical display name: counters compare.
  EXPECT_EQ(custom.steering_policy_name(), "test_custom_ssa");
  EXPECT_EQ(run_serialized(builtin, "mcf", 3000, 300),
            run_serialized(custom, "mcf", 3000, 300));

  // And it round-trips through JSON like any built-in.
  const ArchConfig reloaded = round_trip(custom);
  EXPECT_EQ(reloaded.steer, "test_custom_ssa");
}

// ---- Sweep expansion ---------------------------------------------------

constexpr const char* kBusHopSpec = R"({
  "sweep_schema": 1,
  "name": "bus_hop",
  "base": "Ring_8clus_1bus_2IW",
  "axes": [
    {"field": "num_buses", "values": [1, 2]},
    {"field": "hop_latency", "values": [1, 2]}
  ],
  "benchmarks": ["gzip", "swim"],
  "run": {"instrs": 4000, "warmup": 400, "seed": 7}
})";

TEST(SweepSpec, ParsesAndExpandsTheCrossProduct) {
  std::vector<std::string> errors;
  const std::optional<ExperimentSpec> spec =
      ExperimentSpec::from_json(kBusHopSpec, &errors);
  ASSERT_TRUE(spec.has_value()) << errors_joined(errors);
  EXPECT_EQ(spec->name, "bus_hop");
  EXPECT_EQ(spec->cross_product_size(), 4u);
  EXPECT_EQ(spec->benchmarks,
            (std::vector<std::string>{"gzip", "swim"}));
  EXPECT_EQ(spec->instrs, std::optional<std::uint64_t>(4000));
  EXPECT_EQ(spec->seed, std::optional<std::uint64_t>(7));

  const std::vector<ExperimentPoint> points = spec->expand();
  ASSERT_EQ(points.size(), 4u);
  // Deterministic naming, last axis fastest.
  EXPECT_EQ(points[0].name, "Ring_8clus_1bus_2IW[num_buses=1,hop_latency=1]");
  EXPECT_EQ(points[1].name, "Ring_8clus_1bus_2IW[num_buses=1,hop_latency=2]");
  EXPECT_EQ(points[2].name, "Ring_8clus_1bus_2IW[num_buses=2,hop_latency=1]");
  EXPECT_EQ(points[3].name, "Ring_8clus_1bus_2IW[num_buses=2,hop_latency=2]");
  EXPECT_EQ(points[2].config.num_buses, 2);
  EXPECT_EQ(points[2].config.hop_latency, 1);
  EXPECT_EQ(points[2].config.name, points[2].name);

  // Expansion is a pure function of the spec.
  const std::vector<ExperimentPoint> again = spec->expand();
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].name, again[i].name);
    EXPECT_EQ(points[i].config, again[i].config);
  }
}

TEST(SweepSpec, DuplicateDesignPointsCollapseWithAliases) {
  std::vector<std::string> errors;
  const std::optional<ExperimentSpec> spec = ExperimentSpec::from_json(
      R"({"base": "Ring_8clus_1bus_2IW",
          "axes": [{"field": "num_buses", "values": [1, 2, 1]}]})",
      &errors);
  ASSERT_TRUE(spec.has_value()) << errors_joined(errors);
  EXPECT_EQ(spec->cross_product_size(), 3u);
  const std::vector<ExperimentPoint> points = spec->expand();
  ASSERT_EQ(points.size(), 2u);  // The repeated value collapsed.
  EXPECT_EQ(points[0].aliases.size(), 2u);
  EXPECT_EQ(points[0].aliases[0], points[0].name);
}

TEST(SweepSpec, PresetAxisReplacesTheWholeBase) {
  std::vector<std::string> errors;
  const std::optional<ExperimentSpec> spec = ExperimentSpec::from_json(
      R"({"axes": [
            {"field": "preset",
             "values": ["Ring_4clus_1bus_2IW", "Conv_8clus_2bus_1IW"]},
            {"field": "dcount_threshold", "values": [8, 16]}]})",
      &errors);
  ASSERT_TRUE(spec.has_value()) << errors_joined(errors);
  const std::vector<ExperimentPoint> points = spec->expand();
  // dcount_threshold=8 IS the default, so Ring[8]/Ring[16] differ only in
  // the Conv-only threshold... which still fingerprints differently; all
  // four points survive, named by preset.
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].name, "Ring_4clus_1bus_2IW[dcount_threshold=8]");
  EXPECT_EQ(points[3].name, "Conv_8clus_2bus_1IW[dcount_threshold=16]");
  EXPECT_EQ(points[0].config.iq_int, 32);  // 4-cluster Table 2 sizing kept.
}

TEST(SweepSpec, ErrorsAreCollectedNotFatal) {
  std::vector<std::string> errors;
  EXPECT_FALSE(ExperimentSpec::from_json(
      R"({"typo": 1,
          "axes": [{"field": "no_such_field", "values": [1]}],
          "benchmarks": ["nosuchbench"]})",
      &errors));
  EXPECT_GE(errors.size(), 3u) << errors_joined(errors);
  EXPECT_NE(errors_joined(errors).find("unknown key 'typo'"),
            std::string::npos);
  EXPECT_NE(errors_joined(errors).find("no_such_field"), std::string::npos);
  EXPECT_NE(errors_joined(errors).find("valid fields"), std::string::npos);
  EXPECT_NE(errors_joined(errors).find("nosuchbench"), std::string::npos);
}

TEST(SweepSpec, InvalidExpandedPointsAreSpecErrors) {
  std::vector<std::string> errors;
  EXPECT_FALSE(ExperimentSpec::from_json(
      R"({"axes": [{"field": "num_clusters", "values": [8, 99]}]})",
      &errors));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors_joined(errors).find("num_clusters = 99"),
            std::string::npos);
}

TEST(SweepSpec, UnknownPresetValueIsAnError) {
  std::vector<std::string> errors;
  EXPECT_FALSE(ExperimentSpec::from_json(
      R"({"axes": [{"field": "preset", "values": ["Mesh_8clus_1bus_2IW"]}]})",
      &errors));
  EXPECT_NE(errors_joined(errors).find("Mesh_8clus_1bus_2IW"),
            std::string::npos);
}

TEST(SweepSpec, ResolveParamsPrefersSpecOverDefaults) {
  std::vector<std::string> errors;
  const std::optional<ExperimentSpec> spec =
      ExperimentSpec::from_json(kBusHopSpec, &errors);
  ASSERT_TRUE(spec.has_value());
  const RunParams defaults{200000, 20000, 42, 0};
  const RunParams resolved = spec->resolve_params(defaults);
  EXPECT_EQ(resolved.instrs, 4000u);
  EXPECT_EQ(resolved.warmup, 400u);
  EXPECT_EQ(resolved.seed, 7u);

  const std::optional<ExperimentSpec> bare = ExperimentSpec::from_json(
      R"({"base": "Ring_8clus_1bus_2IW"})", &errors);
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->resolve_params(defaults).instrs, 200000u);
}

TEST(SweepSpec, PointsToJsonRoundTripsEveryConfig) {
  std::vector<std::string> errors;
  const std::optional<ExperimentSpec> spec =
      ExperimentSpec::from_json(kBusHopSpec, &errors);
  ASSERT_TRUE(spec.has_value());
  const std::vector<ExperimentPoint> points = spec->expand();
  const std::optional<JsonValue> document =
      json_parse(ExperimentSpec::points_to_json(points));
  ASSERT_TRUE(document.has_value());
  ASSERT_TRUE(document->is_array());
  ASSERT_EQ(document->array.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const JsonValue* config = document->array[i].find("config");
    ASSERT_NE(config, nullptr);
    const std::optional<ArchConfig> reloaded =
        ArchConfig::from_json(*config, &errors);
    ASSERT_TRUE(reloaded.has_value()) << errors_joined(errors);
    EXPECT_EQ(*reloaded, points[i].config);
  }
}

// ---- Sweep execution through the service ------------------------------

TEST(SweepService, PresetSweepReproducesMatrixNumbersExactly) {
  // A sweep spec declaring (a slice of) the paper matrix must agree with
  // ExperimentRunner::run_matrix bit for bit — same results, same
  // aggregate means — because both paths feed the same SimService.
  const std::vector<std::string> presets = {"Ring_4clus_1bus_2IW",
                                            "Conv_4clus_1bus_2IW"};
  const std::vector<std::string> benchmarks = {"gzip", "swim"};

  RunnerOptions options;
  options.instrs = 3000;
  options.warmup = 300;
  options.seed = 42;
  options.threads = 2;
  options.verbose = false;
  options.cache_backend = StoreBackend::Memory;
  options.cache_path.clear();
  ExperimentRunner runner(options);
  const std::vector<SimResult> matrix =
      runner.run_matrix(presets, benchmarks);

  std::vector<std::string> errors;
  const std::optional<ExperimentSpec> spec = ExperimentSpec::from_json(
      R"({"name": "paper_slice",
          "axes": [{"field": "preset",
                    "values": ["Ring_4clus_1bus_2IW", "Conv_4clus_1bus_2IW"]}],
          "benchmarks": ["gzip", "swim"],
          "run": {"instrs": 3000, "warmup": 300, "seed": 42}})",
      &errors);
  ASSERT_TRUE(spec.has_value()) << errors_joined(errors);
  const std::vector<ExperimentPoint> points = spec->expand();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].name, presets[0]);  // Pure preset points keep names,
  EXPECT_EQ(points[0].config.cache_identity(), presets[0]);  // and keys.

  SimService service(make_result_store(StoreBackend::Memory, "", false));
  std::vector<JobHandle> handles = service.submit_batch(make_sweep_jobs(
      points, spec->benchmarks, spec->resolve_params(RunParams{})));
  std::vector<SimResult> sweep;
  for (JobHandle& handle : handles) {
    ASSERT_EQ(handle.wait(), JobStatus::Done);
    sweep.push_back(handle.result());
  }

  ASSERT_EQ(sweep.size(), matrix.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(serialize_result(sweep[i]), serialize_result(matrix[i])) << i;
  }
  EXPECT_EQ(group_mean(sweep, BenchGroup::All, "ipc"),
            group_mean(matrix, BenchGroup::All, "ipc"));
}

TEST(SweepService, IdenticalDesignPointsCoalesceAcrossNames) {
  // Two hand-built jobs with different display names but equal behavior
  // fields share a cache key, so the service runs one simulation.
  ArchConfig first = ArchConfig::preset("Ring_4clus_1bus_2IW");
  first.rob_size = 64;
  first.name = "point_a";
  ArchConfig second = first;
  second.name = "point_b";

  SimService service(make_result_store(StoreBackend::Memory, "", false),
                     SimServiceOptions{.threads = 1, .start_paused = true});
  const RunParams params{2000, 200, 42, 0};
  std::vector<JobHandle> handles = service.submit_batch(
      {SimJob{first, "gzip", params}, SimJob{second, "gzip", params}});
  service.resume();
  ASSERT_EQ(handles[0].wait(), JobStatus::Done);
  ASSERT_EQ(handles[1].wait(), JobStatus::Done);
  EXPECT_EQ(service.simulations_run(), 1u);
  EXPECT_EQ(service.coalesced_submissions(), 1u);
  EXPECT_EQ(serialize_result(handles[0].result()),
            serialize_result(handles[1].result()));
}

}  // namespace
}  // namespace ringclu
