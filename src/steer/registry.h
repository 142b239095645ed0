#pragma once

/// \file registry.h
/// String-keyed steering-policy registry: the open extension point behind
/// ArchConfig's policy names.
///
/// The four built-in policies ("enhanced", "ssa", "round_robin", "random")
/// register themselves the first time the registry is touched; an external
/// policy plugs in with one call and no core-header edit:
///
///   SteeringRegistry::global().register_policy(
///       "my_policy", [](const SteerFactoryArgs& args) {
///         return std::make_unique<MySteering>(args.num_clusters);
///       });
///
/// Configuration files and the CLI then name it like any built-in
/// ("steer": "my_policy").  A registry name is the only way a policy is
/// named: ArchConfig::steer holds one, and the Processor builds its
/// policy from it here.  See DESIGN.md §9.

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "steer/steering.h"

namespace ringclu {

/// Everything a policy factory may consume.  Factories ignore what they
/// don't need: \p dcount_threshold only matters to Conv's DCOUNT policy,
/// \p seed only to randomized policies.
struct SteerFactoryArgs {
  ArchKind arch = ArchKind::Ring;
  int num_clusters = 0;
  int dcount_threshold = 8;
  std::uint64_t seed = 0;
};

/// Thread-safe name -> factory registry.  One process-wide instance.
class SteeringRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<SteeringPolicy>(const SteerFactoryArgs&)>;

  /// The process-wide registry, with the built-ins already registered.
  [[nodiscard]] static SteeringRegistry& global();

  /// Registers \p factory under \p name.  Aborts on a duplicate name or an
  /// empty name/factory: registration happens at startup, where a silent
  /// overwrite would hide a real collision.
  void register_policy(std::string name, Factory factory);

  /// True when \p name is registered.
  [[nodiscard]] bool contains(std::string_view name) const;

  /// Instantiates the policy registered under \p name.  \pre contains(name)
  /// (aborts otherwise — callers with unvalidated input use try_create).
  [[nodiscard]] std::unique_ptr<SteeringPolicy> create(
      std::string_view name, const SteerFactoryArgs& args) const;

  /// Lenient variant: nullptr when \p name is not registered.
  [[nodiscard]] std::unique_ptr<SteeringPolicy> try_create(
      std::string_view name, const SteerFactoryArgs& args) const;

  /// All registered names, sorted (error messages and --list).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Sorted names joined with ", " — the "valid policies" error suffix.
  [[nodiscard]] std::string names_joined() const;

 private:
  SteeringRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, Factory, std::less<>> policies_;
};

/// Registers the four built-in policies into \p registry.  Defined in
/// factory.cpp (the one TU that names the concrete policy classes);
/// SteeringRegistry::global() calls it exactly once.
void register_builtin_steering_policies(SteeringRegistry& registry);

}  // namespace ringclu
