#include "steer/conv_steering.h"
#include "steer/extra_policies.h"
#include "steer/registry.h"
#include "steer/ring_steering.h"
#include "steer/ssa_steering.h"
#include "steer/steering.h"

namespace ringclu {

void register_builtin_steering_policies(SteeringRegistry& registry) {
  // "enhanced" is the only name whose meaning depends on the machine: the
  // paper's Ring steering (§3.1) or the Conv DCOUNT baseline (§4.1).
  registry.register_policy(
      "enhanced", [](const SteerFactoryArgs& args) {
        if (args.arch == ArchKind::Ring) {
          return std::unique_ptr<SteeringPolicy>(
              std::make_unique<RingSteering>(args.num_clusters));
        }
        return std::unique_ptr<SteeringPolicy>(std::make_unique<ConvSteering>(
            args.num_clusters, args.dcount_threshold));
      });
  registry.register_policy("ssa", [](const SteerFactoryArgs& args) {
    return std::unique_ptr<SteeringPolicy>(
        std::make_unique<SimpleSteering>(args.num_clusters));
  });
  registry.register_policy("round_robin", [](const SteerFactoryArgs& args) {
    return std::unique_ptr<SteeringPolicy>(
        std::make_unique<RoundRobinSteering>(args.num_clusters));
  });
  registry.register_policy("random", [](const SteerFactoryArgs& args) {
    return std::unique_ptr<SteeringPolicy>(
        std::make_unique<RandomSteering>(args.num_clusters, args.seed));
  });
}

}  // namespace ringclu
