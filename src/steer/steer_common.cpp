#include "steer/steer_common.h"

#include <algorithm>

namespace ringclu {

CommPlanStep plan_operand(ValueId value, int cluster,
                          const SteerContext& context) {
  return plan_step(*context.buses, context.values->info(value).mapped_mask,
                   cluster);
}

void SteerPlanCache::build(const SteerRequest& request,
                           const SteerContext& context) {
  buses_ = context.buses;
  for (std::size_t i = 0; i < request.srcs.size(); ++i) {
    masks_[i] = context.values->info(request.srcs[i]).mapped_mask;
  }
}

namespace {

/// Shared plan_candidate body; \p step(i) yields the CommPlanStep for
/// operand i at \p cluster (cached or computed on the fly).
template <typename StepFn>
bool plan_candidate_impl(const SteerRequest& request, int cluster,
                         const SteerContext& context, StepFn step,
                         SteerDecision& decision) {
  const SteerOracle& oracle = *context.oracle;
  SteerWatch* const watch = context.watch;
  const auto bit = [](int c) { return static_cast<std::uint16_t>(1u << c); };

  if (!oracle.iq_can_accept(cluster, op_unit(request.cls))) {
    if (watch != nullptr) watch->iq |= bit(cluster);
    return false;
  }

  decision.comms.clear();

  // Register needs per (cluster, class); at most three groups: destination
  // plus up to two operand copies.
  struct Need {
    int cluster;
    RegClass cls;
    int count;
  };
  StaticVector<Need, 3> needs;
  auto add_need = [&needs](int c, RegClass cls) {
    for (Need& need : needs) {
      if (need.cluster == c && need.cls == cls) {
        ++need.count;
        return;
      }
    }
    needs.push_back(Need{c, cls, 1});
  };

  if (request.has_dst) {
    add_need(dest_home_cluster(context.arch, cluster, context.num_clusters),
             request.dst_cls);
  }

  // Comm-queue needs per source cluster.
  StaticVector<int, kMaxSrcOperands> comm_sources;
  for (std::size_t i = 0; i < request.srcs.size(); ++i) {
    const CommPlanStep plan = step(i);
    if (plan.from_cluster < 0) continue;  // operand already mapped here
    decision.comms.push_back(
        SteerComm{static_cast<std::uint8_t>(i),
                  static_cast<std::uint8_t>(plan.from_cluster)});
    add_need(cluster, request.src_cls[i]);
    comm_sources.push_back(plan.from_cluster);
  }

  for (const Need& need : needs) {
    if (!oracle.regs_obtainable(need.cluster, need.cls, need.count)) {
      if (watch != nullptr) {
        watch->regs[static_cast<std::size_t>(need.cls)] |= bit(need.cluster);
      }
      return false;
    }
  }

  for (std::size_t i = 0; i < comm_sources.size(); ++i) {
    int required = 1;
    for (std::size_t j = 0; j < i; ++j) {
      if (comm_sources[j] == comm_sources[i]) ++required;
    }
    if (oracle.comm_free_entries(comm_sources[i]) < required) {
      if (watch != nullptr) watch->comm |= bit(comm_sources[i]);
      return false;
    }
  }

  decision.stall = false;
  decision.cluster = cluster;
  return true;
}

}  // namespace

bool plan_candidate(const SteerRequest& request, int cluster,
                    const SteerContext& context, SteerDecision& decision) {
  return plan_candidate_impl(
      request, cluster, context,
      [&](std::size_t i) {
        return plan_operand(request.srcs[i], cluster, context);
      },
      decision);
}

bool plan_candidate(const SteerRequest& request, int cluster,
                    const SteerContext& context, const SteerPlanCache& plans,
                    SteerDecision& decision) {
  return plan_candidate_impl(
      request, cluster, context,
      [&](std::size_t i) { return plans.step(i, cluster); }, decision);
}

int longest_comm_distance(const SteerRequest& request, int cluster,
                          const SteerContext& context) {
  int longest = 0;
  for (std::size_t i = 0; i < request.srcs.size(); ++i) {
    longest = std::max(longest,
                       plan_operand(request.srcs[i], cluster, context).distance);
  }
  return longest;
}

int free_reg_score(const SteerRequest& request, int cluster,
                   const SteerContext& context) {
  if (request.has_dst) {
    return context.oracle->free_regs(
        dest_home_cluster(context.arch, cluster, context.num_clusters),
        request.dst_cls);
  }
  return context.oracle->free_regs_total(cluster);
}

}  // namespace ringclu
