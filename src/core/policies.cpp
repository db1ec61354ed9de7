#include "core/policies.hpp"

#include "control/reference_optimizer.hpp"
#include "control/sleep_controller.hpp"
#include "util/error.hpp"

namespace gridctl::core {

using datacenter::Allocation;

OptimalPolicy::OptimalPolicy(std::vector<datacenter::IdcConfig> idcs,
                             std::size_t portals, control::CostBasis basis)
    : idcs_(std::move(idcs)), portals_(portals), basis_(basis) {
  require(!idcs_.empty(), "OptimalPolicy: need at least one IDC");
  require(portals_ > 0, "OptimalPolicy: need at least one portal");
}

PolicyDecision OptimalPolicy::decide(const PolicyContext& context) {
  control::ReferenceProblem problem;
  problem.idcs = idcs_;
  // The reference LP lives on the untyped side of the solver boundary.
  problem.prices = units::raw_vector(context.prices);
  problem.portal_demands = units::raw_vector(context.portal_demands);
  problem.basis = basis_;
  // The optimal method knows no budgets (paper Sec. V-C: it violates
  // them); budgets influence only the control method's references.
  const auto solution = control::solve_reference(problem);
  require(solution.feasible, "OptimalPolicy: demand exceeds fleet capacity");
  PolicyDecision result;
  result.allocation = solution.allocation;
  result.servers = solution.servers;
  return result;
}

MpcPolicy::MpcPolicy(CostController::Config config)
    : controller_(std::move(config)) {}

PolicyDecision to_policy_decision(CostController::Decision&& decision) {
  return PolicyDecision{
      std::move(decision.allocation),
      std::move(decision.servers),
      SolverTelemetry{decision.mpc_status, decision.mpc_iterations,
                      decision.mpc_warm_started, decision.fallback_tier,
                      decision.mpc_rho_updates},
      decision.invariants,
      std::move(decision.battery_w),
      std::move(decision.battery_soc_j)};
}

PolicyDecision MpcPolicy::decide(const PolicyContext& context) {
  return to_policy_decision(
      controller_.step(context.prices, context.portal_demands));
}

StaticProportionalPolicy::StaticProportionalPolicy(
    std::vector<datacenter::IdcConfig> idcs, std::size_t portals)
    : idcs_(std::move(idcs)), portals_(portals) {
  require(!idcs_.empty(), "StaticProportionalPolicy: need at least one IDC");
  require(portals_ > 0, "StaticProportionalPolicy: need at least one portal");
  double total = 0.0;
  shares_.resize(idcs_.size());
  for (std::size_t j = 0; j < idcs_.size(); ++j) {
    shares_[j] = idcs_[j].max_capacity().value();
    total += shares_[j];
  }
  require(total > 0.0, "StaticProportionalPolicy: fleet has zero capacity");
  for (double& share : shares_) share /= total;
}

PolicyDecision StaticProportionalPolicy::decide(const PolicyContext& context) {
  require(context.portal_demands.size() == portals_,
          "StaticProportionalPolicy: demand size mismatch");
  Allocation allocation(portals_, idcs_.size());
  for (std::size_t i = 0; i < portals_; ++i) {
    for (std::size_t j = 0; j < idcs_.size(); ++j) {
      allocation.at(i, j) = context.portal_demands[i].value() * shares_[j];
    }
  }
  control::SleepController sleep(idcs_);
  const std::vector<std::size_t> zeros(idcs_.size(), 0);
  PolicyDecision result;
  result.servers = sleep.step(units::raw_vector(allocation.idc_loads()), zeros);
  result.allocation = std::move(allocation);
  return result;
}

}  // namespace gridctl::core
