// Allocation policies compared in the paper's evaluation.
//
//  - OptimalPolicy: the Rao et al. INFOCOM'10 baseline (the paper's
//    "optimal method"): re-solve the cost LP each period and apply it
//    instantly. Cost-optimal per instant, but steps its power demand.
//  - MpcPolicy: the paper's "control method" wrapped as a policy.
//  - StaticProportionalPolicy: capacity-proportional split, price-blind;
//    the naive baseline used in the ablation benches.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "check/types.hpp"
#include "core/cost_controller.hpp"
#include "datacenter/fleet.hpp"
#include "util/units.hpp"

namespace gridctl::core {

// Everything a policy may observe at one control period. New signals
// (renewable availability, failure masks, deferrable batch queues, price
// previews) extend this struct instead of the virtual `decide` signature,
// so adding one never breaks existing policy implementations.
struct PolicyContext {
  std::size_t step = 0;                       // control period index, 0-based
  units::Seconds time_s;                      // absolute scenario time
  std::vector<units::PricePerMwh> prices;     // per IDC region
  std::vector<units::Rps> portal_demands;     // per portal
};

// Per-decision solver diagnostics, threaded up from MpcResult so the
// sweep engine can aggregate them without knowing the policy type.
// Policies without an inner optimizer leave `PolicyDecision::solver`
// empty.
struct SolverTelemetry {
  solvers::QpStatus status = solvers::QpStatus::kMaxIterations;
  std::size_t iterations = 0;
  bool warm_started = false;
  // How far down the degradation chain this period went (tier 0 = the
  // configured backend converged).
  check::FallbackTier fallback_tier = check::FallbackTier::kNone;
  std::size_t rho_updates = 0;  // condensed ρ-ladder switches
};

struct PolicyDecision {
  datacenter::Allocation allocation{1, 1};
  std::vector<std::size_t> servers;
  std::optional<SolverTelemetry> solver;
  // Invariant-checking outcome for this decision; zero `checks` when the
  // policy does not run the checker (baselines, checking disabled).
  check::InvariantCounts invariants;
  // Battery dispatch (MpcPolicy with storage configured; empty for the
  // baselines): net battery output in watts (positive = discharging) and
  // end-of-period state of charge in joules, per IDC.
  std::vector<double> battery_w;
  std::vector<double> battery_soc_j;
};

// The controller's decision as a PolicyDecision, moving its allocation,
// server and battery vectors (shared by MpcPolicy and the online
// runtime, which drives a CostController directly).
PolicyDecision to_policy_decision(CostController::Decision&& decision);

class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;
  virtual PolicyDecision decide(const PolicyContext& context) = 0;
  virtual std::string name() const = 0;
};

class OptimalPolicy : public AllocationPolicy {
 public:
  OptimalPolicy(std::vector<datacenter::IdcConfig> idcs, std::size_t portals,
                control::CostBasis basis = control::CostBasis::kPowerIntegral);
  PolicyDecision decide(const PolicyContext& context) override;
  std::string name() const override { return "optimal"; }

 private:
  std::vector<datacenter::IdcConfig> idcs_;
  std::size_t portals_;
  control::CostBasis basis_;
};

class MpcPolicy : public AllocationPolicy {
 public:
  explicit MpcPolicy(CostController::Config config);
  PolicyDecision decide(const PolicyContext& context) override;
  std::string name() const override { return "control"; }

  CostController& controller() { return controller_; }

 private:
  CostController controller_;
};

class StaticProportionalPolicy : public AllocationPolicy {
 public:
  StaticProportionalPolicy(std::vector<datacenter::IdcConfig> idcs,
                           std::size_t portals);
  PolicyDecision decide(const PolicyContext& context) override;
  std::string name() const override { return "static"; }

 private:
  std::vector<datacenter::IdcConfig> idcs_;
  std::size_t portals_;
  std::vector<double> shares_;  // capacity fractions
};

}  // namespace gridctl::core
