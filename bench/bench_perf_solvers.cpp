// Solver microbenchmarks (google-benchmark): simplex LP, the reference
// optimizer, ADMM QP, active-set QP, matrix exponential and RLS — the
// per-control-period numeric workload of the controller.
#include <benchmark/benchmark.h>

#include "control/reference_optimizer.hpp"
#include "linalg/expm.hpp"
#include "solvers/lp_simplex.hpp"
#include "solvers/qp_active_set.hpp"
#include "solvers/qp_admm.hpp"
#include "solvers/qp_condensed.hpp"
#include "solvers/rls.hpp"
#include "util/random.hpp"

namespace {

using namespace gridctl;
using linalg::Matrix;
using linalg::Vector;

solvers::LpProblem transportation_lp(std::size_t portals, std::size_t idcs,
                                     std::uint64_t seed) {
  Rng rng(seed);
  solvers::LpProblem lp;
  lp.c.resize(portals * idcs);
  for (double& v : lp.c) v = rng.uniform(1.0, 100.0);
  lp.a_eq = Matrix(portals, portals * idcs);
  lp.b_eq.assign(portals, 0.0);
  for (std::size_t i = 0; i < portals; ++i) {
    for (std::size_t j = 0; j < idcs; ++j) lp.a_eq(i, i * idcs + j) = 1.0;
    lp.b_eq[i] = rng.uniform(1e3, 3e4);
  }
  lp.a_ub = Matrix(idcs, portals * idcs);
  lp.b_ub.assign(idcs, 0.0);
  double total = 0.0;
  for (double demand : lp.b_eq) total += demand;
  for (std::size_t j = 0; j < idcs; ++j) {
    for (std::size_t i = 0; i < portals; ++i) lp.a_ub(j, i * idcs + j) = 1.0;
    lp.b_ub[j] = total;  // always feasible
  }
  return lp;
}

void BM_SimplexTransportation(benchmark::State& state) {
  const auto lp = transportation_lp(static_cast<std::size_t>(state.range(0)),
                                    static_cast<std::size_t>(state.range(1)),
                                    42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solvers::solve_lp(lp));
  }
}
BENCHMARK(BM_SimplexTransportation)
    ->Args({5, 3})
    ->Args({10, 10})
    ->Args({20, 20});

// The reference optimizer's transportation problem (paper eq. 46) as the
// controller solves it each tick: the greedy fill, with the vertex split
// below the fleet-scale gate and the product form above it. Args are
// {IDCs, portals}; demand is 60% of the fleet capacity.
control::ReferenceProblem reference_problem(std::size_t idcs,
                                            std::size_t portals,
                                            std::uint64_t seed) {
  Rng rng(seed);
  control::ReferenceProblem problem;
  double capacity = 0.0;
  for (std::size_t j = 0; j < idcs; ++j) {
    datacenter::IdcConfig idc;
    idc.max_servers = static_cast<std::size_t>(rng.uniform_int(5000, 40000));
    idc.power = datacenter::ServerPowerModel{
        units::Watts{150.0}, units::Watts{285.0},
        units::Rps{rng.uniform(1.0, 2.5)}};
    idc.latency_bound_s = units::Seconds{0.001};
    capacity += control::load_cap_for_capacity(idc);
    problem.idcs.push_back(idc);
    problem.prices.push_back(rng.uniform(20.0, 80.0));
  }
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < portals; ++i) {
    problem.portal_demands.push_back(rng.uniform(0.5, 1.5));
    weight_sum += problem.portal_demands.back();
  }
  for (double& demand : problem.portal_demands) {
    demand *= 0.6 * capacity / weight_sum;
  }
  return problem;
}

void BM_SolveReference(benchmark::State& state) {
  const auto problem =
      reference_problem(static_cast<std::size_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(control::solve_reference(problem));
  }
}
BENCHMARK(BM_SolveReference)
    ->Args({3, 5})
    ->Args({12, 41})
    ->Args({50, 200});

solvers::QpProblem random_qp(std::size_t n, std::size_t m,
                             std::uint64_t seed) {
  Rng rng(seed);
  Matrix g(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.normal();
  }
  solvers::QpProblem qp;
  qp.p = g.transpose() * g;
  for (std::size_t i = 0; i < n; ++i) qp.p(i, i) += 1.0;
  qp.q.resize(n);
  for (double& v : qp.q) v = rng.normal();
  qp.a = Matrix(m, n);
  qp.lower.assign(m, -5.0);
  qp.upper.assign(m, 5.0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t j = 0; j < n; ++j) qp.a(r, j) = rng.normal();
  }
  return qp;
}

void BM_QpAdmm(benchmark::State& state) {
  const auto qp = random_qp(static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solvers::solve_qp_admm(qp));
  }
}
BENCHMARK(BM_QpAdmm)->Args({10, 8})->Args({30, 20})->Args({60, 40});

void BM_QpActiveSet(benchmark::State& state) {
  const auto qp = random_qp(static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solvers::solve_qp_active_set(qp));
  }
}
BENCHMARK(BM_QpActiveSet)->Args({10, 8})->Args({30, 20});

// The condensed transport QP: factorization cached outside the loop
// (as the MPC layer does across ticks), cold-started solves inside.
// Args are (portals, idcs, control_horizon).
void BM_QpCondensed(benchmark::State& state) {
  const auto portals = static_cast<std::size_t>(state.range(0));
  const auto idcs = static_cast<std::size_t>(state.range(1));
  const auto beta2 = static_cast<std::size_t>(state.range(2));
  Rng rng(11);

  solvers::TransportQpShape shape;
  shape.portals = portals;
  shape.idcs = idcs;
  shape.prediction = 2 * beta2;
  shape.control = beta2;
  solvers::TransportQpCost cost;
  cost.q.assign(idcs, 1.0);
  cost.slope.resize(idcs);
  cost.y0.resize(idcs);
  for (std::size_t j = 0; j < idcs; ++j) {
    cost.slope[j] = rng.uniform(0.2, 0.6);
    cost.y0[j] = rng.uniform(0.01, 0.05);
  }
  cost.r = 1.0;
  solvers::CondensedQpSolver solver;
  solver.configure(shape, cost);

  Vector u_prev(portals * idcs), demand(portals);
  double total = 0.0;
  for (double& d : demand) {
    d = rng.uniform(1e3, 3e4);
    total += d;
  }
  for (std::size_t i = 0; i < portals; ++i) {
    for (std::size_t j = 0; j < idcs; ++j) {
      u_prev[i * idcs + j] = demand[i] / static_cast<double>(idcs);
    }
  }
  Vector cap_lower(idcs, 0.0), cap_upper(idcs, total);
  std::vector<Vector> references(1, Vector(idcs));
  for (std::size_t j = 0; j < idcs; ++j) {
    references[0][j] =
        cost.slope[j] * total / static_cast<double>(idcs) + cost.y0[j];
  }

  std::uint64_t iterations = 0, solves = 0;
  for (auto _ : state) {
    const auto& res = solver.solve(u_prev, demand, cap_lower, cap_upper,
                                   references, {}, {});
    iterations += res.iterations;
    ++solves;
    benchmark::DoNotOptimize(iterations);
  }
  state.SetLabel("vars=" + std::to_string(portals * idcs * beta2));
  state.counters["iters_per_solve"] =
      solves ? static_cast<double>(iterations) / static_cast<double>(solves)
             : 0.0;
}
BENCHMARK(BM_QpCondensed)
    ->Args({5, 3, 2})
    ->Args({10, 10, 2})
    ->Args({50, 20, 5})
    ->Args({200, 50, 10});

void BM_Expm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal(0.0, 0.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::expm(a));
  }
}
BENCHMARK(BM_Expm)->Arg(4)->Arg(16)->Arg(64);

void BM_RlsUpdate(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  solvers::RecursiveLeastSquares rls(dim, 0.98);
  Rng rng(5);
  Vector phi(dim);
  for (double& v : phi) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rls.update(phi, 1.0));
  }
}
BENCHMARK(BM_RlsUpdate)->Arg(3)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
