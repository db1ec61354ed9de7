// Pins the zero-allocation property of the MPC hot paths, condensed
// and dense ADMM: after the first (warm-up) step,
// MpcController::step_into performs no heap allocation. Global operator new/delete are replaced with
// counting versions, so this test lives in its own binary — the
// counters see every allocation in the process.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "control/mpc.hpp"

namespace {

std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gridctl::control {
namespace {

using linalg::Matrix;
using linalg::Vector;

constexpr std::size_t kPortals = 3;
constexpr std::size_t kIdcs = 4;

MpcController make_controller(solvers::LsqBackend backend) {
  MpcPlant plant;
  plant.c_u = Matrix(kIdcs, kPortals * kIdcs);
  for (std::size_t j = 0; j < kIdcs; ++j) {
    for (std::size_t i = 0; i < kPortals; ++i) {
      plant.c_u(j, i * kIdcs + j) = 0.2 + 0.05 * static_cast<double>(j);
    }
  }
  plant.y0.assign(kIdcs, 0.03);
  MpcConfig config;
  config.horizons = MpcHorizons{6, 3};
  config.weights.q.assign(kIdcs, 1.0);
  config.weights.r.assign(kPortals * kIdcs, 0.1);
  config.backend = backend;
  return MpcController(std::move(plant), std::move(config));
}

TEST(MpcAllocation, CondensedStepIsAllocationFreeAfterWarmup) {
  MpcController controller =
      make_controller(solvers::LsqBackend::kCondensed);
  TransportConstraints transport;
  transport.demand.assign(kPortals, 6.0);
  transport.cap_lower.assign(kIdcs, 0.0);
  transport.cap_upper.assign(kIdcs, 10.0);
  controller.set_constraints(transport);
  ASSERT_TRUE(controller.condensed_active());

  MpcStep input;
  input.u_prev.assign(kPortals * kIdcs, 1.5);
  input.references.assign(1, Vector(kIdcs));
  for (std::size_t j = 0; j < kIdcs; ++j) {
    input.references[0][j] = 0.5 + 0.1 * static_cast<double>(j);
  }

  MpcResult result;
  controller.step_into(input, result);  // warm-up: arenas size themselves
  ASSERT_EQ(result.status, solvers::QpStatus::kOptimal);

  // Perturb the tick data in place (no reallocation) the way the
  // runtime loop does, then pin the hot path.
  for (std::size_t k = 0; k < input.u_prev.size(); ++k) {
    input.u_prev[k] = result.u[k];
  }
  input.references[0][1] += 0.05;

  const std::size_t before = g_allocations;
  controller.step_into(input, result);
  const std::size_t during = g_allocations - before;
  ASSERT_EQ(result.status, solvers::QpStatus::kOptimal);
  EXPECT_EQ(during, 0u) << "condensed step_into allocated " << during
                        << " times after warm-up";

  // And it stays allocation-free across further ticks.
  for (int tick = 0; tick < 5; ++tick) {
    for (std::size_t k = 0; k < input.u_prev.size(); ++k) {
      input.u_prev[k] = result.u[k];
    }
    const std::size_t tick_before = g_allocations;
    controller.step_into(input, result);
    EXPECT_EQ(g_allocations - tick_before, 0u) << "tick " << tick;
  }

  // Ticks whose references pull the load onto the first IDC, then the
  // last, against its cap: these solves move along the ρ ladder, and
  // switching rungs must not allocate either.
  std::size_t rho_updates = 0;
  for (int tick = 0; tick < 8; ++tick) {
    for (std::size_t k = 0; k < input.u_prev.size(); ++k) {
      input.u_prev[k] = result.u[k];
    }
    for (std::size_t j = 0; j < kIdcs; ++j) {
      const std::size_t pulled = tick % 2 == 0 ? 0 : kIdcs - 1;
      input.references[0][j] = j == pulled ? 5.0 : 0.1;
    }
    const std::size_t tick_before = g_allocations;
    controller.step_into(input, result);
    EXPECT_EQ(g_allocations - tick_before, 0u) << "switching tick " << tick;
    EXPECT_EQ(result.status, solvers::QpStatus::kOptimal);
    rho_updates += result.rho_updates;
  }
  EXPECT_GT(rho_updates, 0u);
}

TransportConstraints transport_constraints(double demand) {
  TransportConstraints transport;
  transport.demand.assign(kPortals, demand);
  transport.cap_lower.assign(kIdcs, 0.0);
  transport.cap_upper.assign(kIdcs, 10.0);
  return transport;
}

// The default dense ADMM backend, as the paper fleet runs it: the first
// step factors the KKT matrix and sizes every arena; later steps, with
// a new u_prev and new references each period, reuse both.
TEST(MpcAllocation, DenseStepIsAllocationFreeAfterWarmup) {
  for (const bool structured : {false, true}) {
    SCOPED_TRACE(structured ? "materialized TransportConstraints"
                            : "dense InputConstraints");
    MpcController controller = make_controller(solvers::LsqBackend::kAdmm);
    if (structured) {
      controller.set_constraints(transport_constraints(6.0));
    } else {
      controller.set_constraints(transport_constraints(6.0).materialize());
    }
    ASSERT_FALSE(controller.condensed_active());

    MpcStep input;
    input.u_prev.assign(kPortals * kIdcs, 1.5);
    input.references.assign(3, Vector(kIdcs));
    MpcResult result;
    for (int tick = 0; tick < 12; ++tick) {
      if (tick > 0) {
        for (std::size_t k = 0; k < input.u_prev.size(); ++k) {
          input.u_prev[k] = result.u[k];
        }
      }
      for (std::size_t s = 0; s < input.references.size(); ++s) {
        for (std::size_t j = 0; j < kIdcs; ++j) {
          input.references[s][j] = 0.5 + 0.1 * static_cast<double>(j) +
                                   0.03 * static_cast<double>((tick + s) % 5);
        }
      }
      if (structured) {
        // The runtime loop re-installs the transport constraints every
        // period with the live demand; the copy into set_constraints is
        // the caller's, the re-materialization is the step's.
        controller.set_constraints(
            transport_constraints(6.0 + 0.1 * static_cast<double>(tick % 3)));
      }
      const std::size_t before = g_allocations;
      controller.step_into(input, result);
      const std::size_t during = g_allocations - before;
      ASSERT_EQ(result.status, solvers::QpStatus::kOptimal) << "tick " << tick;
      ASSERT_FALSE(result.used_fallback_backend) << "tick " << tick;
      if (tick == 0) {
        EXPECT_GT(during, 0u) << "the warm-up step sizes the arenas";
      } else {
        EXPECT_EQ(during, 0u) << "dense step_into allocated " << during
                              << " times at tick " << tick;
      }
    }
  }
}

TEST(MpcAllocation, CountersSeeAllocations) {
  // Sanity-check the instrumentation itself.
  const std::size_t before = g_allocations;
  auto* v = new Vector(128);
  EXPECT_GT(g_allocations, before);
  delete v;
}

}  // namespace
}  // namespace gridctl::control
