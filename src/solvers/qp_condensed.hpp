// Structure-exploiting condensed solver for the transport-structured
// MPC QP (paper eq. 42–45 over the portal→IDC allocation).
//
// The dense path stacks the problem over the move vector ΔU and hands
// an (β2·C·N)-variable QP with dense constraint matrices to the generic
// ADMM solver — O((β2·C·N)³) in the factorization and multi-GB matrices
// at fleet scale (C=200 portals, N=50 IDCs, β2=10 ⇒ 100k variables).
// This solver never materializes any of that. It exploits three
// structural facts of the CostController problem:
//
//  1. The plant is stateless and *separable per IDC*: output j depends
//     on the inputs only through the column sum σ[j] = Σ_i u[i,j]
//     (Y_j = slope_j σ[j] + y0_j).
//  2. In the cumulative variables V_t = Σ_{τ<=t} ΔU_τ = U_t − U_{k-1},
//     every constraint (conservation, per-IDC caps, non-negativity) is
//     per-step separable, and the move penalty becomes V^T (T ⊗ I) V
//     with T the β2×β2 tridiagonal "anchored chain" matrix
//     (diag 2…2,1, off-diag −1).
//  3. The ADMM x-update matrix therefore splits as B + W D̃ Wᵀ, where
//     B is block-tridiagonal over t with blocks in the two-dimensional
//     commutative algebra {a·I + b·(I_C ⊗ 1_N 1_Nᵀ)} (closed under
//     products and inverses since J² = N·J), and W = I_β2 ⊗ 1_C ⊗ I_N
//     is the per-(step, IDC) column-sum map of rank β2·N.
//
// The per-iteration solve is then a block-Thomas sweep with scalar
// 2-component coefficient recurrences (O(β2·C·N)) plus a Woodbury
// correction through the β2N × β2N capacitance K = D̃⁻¹ + Wᵀ B⁻¹ W. K is
// never formed. In IDC-major order it is itself structured:
//
//   K = M + E·G·Eᵀ,  M = blockdiag_j(C·U + diag_t 1/(ρ + 2ĉ_{t,j})),
//                    E = 1_N ⊗ I_β2,  G = C·V,
//
// with U, V the β2×β2 coefficient matrices of B⁻¹ taken from the Jacobi
// eigendecomposition of T. A second Woodbury step gives
//
//   K⁻¹c = M⁻¹c − M⁻¹E·H·EᵀM⁻¹c,  H = G(I + S·G)⁻¹,  S = Σ_j M_j⁻¹,
//
// so the factorization is N blocks M_j⁻¹ and one H, all β2×β2: O(N·β2³)
// to build and O(N·β2²) per iteration. It depends only on the shape,
// weights and penalty parameters, never on per-tick data, so it is
// built ONCE in configure() and reused across every control period
// until the plant or horizons change.
//
// The iteration follows qp_admm.cpp — same splitting, over-relaxation,
// per-row rho (equality rows scaled by rho_eq_scale), residual and
// termination formulas, and primal-infeasibility heuristic — so the two
// backends agree on converged solutions and on failure semantics. One
// difference: ρ adapts inside each solve (OSQP's residual balancing,
// Stellato et al. 2020). Every kRhoAdaptInterval iterations the solver
// forms the balancing ratio
//   (r_p / max(‖Ax‖, ‖z‖)) / (r_d / max(‖Px‖, ‖Aᵀy‖, ‖q‖));
// when it leaves [1/kRhoAdaptTolerance, kRhoAdaptTolerance], the solve
// moves to the ladder rung nearest ρ·√ratio. The ladder is a fixed
// geometric one around the configured ρ and every rung is factored in
// configure(), so a switch costs nothing. Each solve starts on the
// configured ρ, so the solver carries no state from one solve to the
// next. After configure(), solve() performs no heap allocation: every
// buffer lives in a preallocated arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.hpp"
#include "solvers/qp.hpp"
#include "solvers/qp_admm.hpp"
#include "util/thread_annotations.hpp"

namespace gridctl::solvers {

// Problem shape: C portals × N IDCs, horizons β1 (prediction) ≥ β2
// (control). `nonnegative` adds the U >= 0 rows (one per variable).
struct TransportQpShape {
  std::size_t portals = 0;     // C
  std::size_t idcs = 0;        // N
  std::size_t prediction = 0;  // β1
  std::size_t control = 0;     // β2
  bool nonnegative = true;

  std::size_t num_inputs() const { return portals * idcs; }
  std::size_t num_vars() const { return control * num_inputs(); }
  // Condensed dual layout: β2·C equality rows (t-major, portal within),
  // then β2·N cap rows (t-major, IDC within), then β2·C·N non-negativity
  // rows in variable order.
  std::size_t num_rows() const {
    return control * (portals + idcs + (nonnegative ? num_inputs() : 0));
  }
  void validate() const;
};

// Tick-independent cost data: per-IDC tracking weight q_j >= 0, output
// map Y_j = slope_j·σ[j] + y0_j, and the uniform move penalty r >= 0.
struct TransportQpCost {
  linalg::Vector q;      // N
  linalg::Vector slope;  // N
  linalg::Vector y0;     // N
  double r = 0.0;
};

// The ρ ladder: rung k runs at ρ·kRhoLadderStep^(k − kRhoLadderHome),
// k = 0..kRhoLadderRungs−1, so the home rung is the configured ρ and the
// ladder spans two decades either side of it.
inline constexpr std::size_t kRhoLadderHome = 4;
inline constexpr std::size_t kRhoLadderRungs = 2 * kRhoLadderHome + 1;
inline constexpr double kRhoLadderStep = 3.1622776601683795;  // √10
// Residual balancing runs every kRhoAdaptInterval iterations and moves
// only when the balancing ratio leaves [1/kRhoAdaptTolerance,
// kRhoAdaptTolerance].
inline constexpr std::size_t kRhoAdaptInterval = 25;
inline constexpr double kRhoAdaptTolerance = 5.0;

// Everything in the x-update that depends on ρ, for one ladder rung.
struct CondensedRung {
  double rho = 0.0;          // inequality-row ρ; equality rows ρ·rho_eq_scale
  linalg::Vector thomas_ip;  // β2 Schur-inverse identity coefficients
  linalg::Vector thomas_iq;  // β2 Schur-inverse J coefficients
  linalg::Vector minv;       // N row-major β2×β2 blocks M_j⁻¹, IDC order
  linalg::Vector h;          // row-major β2×β2 H = G(I + S·G)⁻¹
};

// The tick-independent factorization configure() produces: the
// per-(step, IDC) Hessian diagonal and one CondensedRung per ladder
// rung. Immutable once built, so many solvers (one per fleet in the
// control plane) can read one instance concurrently through
// shared_ptr<const>.
struct CondensedFactors {
  std::size_t idcs = 0;     // N
  std::size_t control = 0;  // β2
  linalg::Vector chat;      // β2·N Hessian diagonal cnt_t·q_j·slope_j²
  std::vector<CondensedRung> rungs;  // kRhoLadderRungs, ascending ρ

  // w = K⁻¹c for rung `rung`'s capacitance. `c` and `w` are β2·N in the
  // solver's t-major layout (index t·N + j) and must not alias;
  // `scratch` holds 3·β2 doubles. Allocation-free.
  void solve_capacitance(std::size_t rung, const double* c, double* w,
                         double* scratch) const;
};

// Build the factors for every ladder rung, O(N·β2³) each.
// Throws NumericalError when an x-update system is not positive
// definite. configure() validates its arguments before calling this.
std::shared_ptr<const CondensedFactors> build_condensed_factors(
    const TransportQpShape& shape, const TransportQpCost& cost,
    const AdmmOptions& options);

// Process-wide cache of condensed factorizations, keyed by everything
// that enters them: the problem shape, the cost data, and the ADMM
// penalty parameters (rho, rho_eq_scale, sigma). One entry holds the
// whole ρ ladder around its configured rho. Fleets sharing a plant shape
// then pay the configure cost once and share the factor memory.
// Thread-safe; misses compute under the lock (a deliberate trade:
// concurrent first-touch of the *same* key would otherwise duplicate
// the most expensive step).
class CondensedFactorCache {
 public:
  // The cached factors for this key, computed on first request.
  std::shared_ptr<const CondensedFactors> get(const TransportQpShape& shape,
                                              const TransportQpCost& cost,
                                              const AdmmOptions& options);

  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  struct Entry {
    TransportQpShape shape;
    TransportQpCost cost;
    double rho = 0.0;
    double rho_eq_scale = 0.0;
    double sigma = 0.0;
    std::shared_ptr<const CondensedFactors> factors;
  };

  // Linear key match over the cached entries; null when absent. Callers
  // hold mutex_ (get() takes it once and keeps it across the miss
  // compute — see the class comment for why misses stay under the lock).
  const Entry* find_locked(const TransportQpShape& shape,
                           const TransportQpCost& cost,
                           const AdmmOptions& options) const
      GRIDCTL_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::vector<Entry> entries_ GRIDCTL_GUARDED_BY(mutex_);
  std::uint64_t hits_ GRIDCTL_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ GRIDCTL_GUARDED_BY(mutex_) = 0;
};

struct CondensedQpResult {
  QpStatus status = QpStatus::kMaxIterations;
  linalg::Vector delta_u;  // stacked moves ΔU_0..ΔU_{β2-1} (β2·C·N)
  linalg::Vector y;        // dual, condensed row layout (see TransportQpShape)
  linalg::Vector y1;       // first predicted output Y_1 (N)
  double objective = 0.0;  // true least-squares objective (matches lsq.cpp)
  std::size_t iterations = 0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  std::size_t rho_updates = 0;  // ladder switches during this solve
  double rho = 0.0;             // inequality-row ρ the solve ended on
};

class CondensedQpSolver {
 public:
  CondensedQpSolver() = default;

  // Build the factorization and size the arena. O(N·β2³) per ladder
  // rung, once; `options.rho/rho_eq_scale/sigma` enter the cached
  // factors, so a new configure() is needed if they change. Throws
  // InvalidArgument on inconsistent shape/cost sizes. With a non-null
  // `cache` the factors come from (and are inserted into) the shared
  // cache instead of being computed locally — a cache hit makes
  // configure O(arena).
  void configure(const TransportQpShape& shape, const TransportQpCost& cost,
                 const AdmmOptions& options = {},
                 CondensedFactorCache* cache = nullptr);
  bool configured() const { return configured_; }

  const TransportQpShape& shape() const { return shape_; }

  // Solve one control period. All vectors are in the caller's units:
  //   u_prev      (C·N)  previous applied allocation, portal-major
  //   demand      (C)    conservation right-hand side per portal
  //   cap_lower/upper (N) per-IDC load bounds on σ[j] (may be ±inf)
  //   references  r_s[j]; fewer than β1 entries hold the last one
  //   warm_delta_u (β2·C·N or empty) previous stacked-move solution
  //   warm_dual    (num_rows() or empty) previous condensed dual
  //   max_iterations (0 = options default) fault-injection iteration cap
  // Returns a reference to an internally owned result (valid until the
  // next solve). Allocation-free after the first call.
  const CondensedQpResult& solve(const linalg::Vector& u_prev,
                                 const linalg::Vector& demand,
                                 const linalg::Vector& cap_lower,
                                 const linalg::Vector& cap_upper,
                                 const std::vector<linalg::Vector>& references,
                                 const linalg::Vector& warm_delta_u,
                                 const linalg::Vector& warm_dual,
                                 std::size_t max_iterations = 0);

 private:
  // Apply B⁻¹ in place via the block-Thomas sweeps of `rung`, on the
  // portal-uniform β2·N reduced system.
  void solve_b_reduced(const CondensedRung& rung, double* x) const;

  TransportQpShape shape_;
  TransportQpCost cost_;
  AdmmOptions options_;
  bool configured_ = false;

  // The tick-independent factorization (Hessian diagonal ĉ and the ρ
  // ladder's Thomas scalars and nested-Woodbury blocks). Owned via
  // shared_ptr so fleets configured through a CondensedFactorCache share
  // one immutable instance.
  std::shared_ptr<const CondensedFactors> factors_;

  // Arena (sized in configure, reused every solve). zt_ and ax_ only
  // carry the equality + cap sections: the non-negativity rows of A x̃
  // are x̃ itself (A_nn = I) and are consumed in-register by the fused
  // update sweep, never stored.
  linalg::Vector x_, u_;                            // n-sized
  linalg::Vector z_, y_;                            // rows-sized
  linalg::Vector zt_, ax_;                          // β2·(C+N)
  linalg::Vector cvec_, wvec_, capadd_;             // β2·N
  linalg::Vector pl_, caplo_, capup_;               // N
  linalg::Vector beq_;                              // C
  linalg::Vector ghat_;                             // β1·N tracking targets
  linalg::Vector qlin_;                             // β2·N compact linear term
  linalg::Vector kscratch_;                         // 3·β2 capacitance scratch
  CondensedQpResult result_;
};

}  // namespace gridctl::solvers
