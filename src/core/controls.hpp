// The controller's solver/checking knobs, consolidated in one typed
// struct. The same four decisions — which QP backend runs the MPC, how
// many iterations it gets, whether the degradation chain may rescue a
// failed solve, and how strictly decisions are invariant-checked — used
// to be spelled three times: as loose `ControllerParams` fields
// (scenario JSON `controller` block), as ad-hoc example flags
// (`--strict` / `--qp-cap` / `--no-fallback`), and as per-binary
// override code mutating the scenario. `SolverControls` is the single
// definition; `SolverOverrides` is the single command-line layer on top
// of it, shared by the `gridctl sim|serve|plane` subcommands.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "check/types.hpp"
#include "solvers/lsq.hpp"

namespace gridctl::core {

// Everything that decides how one controller instance solves and checks
// a control period. Scenario JSON (`controller` block) populates it;
// CLI overrides layer on top; `CostController` consumes it verbatim.
struct SolverControls {
  // Primary QP backend for the MPC (scenario JSON: "backend").
  solvers::LsqBackend backend = solvers::LsqBackend::kAdmm;
  // Iteration cap for the primary backend; 0 = backend default. Small
  // forced caps are the fault-injection lever for the degradation
  // chain (scenario JSON: "solver_max_iterations").
  std::size_t max_iterations = 0;
  // Retry a failed QP with the alternate backend (degradation tier 1)
  // before holding the last feasible allocation (tier 2) (scenario
  // JSON: "solver_fallback").
  bool fallback = true;
  // Runtime invariant checking of every controller decision; `strict`
  // turns violations into thrown errors (scenario JSON: "invariants").
  check::CheckOptions invariants;
};

// Scenario-JSON backend names <-> enum, shared by the scenario loader
// and the CLI `--backend` flag. `parse_backend` throws InvalidArgument
// on an unknown name (listing the valid ones).
solvers::LsqBackend parse_backend(const std::string& name);
const char* backend_name(solvers::LsqBackend backend);

// Numeric command-line flag values must parse in full: `--qp-cap abc`
// is a usage error, not a silent zero. Both throw InvalidArgument naming
// `flag` on anything else (for counts: a sign, a fraction, trailing
// text; for numbers: trailing text or a non-finite value).
std::size_t parse_count(const std::string& flag, const std::string& text);
double parse_number(const std::string& flag, const std::string& text);

// Command-line overrides layered on top of whatever the scenario JSON
// configured. Unset fields leave the scenario's choice alone.
struct SolverOverrides {
  std::optional<solvers::LsqBackend> backend;
  std::optional<std::size_t> max_iterations;  // --qp-cap
  std::optional<bool> fallback;               // --no-fallback
  bool strict = false;                        // --strict

  // Consume one recognized flag (--backend NAME | --qp-cap N |
  // --no-fallback | --strict) at argv[i], advancing `i` past any value
  // token. Returns false when argv[i] is not a solver flag, leaving the
  // caller's own flag handling to run. Throws InvalidArgument on a
  // recognized flag with a missing or malformed value.
  bool parse_flag(int argc, char** argv, int& i);

  void apply(SolverControls& controls) const;

  // The usage lines for the flags `parse_flag` consumes, for the
  // binaries' --help text.
  static const char* usage();
};

}  // namespace gridctl::core
