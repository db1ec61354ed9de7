#include "core/controls.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridctl::core {

solvers::LsqBackend parse_backend(const std::string& name) {
  if (name == "admm") return solvers::LsqBackend::kAdmm;
  if (name == "active_set") return solvers::LsqBackend::kActiveSet;
  if (name == "condensed") return solvers::LsqBackend::kCondensed;
  throw InvalidArgument("unknown backend '" + name +
                        "' (expected 'admm', 'active_set' or 'condensed')");
}

const char* backend_name(solvers::LsqBackend backend) {
  switch (backend) {
    case solvers::LsqBackend::kAdmm: return "admm";
    case solvers::LsqBackend::kActiveSet: return "active_set";
    case solvers::LsqBackend::kCondensed: return "condensed";
  }
  return "?";
}

std::size_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t end = 0;
  unsigned long long value = 0;
  // std::stoull accepts a sign (and wraps "-1"); a count starts with a
  // digit.
  if (!text.empty() && std::isdigit(static_cast<unsigned char>(text[0]))) {
    try {
      value = std::stoull(text, &end);
    } catch (const std::exception&) {
      end = 0;
    }
  }
  require(end != 0 && end == text.size(),
          format("%s expects a non-negative integer (got '%s')", flag.c_str(),
                 text.c_str()));
  return static_cast<std::size_t>(value);
}

double parse_number(const std::string& flag, const std::string& text) {
  std::size_t end = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &end);
  } catch (const std::exception&) {
    end = 0;
  }
  require(end != 0 && end == text.size() && std::isfinite(value),
          format("%s expects a number (got '%s')", flag.c_str(), text.c_str()));
  return value;
}

bool SolverOverrides::parse_flag(int argc, char** argv, int& i) {
  const std::string arg = argv[i];
  if (arg == "--strict") {
    strict = true;
    return true;
  }
  if (arg == "--no-fallback") {
    fallback = false;
    return true;
  }
  if (arg == "--qp-cap") {
    require(i + 1 < argc, "--qp-cap needs a value");
    max_iterations = parse_count(arg, argv[++i]);
    return true;
  }
  if (arg == "--backend") {
    require(i + 1 < argc, "--backend needs a value");
    backend = parse_backend(argv[++i]);
    return true;
  }
  return false;
}

void SolverOverrides::apply(SolverControls& controls) const {
  if (backend) controls.backend = *backend;
  if (max_iterations) controls.max_iterations = *max_iterations;
  if (fallback) controls.fallback = *fallback;
  if (strict) {
    controls.invariants.enabled = true;
    controls.invariants.strict = true;
  }
}

const char* SolverOverrides::usage() {
  return "                   [--strict]       abort on any invariant "
         "violation\n"
         "                   [--qp-cap N]     cap QP iterations (fault "
         "injection)\n"
         "                   [--no-fallback]  disable the alternate-backend "
         "retry\n"
         "                   [--backend B]    admm | active_set | condensed\n";
}

}  // namespace gridctl::core
