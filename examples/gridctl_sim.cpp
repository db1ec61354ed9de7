// gridctl_sim — run any JSON-described scenario from the command line.
//
//   gridctl_sim <scenario.json> [--policy control|optimal|static|all]
//               [--csv out.csv] [--report out.json] [--threads N]
//               [--no-warm-start] [--strict] [--qp-cap N] [--no-fallback]
//
// Runs through the sweep engine: `--policy all` executes the three stock
// policies concurrently, `--report` dumps the SweepReport JSON (per-run
// telemetry: phase wall-clock, QP iterations/status, warm-start hit
// rate, step-timing histogram). Prints each run's summary (cost, energy,
// per-IDC peaks and volatility, budget compliance) and optionally dumps
// the per-step trace as CSV. With no arguments, runs the built-in paper
// smoothing scenario.
#include <cstdio>
#include <string>
#include <vector>

#include "core/controls.hpp"
#include "core/paper.hpp"
#include "core/scenario_io.hpp"
#include "engine/sweep.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace {

// `--help` prints to stdout (exit 0); argument errors print to stderr
// so `gridctl_sim ... | tool` pipelines never parse usage text as data.
void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: gridctl_sim [scenario.json]\n"
      "                   [--policy control|optimal|static|all]\n"
      "                   [--csv out.csv] [--report out.json] [--threads N]\n"
      "                   [--no-warm-start]\n"
      "%s"
      "                   [--units-check]  re-integrate the trace through "
      "the typed\n"
      "                                    units layer and cross-check the "
      "summary\n",
      gridctl::core::SolverOverrides::usage());
}

void print_summary(const gridctl::core::Scenario& scenario,
                   const gridctl::engine::JobResult& job) {
  using namespace gridctl;
  const auto& summary = job.summary;
  std::printf("policy   : %s\n", summary.policy.c_str());
  std::printf("cost     : $%.2f\n", summary.total_cost.value());
  std::printf("energy   : %.3f MWh\n", units::as_mwh(summary.total_energy));
  std::printf("overload : %.1f s\n", summary.overload_time.value());
  for (std::size_t j = 0; j < summary.idcs.size(); ++j) {
    const auto& idc = summary.idcs[j];
    std::printf(
        "  idc %zu (%s): peak %.3f MW, mean |dP| %.4f MW/step, "
        "cost $%.2f%s\n",
        j, scenario.idcs[j].name.empty() ? "?" : scenario.idcs[j].name.c_str(),
        units::watts_to_mw(idc.peak_power.value()),
        units::watts_to_mw(idc.volatility.mean_abs_step.value()),
        idc.cost.value(),
        idc.budget.violations
            ? (" — " + std::to_string(idc.budget.violations) +
               " budget violations")
                  .c_str()
            : "");
  }
  const auto& telemetry = job.telemetry;
  std::printf("run      : %.1f ms (policy %.1f ms), %zu steps",
              telemetry.total_s * 1e3, telemetry.policy_s * 1e3,
              telemetry.steps);
  if (telemetry.solver_calls > 0) {
    std::printf(", %.0f QP iters/step, warm-start %.0f%%",
                telemetry.mean_solver_iterations(),
                telemetry.warm_start_hit_rate() * 100.0);
  }
  std::printf("\n");
  if (telemetry.invariants.checks > 0 || telemetry.fallback_backend_retries ||
      telemetry.fallback_holds) {
    std::printf("checks   : %llu invariant checks, %llu violations",
                static_cast<unsigned long long>(telemetry.invariants.checks),
                static_cast<unsigned long long>(telemetry.invariants.total()));
    if (telemetry.fallback_backend_retries || telemetry.fallback_holds) {
      std::printf("; fallbacks: %llu backend retries, %llu holds",
                  static_cast<unsigned long long>(
                      telemetry.fallback_backend_retries),
                  static_cast<unsigned long long>(telemetry.fallback_holds));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gridctl;

  std::string scenario_path;
  std::string policy_name = "control";
  std::string csv_path;
  std::string report_path;
  std::size_t threads = 0;
  bool warm_start = true;
  bool units_check = false;
  core::SolverOverrides solver;
  // A recognized flag with a malformed value throws InvalidArgument;
  // bad flags report through stderr with the usage text, never a crash.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (solver.parse_flag(argc, argv, i)) {
        continue;
      } else if (arg == "--policy" && i + 1 < argc) {
        policy_name = argv[++i];
      } else if (arg == "--csv" && i + 1 < argc) {
        csv_path = argv[++i];
      } else if (arg == "--report" && i + 1 < argc) {
        report_path = argv[++i];
      } else if (arg == "--threads" && i + 1 < argc) {
        threads = core::parse_count(arg, argv[++i]);
      } else if (arg == "--no-warm-start") {
        warm_start = false;
      } else if (arg == "--units-check") {
        units_check = true;
      } else if (arg == "--help" || arg == "-h") {
        print_usage(stdout);
        return 0;
      } else if (!arg.empty() && arg[0] != '-') {
        scenario_path = arg;
      } else {
        std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
        print_usage(stderr);
        return 2;
      }
    }
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(stderr);
    return 2;
  }

  try {
    core::Scenario scenario =
        scenario_path.empty() ? core::paper::smoothing_scenario()
                              : core::load_scenario_file(scenario_path);
    // The CLI solver flags override whatever the scenario configured.
    solver.apply(scenario.controller.solver);

    std::vector<std::string> policies;
    if (policy_name == "all") {
      policies = {"control", "optimal", "static"};
    } else {
      policies = {policy_name};
    }

    std::vector<engine::SweepJob> jobs;
    for (const std::string& name : policies) {
      engine::SweepJob job;
      job.name = name;
      job.scenario = scenario;
      if (name == "control") {
        job.policy = engine::control_policy();
      } else if (name == "optimal") {
        job.policy = engine::optimal_policy();
      } else if (name == "static") {
        job.policy = engine::static_policy();
      } else {
        std::fprintf(stderr, "unknown policy '%s'\n", name.c_str());
        return 2;
      }
      job.options.warm_start = warm_start;
      job.options.record_trace = !csv_path.empty() || units_check;
      jobs.push_back(std::move(job));
    }

    const engine::SweepReport report = engine::SweepRunner(threads).run(jobs);

    std::printf("scenario : %s\n",
                scenario_path.empty() ? "<built-in paper smoothing>"
                                      : scenario_path.c_str());
    std::printf("window   : %.0f s at Ts = %.1f s (%zu steps)\n",
                scenario.duration_s.value(), scenario.ts_s.value(),
                scenario.num_steps());
    bool failed = false;
    for (const engine::JobResult& job : report.jobs) {
      if (report.jobs.size() > 1) std::printf("--\n");
      if (!job.ok) {
        std::fprintf(stderr, "error (%s): %s\n", job.name.c_str(),
                     job.error.c_str());
        failed = true;
        continue;
      }
      print_summary(scenario, job);
      if (units_check && job.trace) {
        const auto check = core::check_units(*job.trace, job.summary);
        std::printf("units    : %s\n", check.verdict.c_str());
        if (!check.ok) {
          std::fprintf(stderr, "units-check failed (%s): %s\n",
                       job.name.c_str(), check.detail.c_str());
          failed = true;
        }
      }
      if (!csv_path.empty() && job.trace) {
        // With multiple policies each trace gets a policy-suffixed file.
        std::string path = csv_path;
        if (report.jobs.size() > 1) {
          const std::size_t dot = path.rfind('.');
          const std::string suffix = "_" + job.summary.policy;
          if (dot == std::string::npos) {
            path += suffix;
          } else {
            path.insert(dot, suffix);
          }
        }
        write_csv_file(path, job.trace->to_csv());
        std::printf("trace    : %s\n", path.c_str());
      }
    }
    if (!report_path.empty()) {
      write_json_file(report_path, report.to_json());
      std::printf("report   : %s\n", report_path.c_str());
    }
    if (failed) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
