// gridctl_serve — run a scenario through the online control runtime:
// replay an LMP trace (or any JSON scenario) against the two-time-scale
// controller as a live event-driven service instead of a batch loop.
//
//   gridctl_serve [scenario.json] [--accel X] [--strict]
//                 [--report out.json] [--csv out.csv]
//                 [--checkpoint file] [--resume file] [--stop-after N]
//                 [--drop P] [--late P] [--lateness S] [--jitter S]
//                 [--seed N] [--deadline-ms X] [--degrade] [--progress N]
//
// `--accel 10000` replays 10 000 event-seconds per wall second (0 =
// free run). A live report line prints every `--progress` steps; the
// final report is SweepReport-compatible JSON (`--report`), so the
// bench/analysis tooling reads a served run and a swept run the same
// way. `--stop-after N` stops resumably at step N and `--checkpoint`
// persists the full runtime state; a later `--resume` continues
// bit-identically (same final cost/trace as an uninterrupted run).
#include <cstdio>
#include <memory>
#include <string>

#include "check/types.hpp"
#include "core/controls.hpp"
#include "core/paper.hpp"
#include "core/scenario_io.hpp"
#include "engine/sweep.hpp"
#include "runtime/control_runtime.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: gridctl_serve [scenario.json]\n"
      "                     [--accel X]        event-seconds per wall second "
      "(default 10000, 0 = free run)\n"
      "%s"
      "                     [--report out.json] final SweepReport-compatible "
      "JSON\n"
      "                     [--csv out.csv]    per-step trace\n"
      "                     [--checkpoint f]   save runtime state on exit\n"
      "                     [--resume f]       restore runtime state first\n"
      "                     [--stop-after N]   stop (resumably) at step N\n"
      "                     [--drop P]         per-tick drop probability\n"
      "                     [--late P]         per-tick lateness probability\n"
      "                     [--lateness S]     max lateness, event seconds\n"
      "                     [--jitter S]       arrival jitter, event seconds\n"
      "                     [--seed N]         fault-injection seed\n"
      "                     [--deadline-ms X]  per-step wall budget override\n"
      "                     [--degrade]        hold-last-feasible after a "
      "missed deadline\n"
      "                     [--progress N]     live report every N steps "
      "(default 10)\n"
      "                     [--units-check]    re-integrate the trace "
      "through the typed\n"
      "                                        units layer and cross-check "
      "the summary\n",
      gridctl::core::SolverOverrides::usage());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gridctl;

  std::string scenario_path;
  std::string report_path;
  std::string csv_path;
  std::string checkpoint_path;
  std::string resume_path;
  runtime::RuntimeOptions options;
  options.acceleration = 10000.0;
  options.progress_every = 10;
  bool units_check = false;
  core::SolverOverrides solver;
  runtime::FaultSpec faults;

  // A recognized flag with a malformed value throws InvalidArgument;
  // bad flags report through stderr with the usage text, never a crash.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (solver.parse_flag(argc, argv, i)) {
        continue;
      } else if (arg == "--accel" && i + 1 < argc) {
        options.acceleration = core::parse_number(arg, argv[++i]);
      } else if (arg == "--report" && i + 1 < argc) {
        report_path = argv[++i];
      } else if (arg == "--csv" && i + 1 < argc) {
        csv_path = argv[++i];
      } else if (arg == "--checkpoint" && i + 1 < argc) {
        checkpoint_path = argv[++i];
      } else if (arg == "--resume" && i + 1 < argc) {
        resume_path = argv[++i];
      } else if (arg == "--stop-after" && i + 1 < argc) {
        options.stop_after_step = core::parse_count(arg, argv[++i]);
      } else if (arg == "--drop" && i + 1 < argc) {
        faults.drop_probability = core::parse_number(arg, argv[++i]);
      } else if (arg == "--late" && i + 1 < argc) {
        faults.late_probability = core::parse_number(arg, argv[++i]);
      } else if (arg == "--lateness" && i + 1 < argc) {
        faults.max_lateness_s = core::parse_number(arg, argv[++i]);
      } else if (arg == "--jitter" && i + 1 < argc) {
        faults.jitter_s = core::parse_number(arg, argv[++i]);
      } else if (arg == "--seed" && i + 1 < argc) {
        faults.seed = core::parse_count(arg, argv[++i]);
      } else if (arg == "--deadline-ms" && i + 1 < argc) {
        options.deadline_s = core::parse_number(arg, argv[++i]) * 1e-3;
      } else if (arg == "--degrade") {
        options.degrade_on_deadline_miss = true;
      } else if (arg == "--units-check") {
        units_check = true;
      } else if (arg == "--progress" && i + 1 < argc) {
        options.progress_every = core::parse_count(arg, argv[++i]);
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
  options.price_faults = faults;
  // Decorrelate the two feeds while keeping one --seed knob.
  options.workload_faults = faults;
  options.workload_faults.seed = faults.seed + 1;

  try {
    core::Scenario scenario =
        scenario_path.empty() ? core::paper::smoothing_scenario()
                              : core::load_scenario_file(scenario_path);
    solver.apply(scenario.controller.solver);
    options.record_trace = !csv_path.empty() || units_check;

    options.on_progress = [](const runtime::Progress& p) {
      std::printf(
          "[%5llu/%llu] t=%7.0fs  power %7.3f MW  cost $%10.2f  "
          "lag %6.1f ms  miss %llu  degraded %llu  dropped %llu  "
          "violations %llu\n",
          static_cast<unsigned long long>(p.step),
          static_cast<unsigned long long>(p.total_steps), p.event_time_s,
          units::watts_to_mw(p.total_power_w), p.cumulative_cost,
          p.lag_s * 1e3, static_cast<unsigned long long>(p.deadline_misses),
          static_cast<unsigned long long>(p.degraded_steps),
          static_cast<unsigned long long>(p.dropped_ticks),
          static_cast<unsigned long long>(p.invariant_violations));
      std::fflush(stdout);
    };

    std::printf("scenario : %s\n",
                scenario_path.empty() ? "<built-in paper smoothing>"
                                      : scenario_path.c_str());
    std::printf("window   : %.0f s at Ts = %.1f s (%zu steps), %s\n",
                scenario.duration_s.value(), scenario.ts_s.value(),
                scenario.num_steps(),
                options.acceleration > 0.0
                    ? (std::to_string(static_cast<long long>(
                           options.acceleration)) +
                       "x wall speed")
                          .c_str()
                    : "free run");

    std::unique_ptr<runtime::ControlRuntime> service;
    if (!resume_path.empty()) {
      const auto checkpoint = runtime::load_checkpoint(resume_path);
      std::printf("resume   : %s (step %llu)\n", resume_path.c_str(),
                  static_cast<unsigned long long>(checkpoint.next_step));
      service = std::make_unique<runtime::ControlRuntime>(scenario, options,
                                                          checkpoint);
    } else {
      service = std::make_unique<runtime::ControlRuntime>(scenario, options);
    }

    const runtime::RuntimeResult result = service->run();

    const auto& summary = result.summary;
    const auto& stats = result.stats;
    std::printf("%s\n", result.completed ? "completed" : "stopped (resumable)");
    std::printf("cost     : $%.2f\n", summary.total_cost.value());
    std::printf("energy   : %.3f MWh\n", units::as_mwh(summary.total_energy));
    for (std::size_t j = 0; j < summary.idcs.size(); ++j) {
      std::printf("  idc %zu (%s): peak %.3f MW, cost $%.2f\n", j,
                  scenario.idcs[j].name.empty() ? "?"
                                                : scenario.idcs[j].name.c_str(),
                  units::watts_to_mw(summary.idcs[j].peak_power.value()),
                  summary.idcs[j].cost.value());
    }
    std::printf(
        "feeds    : %llu price + %llu workload ticks, %llu dropped, "
        "%llu late, %llu stale-price steps\n",
        static_cast<unsigned long long>(stats.price_ticks),
        static_cast<unsigned long long>(stats.workload_ticks),
        static_cast<unsigned long long>(stats.dropped_ticks),
        static_cast<unsigned long long>(stats.late_ticks),
        static_cast<unsigned long long>(stats.stale_price_steps));
    std::printf(
        "clock    : %llu deadline misses, %llu degraded steps, "
        "max lag %.1f ms, step p~ %.0f us mean / %.0f us max\n",
        static_cast<unsigned long long>(stats.deadline_misses),
        static_cast<unsigned long long>(stats.degraded_steps),
        stats.max_lag_s * 1e3, result.telemetry.step_hist.mean_us(),
        result.telemetry.step_hist.max_us);
    std::printf("checks   : %llu invariant checks, %llu violations\n",
                static_cast<unsigned long long>(
                    result.telemetry.invariants.checks),
                static_cast<unsigned long long>(
                    result.telemetry.invariants.total()));
    if (units_check && result.trace) {
      const auto check = core::check_units(*result.trace, summary);
      std::printf("units    : %s\n", check.verdict.c_str());
      if (!check.ok) {
        std::fprintf(stderr, "units-check failed: %s\n", check.detail.c_str());
        return 1;
      }
    }

    if (!checkpoint_path.empty()) {
      runtime::save_checkpoint(checkpoint_path, service->checkpoint());
      std::printf("checkpoint: %s\n", checkpoint_path.c_str());
    }
    if (!csv_path.empty() && result.trace) {
      write_csv_file(csv_path, result.trace->to_csv());
      std::printf("trace    : %s\n", csv_path.c_str());
    }
    if (!report_path.empty()) {
      // One-job SweepReport so served runs and swept runs share a
      // report schema; the runtime's own stats ride alongside.
      engine::SweepReport report;
      report.threads = 1;
      report.wall_s = result.telemetry.total_s;
      engine::JobResult job;
      job.name = "serve/control";
      job.policy = summary.policy;
      job.ok = true;
      job.summary = summary;
      job.telemetry = result.telemetry;
      job.trace = result.trace;
      report.jobs.push_back(std::move(job));
      JsonValue::Object root;
      root.emplace("sweep", report.to_json());
      root.emplace("runtime", stats.to_json());
      write_json_file(report_path, JsonValue(std::move(root)));
      std::printf("report   : %s\n", report_path.c_str());
    }
  } catch (const check::InvariantViolationError& e) {
    std::fprintf(stderr, "invariant violation (strict): %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
