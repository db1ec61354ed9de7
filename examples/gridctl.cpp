// gridctl — the command-line front end: three subcommands over the same
// two-time-scale controller (one core::ClosedLoop step per period).
//
//   gridctl sim   [scenario.json]      batch run through the sweep engine
//   gridctl serve [scenario.json]      online, event-driven control runtime
//   gridctl plane [scenario.json ...]  many online fleets on one worker pool
//
// With no scenario file each runs the built-in paper smoothing scenario;
// `plane` treats every file as a fleet template, replicated round-robin
// up to `--fleets`. All three take the core::SolverOverrides flags over
// what the scenario configured, and every `--report` is SweepReport-
// compatible JSON. `--help` prints the usage on stdout (exit 0); a bad
// flag prints it on stderr (exit 2), so `gridctl ... | tool` pipelines
// never parse usage text as data; a runtime error exits 1.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "admission/spec.hpp"
#include "check/types.hpp"
#include "controlplane/control_plane.hpp"
#include "core/controls.hpp"
#include "core/paper.hpp"
#include "core/scenario_io.hpp"
#include "engine/sweep.hpp"
#include "runtime/control_runtime.hpp"
#include "runtime/job_result.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "workload/generators.hpp"

namespace {

using namespace gridctl;

unsigned long long ull(std::uint64_t v) { return v; }

// One subcommand flag: `value` names its argument (null for a switch),
// and `set` stores it, throwing InvalidArgument when malformed.
struct FlagSpec {
  const char* name;
  const char* value;
  const char* help;
  std::function<void(const char*)> set;
};

FlagSpec text(const char* name, const char* value, const char* help,
              std::string& out) {
  return {name, value, help, [&out](const char* v) { out = v; }};
}
template <typename T>
FlagSpec count(const char* name, const char* help, T& out) {
  return {name, "N", help,
          [name, &out](const char* v) { out = core::parse_count(name, v); }};
}
FlagSpec number(const char* name, const char* value, const char* help,
                double& out) {
  return {name, value, help,
          [name, &out](const char* v) { out = core::parse_number(name, v); }};
}
FlagSpec toggle(const char* name, const char* help, bool& out,
                bool to = true) {
  return {name, nullptr, help, [&out, to](const char*) { out = to; }};
}

// What every subcommand shares: the flag loop and its usage text, the
// solver overrides and the positional scenario paths.
struct Cli {
  Cli(const char* name, const char* positional, std::vector<FlagSpec> flags)
      : name(name), positional(positional), flags(std::move(flags)) {}

  const char* name;
  const char* positional;
  std::vector<FlagSpec> flags;
  core::SolverOverrides solver;
  std::vector<std::string> scenario_paths;

  void print_usage(std::FILE* out) const {
    std::fprintf(out, "usage: gridctl %s %s\n", name, positional);
    for (const FlagSpec& flag : flags) {
      const std::string synopsis =
          flag.value ? format("[%s %s]", flag.name, flag.value)
                     : format("[%s]", flag.name);
      std::fprintf(out, "                   %-16s %s\n", synopsis.c_str(),
                   flag.help);
    }
    std::fputs(core::SolverOverrides::usage(), out);
  }

  // Runs the flag loop over argv[2..]: the solver flags, the
  // subcommand's own, --help, then positional scenario paths. Returns
  // the exit status when the command ends here.
  std::optional<int> parse(int argc, char** argv) {
    try {
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (solver.parse_flag(argc, argv, i)) continue;
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&](const FlagSpec& f) { return arg == f.name; });
        if (flag != flags.end() && (!flag->value || i + 1 < argc)) {
          flag->set(flag->value ? argv[++i] : nullptr);
        } else if (arg == "--help" || arg == "-h") {
          print_usage(stdout);
          return 0;
        } else if (!arg.empty() && arg[0] != '-') {
          scenario_paths.push_back(arg);
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
    return std::nullopt;
  }

  // sim and serve run the last positional path ("" = built-in).
  std::string scenario_path() const {
    return scenario_paths.empty() ? std::string() : scenario_paths.back();
  }

  // The scenario at `path` (the built-in paper smoothing scenario when
  // empty) with the solver flags applied over what it configured.
  core::Scenario load(const std::string& path) const {
    core::Scenario scenario = path.empty()
                                  ? core::paper::smoothing_scenario()
                                  : core::load_scenario_file(path);
    solver.apply(scenario.controller.solver);
    return scenario;
  }
};

// A subcommand body: a runtime error exits 1 with its message on stderr.
template <typename Body>
int guarded(Body body) {
  try {
    return body();
  } catch (const check::InvariantViolationError& e) {
    std::fprintf(stderr, "invariant violation (strict): %s\n", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  return 1;
}

void print_header(const std::string& path, const core::Scenario& scenario,
                  const std::string& pace = "") {
  std::printf("scenario : %s\n",
              path.empty() ? "<built-in paper smoothing>" : path.c_str());
  std::printf("window   : %.0f s at Ts = %.1f s (%zu steps)%s\n",
              scenario.duration_s.value(), scenario.ts_s.value(),
              scenario.num_steps(), pace.c_str());
}

void print_cost(const core::SimulationSummary& summary) {
  std::printf("cost     : $%.2f\n", summary.total_cost.value());
  std::printf("energy   : %.3f MWh\n", units::as_mwh(summary.total_energy));
}

// One line per IDC; `detail` adds the volatility and budget columns.
void print_idcs(const core::Scenario& scenario,
                const core::SimulationSummary& summary, bool detail) {
  for (std::size_t j = 0; j < summary.idcs.size(); ++j) {
    const auto& idc = summary.idcs[j];
    const std::string& name = scenario.idcs[j].name;
    std::printf("  idc %zu (%s): peak %.3f MW", j,
                name.empty() ? "?" : name.c_str(),
                units::watts_to_mw(idc.peak_power.value()));
    if (detail) {
      std::printf(", mean |dP| %.4f MW/step",
                  units::watts_to_mw(idc.volatility.mean_abs_step.value()));
    }
    std::printf(", cost $%.2f", idc.cost.value());
    if (detail && idc.budget.violations) {
      std::printf(" — %zu budget violations", idc.budget.violations);
    }
    std::printf("\n");
  }
}

// Prints the typed-units verdict; false (with the detail on stderr,
// after `label`) when the re-integration disagrees with the summary.
bool units_ok(const core::SimulationTrace& trace,
              const core::SimulationSummary& summary,
              const std::string& label) {
  const auto check = core::check_units(trace, summary);
  std::printf("units    : %s\n", check.verdict.c_str());
  if (!check.ok) {
    std::fprintf(stderr, "units-check failed%s: %s\n", label.c_str(),
                 check.detail.c_str());
  }
  return check.ok;
}

void write_report(const std::string& path, const JsonValue& report) {
  write_json_file(path, report);
  std::printf("report   : %s\n", path.c_str());
}

// ---- sim --------------------------------------------------------------

void print_run(const engine::RunTelemetry& telemetry) {
  std::printf("run      : %.1f ms (policy %.1f ms), %zu steps",
              telemetry.total_s * 1e3, telemetry.policy_s * 1e3,
              telemetry.steps);
  if (telemetry.solver_calls > 0) {
    std::printf(", %.0f QP iters/step, warm-start %.0f%%",
                telemetry.mean_solver_iterations(),
                telemetry.warm_start_hit_rate() * 100.0);
  }
  std::printf("\n");
  const bool fallbacks =
      telemetry.fallback_backend_retries || telemetry.fallback_holds;
  if (telemetry.invariants.checks > 0 || fallbacks) {
    std::printf("checks   : %llu invariant checks, %llu violations",
                ull(telemetry.invariants.checks),
                ull(telemetry.invariants.total()));
    if (fallbacks) {
      std::printf("; fallbacks: %llu backend retries, %llu holds",
                  ull(telemetry.fallback_backend_retries),
                  ull(telemetry.fallback_holds));
    }
    std::printf("\n");
  }
}

// `--policy all` runs the three stock policies concurrently on the
// sweep engine; each trace then gets a policy-suffixed CSV file.
int run_sim(int argc, char** argv) {
  std::string policy_name = "control";
  std::string csv_path;
  std::string report_path;
  std::size_t threads = 0;
  bool warm_start = true;
  bool units_check = false;
  Cli cli{"sim",
          "[scenario.json]",
          {text("--policy", "P",
                "control | optimal | static | all (default control)",
                policy_name),
           text("--csv", "out.csv",
                "per-step trace (policy-suffixed under --policy all)",
                csv_path),
           text("--report", "out.json", "SweepReport JSON", report_path),
           count("--threads", "sweep threads (default: hardware)", threads),
           toggle("--no-warm-start", "start the controller cold", warm_start,
                  false),
           toggle("--units-check",
                  "re-integrate the trace through the typed units layer",
                  units_check)}};
  if (const auto exit = cli.parse(argc, argv)) return *exit;

  return guarded([&] {
    const std::string scenario_path = cli.scenario_path();
    const core::Scenario scenario = cli.load(scenario_path);
    const std::vector<std::string> policies =
        policy_name == "all"
            ? std::vector<std::string>{"control", "optimal", "static"}
            : std::vector<std::string>{policy_name};

    std::vector<engine::SweepJob> jobs;
    for (const std::string& name : policies) {
      engine::SweepJob job;
      job.name = name;
      job.scenario = scenario;
      job.policy = name == "control"   ? engine::control_policy()
                   : name == "optimal" ? engine::optimal_policy()
                   : name == "static"  ? engine::static_policy()
                                       : nullptr;
      if (!job.policy) {
        std::fprintf(stderr, "unknown policy '%s'\n", name.c_str());
        return 2;
      }
      job.options.warm_start = warm_start;
      job.options.record_trace = !csv_path.empty() || units_check;
      jobs.push_back(std::move(job));
    }

    const engine::SweepReport report = engine::SweepRunner(threads).run(jobs);

    print_header(scenario_path, scenario);
    bool failed = false;
    for (const engine::JobResult& job : report.jobs) {
      if (report.jobs.size() > 1) std::printf("--\n");
      if (!job.ok) {
        std::fprintf(stderr, "error (%s): %s\n", job.name.c_str(),
                     job.error.c_str());
        failed = true;
        continue;
      }
      std::printf("policy   : %s\n", job.summary.policy.c_str());
      print_cost(job.summary);
      std::printf("overload : %.1f s\n", job.summary.overload_time.value());
      print_idcs(scenario, job.summary, /*detail=*/true);
      print_run(job.telemetry);
      if (units_check && job.trace &&
          !units_ok(*job.trace, job.summary, " (" + job.name + ")")) {
        failed = true;
      }
      if (!csv_path.empty() && job.trace) {
        std::string path = csv_path;
        if (report.jobs.size() > 1) {
          const std::size_t dot = path.rfind('.');
          path.insert(dot == std::string::npos ? path.size() : dot,
                      "_" + job.summary.policy);
        }
        write_csv_file(path, job.trace->to_csv());
        std::printf("trace    : %s\n", path.c_str());
      }
    }
    if (!report_path.empty()) write_report(report_path, report.to_json());
    return failed ? 1 : 0;
  });
}

// ---- serve ------------------------------------------------------------

// Replays the scenario's feeds against the online runtime at `--accel`
// event-seconds per wall second (0 = free run), with a live report line
// every `--progress` steps. `--stop-after N` stops resumably at step N,
// `--checkpoint` persists the runtime state and a later `--resume`
// continues bit-identically.
int run_serve(int argc, char** argv) {
  std::string report_path;
  std::string csv_path;
  std::string checkpoint_path;
  std::string resume_path;
  runtime::RuntimeOptions options;
  options.acceleration = 10000.0;
  options.progress_every = 10;
  double deadline_ms = 0.0;  // 0 = the runtime derives the deadline
  bool units_check = false;
  runtime::FaultSpec faults;
  Cli cli{"serve",
          "[scenario.json]",
          {number("--accel", "X",
                  "event-seconds per wall second (default 10000, 0 = free "
                  "run)",
                  options.acceleration),
           text("--report", "out.json", "SweepReport JSON", report_path),
           text("--csv", "out.csv", "per-step trace", csv_path),
           text("--checkpoint", "f", "save runtime state on exit",
                checkpoint_path),
           text("--resume", "f", "restore runtime state first", resume_path),
           count("--stop-after", "stop (resumably) at step N",
                 options.stop_after_step),
           number("--drop", "P", "per-tick drop probability",
                  faults.drop_probability),
           number("--late", "P", "per-tick lateness probability",
                  faults.late_probability),
           number("--lateness", "S", "max lateness, event seconds",
                  faults.max_lateness_s),
           number("--jitter", "S", "arrival jitter, event seconds",
                  faults.jitter_s),
           count("--seed", "fault-injection seed", faults.seed),
           number("--deadline-ms", "X", "per-step wall budget override",
                  deadline_ms),
           toggle("--degrade", "hold-last-feasible after a missed deadline",
                  options.degrade_on_deadline_miss),
           count("--progress", "live report every N steps (default 10)",
                 options.progress_every),
           toggle("--units-check",
                  "re-integrate the trace through the typed units layer",
                  units_check)}};
  if (const auto exit = cli.parse(argc, argv)) return *exit;
  options.deadline_s = deadline_ms * 1e-3;
  options.price_faults = faults;
  // Decorrelate the two feeds while keeping one --seed knob.
  options.workload_faults = faults;
  options.workload_faults.seed = faults.seed + 1;

  return guarded([&] {
    const std::string scenario_path = cli.scenario_path();
    const core::Scenario scenario = cli.load(scenario_path);
    options.record_trace = !csv_path.empty() || units_check;
    options.on_progress = [](const runtime::Progress& p) {
      std::printf(
          "[%5llu/%llu] t=%7.0fs  power %7.3f MW  cost $%10.2f  "
          "lag %6.1f ms  miss %llu  degraded %llu  dropped %llu  "
          "violations %llu\n",
          ull(p.step), ull(p.total_steps), p.event_time_s,
          units::watts_to_mw(p.total_power_w), p.cumulative_cost,
          p.lag_s * 1e3, ull(p.deadline_misses), ull(p.degraded_steps),
          ull(p.dropped_ticks), ull(p.invariant_violations));
      std::fflush(stdout);
    };
    print_header(scenario_path, scenario,
                 options.acceleration > 0.0
                     ? format(", %lldx wall speed",
                              static_cast<long long>(options.acceleration))
                     : ", free run");

    std::unique_ptr<runtime::ControlRuntime> service;
    if (!resume_path.empty()) {
      const auto checkpoint = runtime::load_checkpoint(resume_path);
      std::printf("resume   : %s (step %llu)\n", resume_path.c_str(),
                  ull(checkpoint.next_step));
      service = std::make_unique<runtime::ControlRuntime>(scenario, options,
                                                          checkpoint);
    } else {
      service = std::make_unique<runtime::ControlRuntime>(scenario, options);
    }
    const runtime::RuntimeResult result = service->run();

    const auto& stats = result.stats;
    std::printf("%s\n", result.completed ? "completed" : "stopped (resumable)");
    print_cost(result.summary);
    print_idcs(scenario, result.summary, /*detail=*/false);
    std::printf(
        "feeds    : %llu price + %llu workload ticks, %llu dropped, "
        "%llu late, %llu stale-price steps\n",
        ull(stats.price_ticks), ull(stats.workload_ticks),
        ull(stats.dropped_ticks), ull(stats.late_ticks),
        ull(stats.stale_price_steps));
    std::printf(
        "clock    : %llu deadline misses, %llu degraded steps, "
        "max lag %.1f ms, step p~ %.0f us mean / %.0f us max\n",
        ull(stats.deadline_misses), ull(stats.degraded_steps),
        stats.max_lag_s * 1e3, result.telemetry.step_hist.mean_us(),
        result.telemetry.step_hist.max_us);
    std::printf("checks   : %llu invariant checks, %llu violations\n",
                ull(result.telemetry.invariants.checks),
                ull(result.telemetry.invariants.total()));
    if (units_check && result.trace &&
        !units_ok(*result.trace, result.summary, "")) {
      return 1;
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
      // A one-job SweepReport; the runtime's own stats ride alongside.
      engine::SweepReport report;
      report.threads = 1;
      report.wall_s = result.telemetry.total_s;
      report.jobs.push_back(runtime::to_job_result("serve/control", result));
      JsonValue::Object root;
      root.emplace("sweep", report.to_json());
      root.emplace("runtime", stats.to_json());
      write_report(report_path, JsonValue(std::move(root)));
    }
    return 0;
  });
}

// ---- plane ------------------------------------------------------------

// "P:F:T" -> a scheduled portal re-assignment (portal index, fleet
// index, absolute scenario time). Throws InvalidArgument on malformed
// input.
admission::ReassignmentSpec parse_reassign(const std::string& text) {
  const std::size_t first = text.find(':');
  const std::size_t second =
      first == std::string::npos ? std::string::npos
                                 : text.find(':', first + 1);
  require(second != std::string::npos,
          format("--reassign expects PORTAL:FLEET:TIME_S (got '%s')",
                 text.c_str()));
  admission::ReassignmentSpec move;
  move.portal =
      format("p%zu", core::parse_count("--reassign", text.substr(0, first)));
  move.fleet = core::parse_count("--reassign",
                                 text.substr(first + 1, second - first - 1));
  move.at_time_s = core::parse_number("--reassign", text.substr(second + 1));
  return move;
}

// All fleets free-run on `--workers` threads sharing one condensed-
// factorization cache. Admission comes from the first template's
// `admission` block (see core/scenario_io.hpp) or is synthesized from
// `--portals`, `--tenants`, `--quota-headroom` and `--reassign`; with
// it on, the plane audits that every portal's demand landed on exactly
// one fleet per tick.
int run_plane(int argc, char** argv) {
  std::string report_path;
  std::size_t num_fleets = 0;
  std::uint64_t stop_after = 0;
  std::size_t num_portals = 0;
  std::size_t num_tenants = 0;
  double quota_headroom = 1.25;
  std::vector<admission::ReassignmentSpec> reassigns;
  controlplane::PlaneOptions plane_options;
  Cli cli{"plane",
          "[scenario.json ...]",
          {count("--fleets", "total fleets (templates replicated round-robin)",
                 num_fleets),
           count("--workers", "worker threads (default: hardware)",
                 plane_options.workers),
           count("--batch", "events per scheduling quantum (default 64)",
                 plane_options.batch_events),
           count("--stop-after", "stop every fleet (resumably) at step N",
                 stop_after),
           count("--portals", "fan the workload out to N admission portals",
                 num_portals),
           count("--tenants",
                 "share portals over N quota'd tenants (default 1)",
                 num_tenants),
           number("--quota-headroom", "X",
                  "tenant quota = X x offered rate (default 1.25)",
                  quota_headroom),
           {"--reassign", "P:F:T",
            "move portal P to fleet F at time T (repeatable)",
            [&](const char* v) { reassigns.push_back(parse_reassign(v)); }},
           text("--report", "out.json", "plane report (SweepReport-compatible)",
                report_path)}};
  if (const auto exit = cli.parse(argc, argv)) return *exit;

  return guarded([&] {
    std::vector<core::Scenario> templates;
    for (const std::string& path : cli.scenario_paths) {
      templates.push_back(cli.load(path));
    }
    if (templates.empty()) templates.push_back(cli.load(""));
    if (num_fleets == 0) num_fleets = templates.size();

    // The synthesized admission block: the template workload fans out to
    // `--portals` portals (aggregate preserved) routed round-robin over
    // the fleets, shared across `--tenants` tenants with quota =
    // headroom x offered rate at the window start. Every fleet then
    // shares one workload source, as admission routing requires.
    const bool synthesize =
        num_portals > 0 || num_tenants > 0 || !reassigns.empty();
    if (synthesize) {
      const core::Scenario& base = templates.front();
      std::shared_ptr<const workload::WorkloadSource> source = base.workload;
      if (num_portals > 0 && num_portals != source->num_portals()) {
        source = std::make_shared<workload::ReplicatedWorkload>(source,
                                                                num_portals);
      }
      const std::size_t portals = source->num_portals();
      const std::size_t tenants = std::max<std::size_t>(num_tenants, 1);
      admission::AdmissionSpec spec;
      const std::vector<double> initial =
          source->rates(base.start_time_s.value());
      std::vector<double> offered(tenants, 0.0);
      for (std::size_t p = 0; p < portals; ++p) {
        offered[p % tenants] += initial[p];
      }
      for (std::size_t t = 0; t < tenants; ++t) {
        spec.tenants.push_back({"t" + std::to_string(t),
                                std::max(quota_headroom * offered[t], 1.0),
                                base.ts_s.value()});
      }
      for (std::size_t p = 0; p < portals; ++p) {
        spec.portals.push_back({"p" + std::to_string(p),
                                "t" + std::to_string(p % tenants),
                                p % num_fleets});
      }
      spec.reassignments = reassigns;
      for (core::Scenario& scenario : templates) {
        scenario.workload = source;
        scenario.admission = admission::AdmissionSpec{};
      }
      plane_options.admission = std::move(spec);
    }
    const bool admission_on =
        synthesize || templates.front().admission.enabled();

    std::vector<controlplane::FleetSpec> specs(num_fleets);
    for (std::size_t f = 0; f < num_fleets; ++f) {
      specs[f].id = "fleet-" + std::to_string(f);
      specs[f].scenario = templates[f % templates.size()];
      // The exactly-once routing audit needs the per-portal traces.
      specs[f].options.record_trace = admission_on;
      specs[f].options.stop_after_step = stop_after;
    }
    controlplane::ControlPlane plane(std::move(specs), plane_options);
    std::printf("fleets   : %zu (%zu template%s), %zu workers\n", num_fleets,
                templates.size(), templates.size() == 1 ? "" : "s",
                plane.workers());
    const controlplane::PlaneReport report = plane.run();

    double total_cost = 0.0;
    for (const controlplane::FleetResult& fleet : report.fleets) {
      if (!fleet.ok) {
        std::fprintf(stderr, "error (%s): %s\n", fleet.id.c_str(),
                     fleet.error.c_str());
        continue;
      }
      total_cost += fleet.result.summary.total_cost.value();
      if (report.fleets.size() <= 8) {
        std::printf("  %s: %s, cost $%.2f, %zu steps\n", fleet.id.c_str(),
                    fleet.result.completed ? "completed" : "stopped",
                    fleet.result.summary.total_cost.value(),
                    fleet.result.telemetry.steps);
      }
    }
    const std::uint64_t steps = report.total_steps();
    std::printf(
        "plane    : %llu steps over %.1f ms -> %.0f ticks/s aggregate\n",
        ull(steps), report.wall_s * 1e3,
        report.wall_s > 0.0 ? static_cast<double>(steps) / report.wall_s
                            : 0.0);
    std::printf("cache    : %llu factorization hits, %llu misses\n",
                ull(report.factor_cache_hits), ull(report.factor_cache_misses));
    std::printf("steals   : %llu\n", ull(report.steals));
    if (report.admission) {
      const auto& plan = *report.admission;
      const auto& acct = plan.accounting();
      std::printf("admission: %zu portals, %zu tenants, %zu reassignments; "
                  "shed %.2f%% of offered demand\n",
                  plan.num_portals(), plan.num_tenants(),
                  plan.num_reassignments(), acct.shed_fraction() * 100.0);
      std::printf(
          "tiers    : %llu nominal, %llu quota-limited, %llu overloaded "
          "ticks\n",
          ull(acct.nominal_ticks), ull(acct.quota_limited_ticks),
          ull(acct.overloaded_ticks));
      std::printf("routing  : exactly-once %s\n",
                  !report.admission_verified
                      ? "not audited (failed fleet or faulted feeds)"
                  : report.admission_route_violations == 0
                      ? "verified, 0 violations"
                      : format("VIOLATED (%llu findings)",
                               ull(report.admission_route_violations))
                            .c_str());
    }
    std::printf("cost     : $%.2f across %zu fleets (%zu failed)\n",
                total_cost, report.fleets.size(), report.failed_fleets());
    if (!report_path.empty()) write_report(report_path, report.to_json());
    return report.failed_fleets() > 0 ? 1 : 0;
  });
}

// ---- dispatch ---------------------------------------------------------

struct Command {
  const char* name;
  int (*run)(int argc, char** argv);
  const char* summary;
};

constexpr Command kCommands[] = {
    {"sim", run_sim, "batch run of one scenario through the sweep engine"},
    {"serve", run_serve, "one fleet through the online control runtime"},
    {"plane", run_plane, "many online fleets on one worker pool"},
};

void print_usage(std::FILE* out) {
  std::fprintf(out, "usage: gridctl <command> [args]\n");
  for (const Command& command : kCommands) {
    std::fprintf(out, "  %-6s %s\n", command.name, command.summary);
  }
  std::fprintf(out, "'gridctl <command> --help' lists a command's flags\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string name = argv[1];
    if (name == "--help" || name == "-h") {
      print_usage(stdout);
      return 0;
    }
    for (const Command& command : kCommands) {
      if (name == command.name) return command.run(argc, argv);
    }
    std::fprintf(stderr, "unknown command '%s'\n", name.c_str());
  }
  print_usage(stderr);
  return 2;
}
