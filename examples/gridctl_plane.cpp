// gridctl_plane — run many online control fleets on one worker pool
// through the multi-fleet control plane (src/controlplane).
//
//   gridctl_plane [scenario.json ...] [--fleets N] [--workers N]
//                 [--batch N] [--stop-after N] [--report out.json]
//                 [--strict] [--qp-cap N] [--no-fallback] [--backend B]
//
// Each positional scenario file declares a fleet template; `--fleets N`
// replicates the templates round-robin until N fleets exist (default:
// one fleet per template; with no files, the built-in paper smoothing
// scenario). All fleets free-run concurrently on `--workers` threads
// with a shared condensed-factorization cache, so homogeneous fleets
// pay the MPC configure cost once. The final report is the plane JSON
// (`--report`): a SweepReport-compatible `sweep` section plus per-fleet
// runtime stats under `plane`.
//
// Admission front-end: a scenario file may carry an `admission` block
// (tenants/portals/reassignments — see core/scenario_io.hpp), or the
// CLI synthesizes one: `--portals N` fans the template workload out to
// N portals (total demand preserved) routed round-robin over the
// fleets, `--tenants K` shares them over K tenants whose quotas are
// `--quota-headroom` times their offered rate at the window start, and
// `--reassign P:F:T` moves portal P to fleet F at absolute time T
// (repeatable — the live mid-run handoff). With admission on, traces
// are recorded and the plane audits that every portal's demand landed
// on exactly one fleet per tick.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "admission/spec.hpp"
#include "controlplane/control_plane.hpp"
#include "core/controls.hpp"
#include "core/paper.hpp"
#include "core/scenario_io.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "workload/generators.hpp"

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: gridctl_plane [scenario.json ...]\n"
      "                     [--fleets N]       total fleets (templates "
      "replicated round-robin)\n"
      "                     [--workers N]      worker threads (default: "
      "hardware)\n"
      "                     [--batch N]        events per scheduling quantum "
      "(default 64)\n"
      "                     [--stop-after N]   stop every fleet (resumably) "
      "at step N\n"
      "                     [--portals N]      fan the workload out to N "
      "admission portals\n"
      "                     [--tenants K]      share portals over K quota'd "
      "tenants (default 1)\n"
      "                     [--quota-headroom X] tenant quota = X x offered "
      "rate (default 1.25)\n"
      "                     [--reassign P:F:T] move portal P to fleet F at "
      "time T (repeatable)\n"
      "%s"
      "                     [--report out.json] plane report (SweepReport-"
      "compatible)\n",
      gridctl::core::SolverOverrides::usage());
}

// "P:F:T" -> a scheduled portal re-assignment (portal index, fleet
// index, absolute scenario time). Throws InvalidArgument on malformed
// input.
gridctl::admission::ReassignmentSpec parse_reassign(const std::string& text) {
  const std::size_t first = text.find(':');
  const std::size_t second =
      first == std::string::npos ? std::string::npos
                                 : text.find(':', first + 1);
  gridctl::require(second != std::string::npos,
                   gridctl::format("--reassign expects PORTAL:FLEET:TIME_S "
                                   "(got '%s')",
                                   text.c_str()));
  gridctl::admission::ReassignmentSpec move;
  move.portal = gridctl::format(
      "p%zu", gridctl::core::parse_count("--reassign", text.substr(0, first)));
  move.fleet = gridctl::core::parse_count(
      "--reassign", text.substr(first + 1, second - first - 1));
  move.at_time_s =
      gridctl::core::parse_number("--reassign", text.substr(second + 1));
  return move;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gridctl;

  std::vector<std::string> scenario_paths;
  std::string report_path;
  std::size_t num_fleets = 0;
  std::uint64_t stop_after = 0;
  std::size_t num_portals = 0;
  std::size_t num_tenants = 0;
  double quota_headroom = 1.25;
  std::vector<admission::ReassignmentSpec> reassigns;
  controlplane::PlaneOptions plane_options;
  core::SolverOverrides solver;

  // A recognized flag with a malformed value throws InvalidArgument;
  // bad flags report through stderr with the usage text, never a crash.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (solver.parse_flag(argc, argv, i)) {
        continue;
      } else if (arg == "--fleets" && i + 1 < argc) {
        num_fleets = core::parse_count(arg, argv[++i]);
      } else if (arg == "--workers" && i + 1 < argc) {
        plane_options.workers = core::parse_count(arg, argv[++i]);
      } else if (arg == "--batch" && i + 1 < argc) {
        plane_options.batch_events = core::parse_count(arg, argv[++i]);
      } else if (arg == "--stop-after" && i + 1 < argc) {
        stop_after = core::parse_count(arg, argv[++i]);
      } else if (arg == "--portals" && i + 1 < argc) {
        num_portals = core::parse_count(arg, argv[++i]);
      } else if (arg == "--tenants" && i + 1 < argc) {
        num_tenants = core::parse_count(arg, argv[++i]);
      } else if (arg == "--quota-headroom" && i + 1 < argc) {
        quota_headroom = core::parse_number(arg, argv[++i]);
      } else if (arg == "--reassign" && i + 1 < argc) {
        reassigns.push_back(parse_reassign(argv[++i]));
      } else if (arg == "--report" && i + 1 < argc) {
        report_path = argv[++i];
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

  try {
    std::vector<core::Scenario> templates;
    std::vector<std::string> names;
    if (scenario_paths.empty()) {
      templates.push_back(core::paper::smoothing_scenario());
      names.push_back("paper-smoothing");
    } else {
      for (const std::string& path : scenario_paths) {
        templates.push_back(core::load_scenario_file(path));
        names.push_back(path);
      }
    }
    for (core::Scenario& scenario : templates) {
      solver.apply(scenario.controller.solver);
    }
    if (num_fleets == 0) num_fleets = templates.size();

    // Synthesize an admission block from the CLI knobs: the template
    // workload fans out to `--portals` portals (aggregate preserved)
    // routed round-robin over the fleets, shared across `--tenants`
    // tenants with quota = headroom x offered rate at the window start.
    // Every fleet then shares one workload source, as admission routing
    // requires.
    const bool synthesize =
        num_portals > 0 || num_tenants > 0 || !reassigns.empty();
    if (synthesize) {
      core::Scenario& base = templates.front();
      std::shared_ptr<const workload::WorkloadSource> source = base.workload;
      if (num_portals > 0 && num_portals != source->num_portals()) {
        source = std::make_shared<workload::ReplicatedWorkload>(source,
                                                                num_portals);
      }
      const std::size_t portals = source->num_portals();
      if (num_tenants == 0) num_tenants = 1;

      admission::AdmissionSpec spec;
      const std::vector<double> initial =
          source->rates(base.start_time_s.value());
      std::vector<double> tenant_offered(num_tenants, 0.0);
      for (std::size_t p = 0; p < portals; ++p) {
        tenant_offered[p % num_tenants] += initial[p];
      }
      for (std::size_t t = 0; t < num_tenants; ++t) {
        admission::TenantSpec tenant;
        tenant.id = "t" + std::to_string(t);
        tenant.quota_rps = std::max(quota_headroom * tenant_offered[t], 1.0);
        tenant.burst_s = base.ts_s.value();
        spec.tenants.push_back(std::move(tenant));
      }
      for (std::size_t p = 0; p < portals; ++p) {
        admission::PortalSpec portal;
        portal.id = "p" + std::to_string(p);
        portal.tenant = "t" + std::to_string(p % num_tenants);
        portal.fleet = p % num_fleets;
        spec.portals.push_back(std::move(portal));
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

    std::vector<controlplane::FleetSpec> specs;
    specs.reserve(num_fleets);
    for (std::size_t f = 0; f < num_fleets; ++f) {
      controlplane::FleetSpec spec;
      spec.id = "fleet-" + std::to_string(f);
      spec.scenario = templates[f % templates.size()];
      // The exactly-once routing audit needs the per-portal traces.
      spec.options.record_trace = admission_on;
      spec.options.stop_after_step = stop_after;
      specs.push_back(std::move(spec));
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
    std::printf("plane    : %llu steps over %.1f ms -> %.0f ticks/s "
                "aggregate\n",
                static_cast<unsigned long long>(steps), report.wall_s * 1e3,
                report.wall_s > 0.0 ? static_cast<double>(steps) /
                                          report.wall_s
                                    : 0.0);
    std::printf("cache    : %llu factorization hits, %llu misses\n",
                static_cast<unsigned long long>(report.factor_cache_hits),
                static_cast<unsigned long long>(report.factor_cache_misses));
    std::printf("steals   : %llu\n",
                static_cast<unsigned long long>(report.steals));
    if (report.admission) {
      const auto& plan = *report.admission;
      const auto& acct = plan.accounting();
      std::printf("admission: %zu portals, %zu tenants, %zu reassignments; "
                  "shed %.2f%% of offered demand\n",
                  plan.num_portals(), plan.num_tenants(),
                  plan.num_reassignments(), acct.shed_fraction() * 100.0);
      std::printf("tiers    : %llu nominal, %llu quota-limited, %llu "
                  "overloaded ticks\n",
                  static_cast<unsigned long long>(acct.nominal_ticks),
                  static_cast<unsigned long long>(acct.quota_limited_ticks),
                  static_cast<unsigned long long>(acct.overloaded_ticks));
      std::printf("routing  : exactly-once %s\n",
                  !report.admission_verified
                      ? "not audited (failed fleet or faulted feeds)"
                  : report.admission_route_violations == 0
                      ? "verified, 0 violations"
                      : format("VIOLATED (%llu findings)",
                               static_cast<unsigned long long>(
                                   report.admission_route_violations))
                            .c_str());
    }
    std::printf("cost     : $%.2f across %zu fleets (%zu failed)\n",
                total_cost, report.fleets.size(), report.failed_fleets());

    if (!report_path.empty()) {
      write_json_file(report_path, report.to_json());
      std::printf("report   : %s\n", report_path.c_str());
    }
    if (report.failed_fleets() > 0) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
