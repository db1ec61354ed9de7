// Online-runtime tick latency (google-benchmark): the paper scenario
// served through ControlRuntime in free-run mode, reporting p50/p99/max
// control-step wall time from the runtime's own step histogram — the
// numbers that decide how much wall-clock acceleration a replay can
// sustain before missing deadlines. A second family drives a fleet of
// identical scenarios through the multi-fleet ControlPlane and reports
// aggregate ticks/s versus worker count (the plane's scaling shape).
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "admission/plan.hpp"
#include "admission/spec.hpp"
#include "controlplane/control_plane.hpp"
#include "core/paper.hpp"
#include "runtime/control_runtime.hpp"
#include "workload/generators.hpp"

namespace {

using namespace gridctl;

// Conservative percentile from the power-of-two bucket histogram: the
// upper edge of the bucket where the cumulative count crosses q (the
// open-ended last bucket reports the observed max instead).
double percentile_us(const engine::StepTimingHistogram& hist, double q) {
  if (hist.samples == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(hist.samples)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < engine::StepTimingHistogram::kBuckets; ++i) {
    cumulative += hist.counts[i];
    if (cumulative >= target) {
      const double upper = engine::StepTimingHistogram::bucket_upper_us(i);
      return std::isfinite(upper) ? upper : hist.max_us;
    }
  }
  return hist.max_us;
}

void merge(engine::StepTimingHistogram& into,
           const engine::StepTimingHistogram& from) {
  for (std::size_t i = 0; i < engine::StepTimingHistogram::kBuckets; ++i) {
    into.counts[i] += from.counts[i];
  }
  into.samples += from.samples;
  into.total_us += from.total_us;
  if (from.max_us > into.max_us) into.max_us = from.max_us;
}

void BM_RuntimeTick(benchmark::State& state) {
  const bool faulted = state.range(0) != 0;
  core::Scenario scenario = core::paper::smoothing_scenario(/*ts_s=*/units::Seconds{20.0});

  runtime::RuntimeOptions options;  // free run: every tick back-to-back
  options.record_trace = false;
  if (faulted) {
    options.price_faults = {/*drop=*/0.2, /*late=*/0.3, /*max_lateness=*/35.0,
                            /*jitter=*/2.0, /*seed=*/5};
    options.workload_faults = {0.15, 0.0, 0.0, 1.0, 6};
  }

  engine::StepTimingHistogram hist;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    runtime::ControlRuntime service(scenario, options);
    const runtime::RuntimeResult result = service.run();
    benchmark::DoNotOptimize(result.summary.total_cost.value());
    merge(hist, result.telemetry.step_hist);
    steps += result.telemetry.steps;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(steps));  // ticks/s
  state.counters["tick_p50_us"] = percentile_us(hist, 0.50);
  state.counters["tick_p99_us"] = percentile_us(hist, 0.99);
  state.counters["tick_max_us"] = hist.max_us;
  state.counters["tick_mean_us"] = hist.mean_us();
  state.SetLabel(faulted ? "faulted feeds" : "clean feeds");
}

BENCHMARK(BM_RuntimeTick)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Multi-fleet aggregate throughput: N identical paper fleets on the
// condensed backend (so the shared factorization cache engages, as a
// production plane would run) multiplexed over a fixed worker pool.
// items_per_second is the aggregate control-step rate across fleets —
// the plane's headline number; the scaling across the worker axis is
// the acceptance metric (meaningful only on a multi-core host: with
// one CPU the workers serialize and the curve is flat by construction).
void BM_PlaneAggregate(benchmark::State& state) {
  const auto fleets = static_cast<std::size_t>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));

  core::Scenario scenario =
      core::paper::smoothing_scenario(/*ts_s=*/units::Seconds{20.0});
  scenario.controller.solver.backend = solvers::LsqBackend::kCondensed;

  std::uint64_t steps = 0;
  std::uint64_t steals = 0;
  std::uint64_t cache_hits = 0;
  for (auto _ : state) {
    std::vector<controlplane::FleetSpec> specs(fleets);
    for (std::size_t f = 0; f < fleets; ++f) {
      specs[f].id = "fleet-" + std::to_string(f);
      specs[f].scenario = scenario;
      specs[f].options.record_trace = false;
    }
    controlplane::PlaneOptions options;
    options.workers = workers;
    controlplane::ControlPlane plane(std::move(specs), options);
    const controlplane::PlaneReport report = plane.run();
    benchmark::DoNotOptimize(report.fleets.front().result.summary.total_cost
                                 .value());
    steps += report.total_steps();
    steals += report.steals;
    cache_hits += report.factor_cache_hits;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(steps));  // ticks/s
  state.counters["steals"] = static_cast<double>(steals);
  state.counters["factor_cache_hits"] = static_cast<double>(cache_hits);
  state.SetLabel(std::to_string(fleets) + " fleets / " +
                 std::to_string(workers) + " workers");
}

BENCHMARK(BM_PlaneAggregate)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    // The work happens on the plane's own pool; the benchmark thread
    // just joins it, so rate on wall time, not main-thread CPU time.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Admission routing query cost: the per-tick price every fleet pays on
// top of the raw workload source when demand is served through the
// admission front-end's routed views. The plan (routing epochs, token
// ledger, overload scales) is compiled once outside the timing loop —
// as in the plane — so this isolates the hot-path lookups: each
// iteration reads every fleet's full routed portal slice at one control
// tick, cycling through the window. items_per_second is portal-rate
// lookups (plan.num_portals() per iteration: the views partition the
// portal space).
void BM_AdmissionRoute(benchmark::State& state) {
  const auto fleets = static_cast<std::size_t>(state.range(0));
  const auto portals = static_cast<std::size_t>(state.range(1));

  const core::Scenario base =
      core::paper::smoothing_scenario(/*ts_s=*/units::Seconds{20.0});
  const auto source = std::make_shared<workload::ReplicatedWorkload>(
      base.workload, portals);
  admission::AdmissionSpec spec;
  spec.tenants.push_back({"tenant", 1e9, 0.0});
  for (std::size_t p = 0; p < portals; ++p) {
    admission::PortalSpec portal;
    portal.id = "p";
    portal.id += std::to_string(p);
    portal.tenant = "tenant";
    portal.fleet = p % fleets;
    spec.portals.push_back(std::move(portal));
  }
  // One mid-window re-assignment per fleet so the epoch scan is not a
  // single-entry fast path.
  const double mid = base.start_time_s.value() +
                     base.duration_s.value() / 2.0;
  for (std::size_t f = 0; f < fleets; ++f) {
    admission::ReassignmentSpec move;
    move.portal = "p";
    move.portal += std::to_string(f);
    move.fleet = (f + 1) % fleets;
    move.at_time_s = mid;
    spec.reassignments.push_back(std::move(move));
  }
  admission::AdmissionGrid grid;
  grid.start_s = base.start_time_s.value();
  grid.ts_s = base.ts_s.value();
  grid.steps = base.num_steps();
  double capacity = 0.0;
  for (const auto& idc : base.idcs) {
    capacity += static_cast<double>(idc.max_servers) *
                idc.power.service_rate.value();
  }
  const auto plan = std::make_shared<const admission::AdmissionPlan>(
      spec, source, grid, std::vector<double>(fleets, capacity));
  std::vector<admission::RoutedWorkload> views;
  views.reserve(fleets);
  for (std::size_t f = 0; f < fleets; ++f) {
    views.emplace_back(plan, f);
  }

  std::uint64_t tick = 0;
  for (auto _ : state) {
    const double t = grid.start_s +
                     static_cast<double>(tick % grid.steps) * grid.ts_s;
    double total = 0.0;
    for (const admission::RoutedWorkload& view : views) {
      const std::size_t local_portals = view.num_portals();
      for (std::size_t p = 0; p < local_portals; ++p) {
        total += view.rate(p, t);
      }
    }
    benchmark::DoNotOptimize(total);
    ++tick;
  }

  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * portals));
  state.SetLabel(std::to_string(fleets) + " fleets / " +
                 std::to_string(portals) + " portals");
}

BENCHMARK(BM_AdmissionRoute)
    ->Args({8, 200})
    ->Args({32, 1000});

}  // namespace

BENCHMARK_MAIN();
