#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "admission/plan.hpp"
#include "controlplane/control_plane.hpp"
#include "core/paper.hpp"
#include "core/policies.hpp"
#include "core/simulation.hpp"
#include "generators.hpp"
#include "market/regions.hpp"
#include "replay.hpp"
#include "runtime/fleet_session.hpp"
#include "stats.hpp"
#include "util/json.hpp"

namespace gridbench {

namespace core = gridctl::core;
namespace runtime = gridctl::runtime;
namespace controlplane = gridctl::controlplane;
namespace admission = gridctl::admission;
namespace units = gridctl::units;
namespace util = gridctl::util;

namespace {

// ---------------------------------------------------------------------
// Quality of one closed-loop trajectory: the paper's three outcomes.

struct Quality {
  double cost_usd = 0.0;
  // Root mean square over ticks of the per-IDC power steps,
  // sqrt(mean_k sum_j dP_j(k)^2): the paper's smoothing target is the
  // MW-scale step in each IDC's demand, and the MPC's move penalty is
  // quadratic in it. A mean |dP| is the path length of the trajectory,
  // which a smooth ramp and a single jump to the same level share, so
  // it is printed beside (per IDC and fleet-total) but cannot show
  // smoothing.
  double volatility_mw = 0.0;
  double mean_abs_step_mw = 0.0;        // mean_k sum_j |dP_j(k)|
  double total_mean_abs_step_mw = 0.0;  // mean_k |dP_total(k)|
  double over_budget_mwh = 0.0;
};

// Over rows 1..ticks of `total_power_w` / `power_w` (row 0 is the warm
// start). `cost_usd` is left to the caller.
Quality trace_quality(const std::vector<double>& total_power_w,
                      const std::vector<std::vector<double>>& power_w,
                      const std::vector<units::Watts>& budgets, double ts_s,
                      std::size_t ticks) {
  Quality q;
  double squares = 0.0;
  double idc_path = 0.0;
  double total_path = 0.0;
  double excess_j = 0.0;
  for (std::size_t k = 1; k <= ticks; ++k) {
    total_path += std::abs(total_power_w[k] - total_power_w[k - 1]);
    for (std::size_t j = 0; j < power_w.size(); ++j) {
      const double step = power_w[j][k] - power_w[j][k - 1];
      squares += step * step;
      idc_path += std::abs(step);
      if (j < budgets.size()) {
        excess_j += std::max(0.0, power_w[j][k] - budgets[j].value()) * ts_s;
      }
    }
  }
  const double n = static_cast<double>(ticks);
  q.volatility_mw = std::sqrt(squares / n) / 1e6;
  q.mean_abs_step_mw = idc_path / n / 1e6;
  q.total_mean_abs_step_mw = total_path / n / 1e6;
  q.over_budget_mwh = excess_j / 3.6e9;
  return q;
}

void add_quality(Result& result, const Quality& q) {
  result.add("cost_usd", q.cost_usd, "USD");
  result.add("volatility_mw", q.volatility_mw, "MW");
  result.add("over_budget_mwh", q.over_budget_mwh, "MWh");
  result.add("mean_abs_step_mw", q.mean_abs_step_mw, "MW", false);
  result.add("total_mean_abs_step_mw", q.total_mean_abs_step_mw, "MW", false);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_tick_metrics(Result& result, const std::vector<double>& tick_s,
                      double ticks_per_s) {
  const TickQuantiles q = tick_quantiles(tick_s);
  result.add("ticks_per_s", ticks_per_s, "1/s");
  result.add("tick_p50_ms", q.p50 * 1e3, "ms");
  result.add("tick_tail_ms", q.tail * 1e3, "ms");
  result.add("tick_tail_percentile", q.tail_percentile, "%", false);
  result.add("tick_samples", static_cast<double>(q.samples), "count", false);
  result.add("tick_samples_beyond_tail", static_cast<double>(q.beyond),
             "count", false);
}

// Inputs of set-up repetition `r`. Set-up time depends on the inputs
// (the first period's QP starts cold; on fleet_walk it ranges over 3x
// across seeds), so setup_s is the median over the same fixed inputs
// at every run seed and compares builds, not seeds.
std::uint64_t setup_seed(std::size_t r) { return hash_keys(0, 5, r, 0); }

// ---------------------------------------------------------------------
// Scenario generators. Fleet shapes are fixed per workload; only the
// time series (prices, demand noise) come from the seed.

constexpr double kHour = 3600.0;

core::Scenario paper_day_scenario(std::uint64_t seed) {
  core::Scenario s = core::paper::shaving_scenario();
  s.start_time_s = units::Seconds{6.0 * kHour};
  s.duration_s = units::Seconds{24.0 * kHour};
  const TickGrid grid{s.start_time_s.value(), s.ts_s.value()};
  s.prices = std::make_shared<PerturbedTracePrice>(
      gridctl::market::paper_region_traces(), grid, /*sigma=*/1.5, seed);
  // Table I rates swing +/-15 % over the day (peak at 14H), with +/-2 %
  // per-tick noise: the fleet stays under its 125 k req/s capacity.
  s.workload = std::make_shared<NoisyDiurnalWorkload>(
      core::paper::kPortalDemands, 0.15, 14.0, 0.02, grid, seed);
  s.controller.r_weight = 3.0;
  s.controller.predict_workload = true;
  s.controller.ar_order = 3;
  s.controller.reference_trajectory = true;
  return s;
}

std::vector<gridctl::datacenter::IdcConfig> synthetic_idcs(std::size_t n) {
  static constexpr double kRates[4] = {1.25, 1.5, 1.75, 2.0};
  std::vector<gridctl::datacenter::IdcConfig> idcs(n);
  for (std::size_t j = 0; j < n; ++j) {
    idcs[j].name = "idc" + std::to_string(j);
    idcs[j].region = j;
    idcs[j].max_servers = 6000 + 1000 * (j % 5);
    idcs[j].power.idle_w = units::Watts{core::paper::kIdleW};
    idcs[j].power.peak_w = units::Watts{core::paper::kPeakW};
    idcs[j].power.service_rate = units::Rps{kRates[j % 4]};
    idcs[j].latency_bound_s = units::Seconds{core::paper::kLatencyBound};
  }
  return idcs;
}

// Budgets on every `every`-th IDC at `share` of its all-on power; the
// rest unconstrained.
std::vector<units::Watts> partial_budgets(
    const std::vector<gridctl::datacenter::IdcConfig>& idcs, std::size_t every,
    double share) {
  std::vector<units::Watts> budgets;
  for (std::size_t j = 0; j < idcs.size(); ++j) {
    const double full = static_cast<double>(idcs[j].max_servers) *
                        idcs[j].power.peak_w.value();
    budgets.push_back(units::Watts{
        j % every == 0 ? share * full
                       : std::numeric_limits<double>::infinity()});
  }
  return budgets;
}

// Regional base prices spread over a realistic LMP range.
std::vector<double> base_prices(std::size_t regions) {
  std::vector<double> base(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    base[r] = 25.0 + 30.0 * static_cast<double>((r * 7) % 11) / 10.0;
  }
  return base;
}

constexpr std::size_t kWalkIdcs = 50;
constexpr std::size_t kWalkPortals = 200;
constexpr std::size_t kWalkWindow = 2000;

core::Scenario fleet_walk_scenario(std::uint64_t seed) {
  core::Scenario s;
  s.idcs = synthetic_idcs(kWalkIdcs);
  s.start_time_s = units::Seconds{10.0 * kHour};
  s.ts_s = units::Seconds{10.0};
  s.duration_s = units::Seconds{10.0 * kWalkWindow};
  const TickGrid grid{s.start_time_s.value(), s.ts_s.value()};
  s.prices = std::make_shared<RandomWalkPrice>(
      base_prices(kWalkIdcs), grid, kWalkWindow, /*step=*/5.0, /*band=*/10.0,
      seed);
  std::vector<double> rates(kWalkPortals);
  for (std::size_t i = 0; i < kWalkPortals; ++i) {
    rates[i] = 1500.0 + 150.0 * static_cast<double>(i % 5);
  }
  // Flat diurnal term: the window is short; the per-tick noise is what
  // keeps every QP different from the last.
  s.workload = std::make_shared<NoisyDiurnalWorkload>(std::move(rates), 0.0,
                                                      0.0, 0.02, grid, seed);
  s.power_budgets_w = partial_budgets(s.idcs, 5, 0.4);
  s.controller.horizons = {/*prediction=*/20, /*control=*/10};
  s.controller.q_weight = 1.0;
  s.controller.r_weight = 3.0;
  s.controller.cost_basis = gridctl::control::CostBasis::kPriceOnly;
  s.controller.solver.backend = gridctl::solvers::LsqBackend::kCondensed;
  return s;
}

// ---------------------------------------------------------------------
// Single-fleet driving.

// Per-tick failure evidence the session reports through on_progress.
struct TickLog {
  std::uint64_t violations_seen = 0;
  std::uint64_t violation_ticks = 0;
};

runtime::RuntimeOptions session_options(const core::Scenario& scenario,
                                        TickLog* log) {
  runtime::RuntimeOptions options;
  options.deadline_s = scenario.ts_s.value();  // a tick must fit its period
  options.progress_every = 1;
  options.on_progress = [log](const runtime::Progress& p) {
    if (p.invariant_violations > log->violations_seen) ++log->violation_ticks;
    log->violations_seen = p.invariant_violations;
  };
  return options;
}

// Applies events up to and including the next timer event. Returns the
// wall seconds of that timer apply (one control period), or a negative
// value once the session has no more periods.
double next_tick(runtime::FleetSession& session, SpanRecorder* spans) {
  util::RoleGuard stream(session.stream_role());
  util::RoleGuard control(session.control_role());
  if (session.done()) return -1.0;
  const auto tick = static_cast<std::uint32_t>(session.next_step());
  const std::int32_t root = spans ? spans->begin("tick", -1, tick) : -1;
  for (;;) {
    std::int32_t span = spans ? spans->begin("runtime.poll", root, tick) : -1;
    const auto event = session.poll();
    if (spans) spans->end(span);
    if (!event) {
      if (spans) spans->end(root);
      return -1.0;
    }
    const bool timer = event->kind == runtime::EventKind::kTimer;
    span = spans ? spans->begin(timer ? "runtime.apply_timer"
                                      : "runtime.apply_feed",
                                root, tick)
                 : -1;
    const auto begin = Clock::now();
    session.apply(*event);
    const double wall = seconds_since(begin);
    if (spans) spans->end(span);
    if (timer) {
      if (spans) spans->end(root);
      return wall;
    }
  }
}

runtime::RuntimeResult finish(runtime::FleetSession& session) {
  util::RoleGuard control(session.control_role());
  return session.finish(session.next_step() >= session.scenario().num_steps(),
                        0.0);
}

runtime::RuntimeCheckpoint checkpoint_of(const runtime::FleetSession& session) {
  util::RoleGuard stream(session.stream_role());
  util::RoleGuard control(session.control_role());
  return session.checkpoint();
}

struct FleetWorkload {
  std::function<core::Scenario(std::uint64_t)> build;
  std::size_t quality_ticks = 0;  // K: quality metrics cover ticks 1..K
  std::size_t stat_ticks = 0;     // tick quantiles use the first N ticks
  std::size_t setups = 0;         // setup repetitions per run
  std::size_t trace_ticks = 0;    // traced run length
};

std::uint64_t fallback_ticks(const gridctl::engine::RunTelemetry& t) {
  return t.fallback_backend_retries + t.fallback_holds;
}

void check_solver(Result& result, const gridctl::engine::RunTelemetry& t) {
  result.check(t.invariants.total() == 0,
               "invariant violations: " + std::to_string(t.invariants.total()));
  result.check(t.status_optimal == t.solver_calls,
               "non-optimal QP solves: " +
                   std::to_string(t.solver_calls - t.status_optimal));
  result.check(fallback_ticks(t) == 0,
               "fallback ticks: " + std::to_string(fallback_ticks(t)));
}

// One set-up on the fixed inputs of repetition `r`: scenario generation
// to the return of the first control period.
double fleet_setup_s(const FleetWorkload& w, std::size_t r) {
  TickLog log;
  const auto begin = Clock::now();
  const core::Scenario scenario = w.build(setup_seed(r));
  runtime::FleetSession session(scenario, session_options(scenario, &log));
  if (next_tick(session, nullptr) < 0.0) {
    throw std::runtime_error("scenario has no control period");
  }
  return seconds_since(begin);
}

// Untraced run: a session on the run's inputs free-running for at least
// `seconds` and at least max(K, N) ticks. The set-up repetitions (their
// median is setup_s) are spread evenly over the run, outside the
// measured time, so that they see the host as the ticks do.
Result measure_fleet(const FleetWorkload& w, const Options& options,
                     Quality* quality) {
  Result result;
  std::vector<double> setup_s;
  TickLog log;
  const core::Scenario first_scenario = w.build(options.seed);
  const double ts = first_scenario.ts_s.value();
  const std::vector<units::Watts> budgets = first_scenario.power_budgets_w;
  auto session = std::make_unique<runtime::FleetSession>(
      first_scenario, session_options(first_scenario, &log));
  const double first = next_tick(*session, nullptr);
  if (first < 0.0) throw std::runtime_error("scenario has no control period");
  ++result.attempted;
  if (first > ts) ++result.failed;

  const std::size_t need = std::max(w.quality_ticks, w.stat_ticks);
  std::vector<double> tick_s;
  tick_s.reserve(w.stat_ticks);
  std::uint64_t ticks = 0;
  double measured_s = 0.0;
  std::optional<runtime::RuntimeResult> first_episode;
  auto segment = Clock::now();
  for (;;) {
    if (setup_s.size() < w.setups &&
        measured_s + seconds_since(segment) >=
            options.seconds * static_cast<double>(setup_s.size()) /
                static_cast<double>(w.setups)) {
      measured_s += seconds_since(segment);
      setup_s.push_back(fleet_setup_s(w, setup_s.size()));
      segment = Clock::now();
    }
    const double wall = next_tick(*session, nullptr);
    if (wall < 0.0) {
      // Window exhausted: start the same inputs over in a fresh session
      // (its set-up is not measured time).
      measured_s += seconds_since(segment);
      runtime::RuntimeResult done = finish(*session);
      check_solver(result, done.telemetry);
      result.failed += log.violation_ticks + fallback_ticks(done.telemetry);
      if (!first_episode) first_episode = std::move(done);
      log = TickLog{};
      core::Scenario scenario = w.build(options.seed);
      session = std::make_unique<runtime::FleetSession>(
          scenario, session_options(scenario, &log));
      ++result.attempted;
      if (next_tick(*session, nullptr) < 0.0) {
        throw std::runtime_error("scenario has no control period");
      }
      segment = Clock::now();
      continue;
    }
    ++ticks;
    ++result.attempted;
    if (wall > ts) ++result.failed;
    if (tick_s.size() < w.stat_ticks) tick_s.push_back(wall);
    if (ticks >= need && measured_s + seconds_since(segment) >= options.seconds) {
      break;
    }
  }
  measured_s += seconds_since(segment);
  while (setup_s.size() < w.setups) {
    setup_s.push_back(fleet_setup_s(w, setup_s.size()));
  }
  runtime::RuntimeResult last = finish(*session);
  check_solver(result, last.telemetry);
  result.failed += log.violation_ticks + fallback_ticks(last.telemetry);

  const auto& trace = first_episode ? *first_episode->trace : *last.trace;
  *quality = trace_quality(trace.total_power_w, trace.power_w, budgets, ts,
                           w.quality_ticks);
  quality->cost_usd =
      trace.cumulative_cost[w.quality_ticks] - trace.cumulative_cost[0];

  add_tick_metrics(result, tick_s, static_cast<double>(ticks) / measured_s);
  result.add("setup_s", median(setup_s), "s");
  result.add("setup_samples", static_cast<double>(setup_s.size()), "count",
             false);
  return result;
}

// Per-layer metrics shared by every workload: solver counters, the
// replayed layers and the session's runtime spans.
void add_layer_metrics(Result& result, const gridctl::engine::RunTelemetry& t,
                       const ReplayLayers& replay, const SpanRecorder& spans) {
  const double timed = std::max<double>(1.0, static_cast<double>(replay.timed_ticks));
  result.add("solvers.qp_iters_per_tick", t.mean_solver_iterations(), "count");
  result.add("solvers.qp_iters_max", static_cast<double>(replay.qp_iters_max),
             "count");
  result.add("solvers.warm_start_hit_frac", t.warm_start_hit_rate(), "ratio");
  result.add("solvers.fallback_ticks", static_cast<double>(fallback_ticks(t)),
             "count");
  // An estimate of the step's own time: the replayed step minus the
  // prediction, reference and check calls the replay re-times beside
  // it on the same inputs (the step still makes those calls itself).
  const double children = replay.predict_s + replay.reference_s + replay.check_s;
  result.add("core.step_ms_per_tick", replay.step_s / timed * 1e3, "ms");
  result.add("core.step_self_ms_per_tick",
             (replay.step_s - children) / timed * 1e3, "ms");
  result.add("control.reference_ms_per_tick", replay.reference_s / timed * 1e3,
             "ms");
  result.add("control.reference_calls_per_tick",
             static_cast<double>(replay.reference_calls) / timed, "count");
  result.add("workload.predict_us_per_tick", replay.predict_s / timed * 1e6,
             "us");
  result.add("check.invariant_us_per_tick", replay.check_s / timed * 1e6, "us");
  result.add("check.violations", static_cast<double>(t.invariants.total()),
             "count");
  result.add("datacenter.plant_us_per_tick", replay.plant_s / timed * 1e6, "us");
  result.add("market.price_us_per_tick", replay.price_s / timed * 1e6, "us");

  const auto layers = spans.layers();
  auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? SpanRecorder::Layer{} : it->second;
  };
  const auto poll = layer("runtime.poll");
  const auto feed = layer("runtime.apply_feed");
  const auto timer = layer("runtime.apply_timer");
  const auto tick = layer("tick");
  const auto replayed = layer("replay.tick");
  const double polls = std::max<double>(1.0, static_cast<double>(poll.count));
  result.add("runtime.poll_us_per_event", poll.total_s / polls * 1e6, "us");
  result.add("runtime.apply_feed_us_per_event",
             feed.total_s / std::max<double>(1.0, static_cast<double>(feed.count)) *
                 1e6,
             "us");
  result.add("runtime.events_per_tick",
             static_cast<double>(feed.count + timer.count) /
                 std::max<double>(1.0, static_cast<double>(timer.count)),
             "count");
  // Over both kinds of root span: the session's ticks (poll and apply
  // children) and the replayed ticks (one child per replayed layer).
  const double roots_s = tick.total_s + replayed.total_s;
  result.add("trace.uncovered_frac",
             roots_s > 0.0 ? (tick.self_s + replayed.self_s) / roots_s : 0.0,
             "ratio");
}

// Durable checkpoint/resume cost per fleet: snapshot + JSON text, and
// JSON text + restore.
struct CheckpointCost {
  double checkpoint_ms = 0.0;
  double checkpoint_kb = 0.0;
  double resume_ms = 0.0;
};

void add_checkpoint_metrics(Result& result, const CheckpointCost& cost) {
  result.add("runtime.checkpoint_ms", cost.checkpoint_ms, "ms");
  result.add("runtime.checkpoint_kb", cost.checkpoint_kb, "KiB");
  result.add("runtime.resume_ms", cost.resume_ms, "ms");
}

void add_plane_metrics(Result& result, double steals, double hits,
                       double misses, double busy) {
  result.add("controlplane.steals", steals, "count");
  result.add("controlplane.factor_cache_hits", hits, "count");
  result.add("controlplane.factor_cache_misses", misses, "count");
  result.add("controlplane.busy_frac", busy, "ratio");
}

void add_admission_metrics(Result& result, double compile_ms, double route_ns,
                           double audit_ms, double shed) {
  result.add("admission.plan_compile_ms", compile_ms, "ms");
  result.add("admission.route_ns_per_lookup", route_ns, "ns");
  result.add("admission.audit_ms", audit_ms, "ms");
  result.add("admission.shed_frac", shed, "ratio");
}

void check_replay(Result& result, const ReplayLayers& replay) {
  result.check(replay.mismatches == 0,
               "replay does not reproduce the session: " +
                   std::to_string(replay.mismatches) + " mismatches, first: " +
                   replay.first_mismatch);
}

// Runs `ticks` periods after the first of a fresh session; returns
// periods per second over them.
double timed_ticks(runtime::FleetSession& session, std::size_t ticks,
                   SpanRecorder* spans) {
  const auto begin = Clock::now();
  for (std::size_t k = 0; k < ticks; ++k) {
    if (next_tick(session, spans) < 0.0) {
      throw std::runtime_error("traced window shorter than the traced run");
    }
  }
  return static_cast<double>(ticks) / seconds_since(begin);
}

// Traced run of a single-fleet workload: an untraced and a traced
// session over the same inputs and tick count (their ratio is the
// tracing overhead), then the layer replay of the traced session.
Result trace_fleet(const FleetWorkload& w, const Options& options) {
  Result result;
  TickLog untraced_log;
  core::Scenario scenario = w.build(options.seed);
  double untraced_tps = 0.0;
  {
    runtime::FleetSession session(scenario,
                                  session_options(scenario, &untraced_log));
    next_tick(session, nullptr);
    untraced_tps = timed_ticks(session, w.trace_ticks, nullptr);
  }

  SpanRecorder spans;
  TickLog log;
  runtime::FleetSession session(scenario, session_options(scenario, &log));
  const runtime::RuntimeCheckpoint start = checkpoint_of(session);
  next_tick(session, &spans);
  const double traced_tps = timed_ticks(session, w.trace_ticks, &spans);
  const runtime::RuntimeResult run = finish(session);
  check_solver(result, run.telemetry);
  result.attempted = w.trace_ticks + 1;
  result.failed = log.violation_ticks + fallback_ticks(run.telemetry);

  const ReplayLayers replay =
      replay_layers(scenario, start, *run.trace, w.trace_ticks + 1, spans);
  check_replay(result, replay);

  add_layer_metrics(result, run.telemetry, replay, spans);
  // Checkpoint/resume is plane_admit's layer; single-fleet runs report 0.
  add_checkpoint_metrics(result, CheckpointCost{});
  add_plane_metrics(result, 0.0, 0.0, 0.0, 0.0);
  add_admission_metrics(result, 0.0, 0.0, 0.0, 0.0);
  result.add("trace.overhead_frac", 1.0 - traced_tps / untraced_tps, "ratio");
  if (!options.spans_out.empty()) spans.write(options.spans_out);
  return result;
}

const FleetWorkload& paper_day_workload() {
  // Quality over the whole day after the first period, so the window
  // sees the diurnal peak. Tick statistics over six days (most of a
  // 30 s run on a 4-vCPU Xeon): the tail then sits inside the cluster
  // of slow periods at the hourly price steps instead of at its edge,
  // and a slow or fast spell of the host is averaged over the run.
  static const FleetWorkload w{paper_day_scenario, /*quality_ticks=*/8639,
                               /*stat_ticks=*/6 * 8639, /*setups=*/41,
                               /*trace_ticks=*/1000};
  return w;
}

const FleetWorkload& fleet_walk_workload() {
  // Set-ups are about half a second each and vary by +/-20 % with the
  // host, so a run times 13 of them; the tail is the 80th percentile.
  static const FleetWorkload w{fleet_walk_scenario, /*quality_ticks=*/40,
                               /*stat_ticks=*/50, /*setups=*/13,
                               /*trace_ticks=*/12};
  return w;
}

}  // namespace

Result run_paper_day(const Options& options) {
  const FleetWorkload& w = paper_day_workload();
  if (options.trace) return trace_fleet(w, options);
  Quality control;
  Result result = measure_fleet(w, options, &control);
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  add_quality(result, control);

  // The paper's two claims on the same generated inputs: the control
  // method is smoother than the Rao et al. LP baseline and sheds no
  // less of the budget overshoot.
  core::Scenario window = w.build(options.seed);
  window.duration_s = window.ts_s * static_cast<double>(w.quality_ticks);
  core::OptimalPolicy baseline(window.idcs, window.num_portals(),
                               window.controller.cost_basis);
  const core::SimulationResult optimal = core::run_simulation(window, baseline);
  Quality rao = trace_quality(optimal.trace.total_power_w,
                              optimal.trace.power_w, window.power_budgets_w,
                              window.ts_s.value(), w.quality_ticks);
  result.add("baseline_volatility_mw", rao.volatility_mw, "MW", false);
  result.add("baseline_over_budget_mwh", rao.over_budget_mwh, "MWh", false);
  result.add("baseline_mean_abs_step_mw", rao.mean_abs_step_mw, "MW", false);
  result.add("baseline_total_mean_abs_step_mw", rao.total_mean_abs_step_mw,
             "MW", false);
  result.check(control.volatility_mw < rao.volatility_mw,
               "control method is not smoother than the LP baseline");
  result.check(control.over_budget_mwh <= rao.over_budget_mwh,
               "control method exceeds the budgets more than the LP baseline");
  return result;
}

Result run_fleet_walk(const Options& options) {
  const FleetWorkload& w = fleet_walk_workload();
  if (options.trace) return trace_fleet(w, options);
  Quality quality;
  Result result = measure_fleet(w, options, &quality);
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  add_quality(result, quality);
  return result;
}

// ---------------------------------------------------------------------
// plane_admit: 8 fleets behind one admission front end on 4 workers,
// stopped halfway, checkpointed, and resumed in a fresh plane.

namespace {

constexpr std::size_t kPlaneFleets = 8;
constexpr std::size_t kPlaneIdcs = 12;
constexpr std::size_t kPlanePortals = 320;
constexpr std::size_t kPlaneTenants = 2;
constexpr std::size_t kPlaneWorkers = 4;
// The quality metrics cover one window, long enough that the seed's
// price walks move them little; about four windows fit in a 30 s run
// on a 4-vCPU Xeon.
constexpr std::uint64_t kPlaneSteps = 160;
constexpr std::size_t kPlaneStatTicks = 3000;
// Set-ups per run, five before each of the first cycles.
constexpr std::size_t kPlaneSetups = 15;
constexpr std::size_t kPlaneSetupsPerCycle = 5;

struct PlaneInputs {
  std::vector<controlplane::FleetSpec> specs;
  admission::AdmissionSpec admission;
};

PlaneInputs plane_inputs(std::uint64_t seed) {
  PlaneInputs in;
  const double start = 9.0 * kHour;
  const double ts = 10.0;
  const TickGrid grid{start, ts};
  std::vector<double> rates(kPlanePortals);
  for (std::size_t p = 0; p < kPlanePortals; ++p) {
    rates[p] = 1200.0 + 300.0 * static_cast<double>((p * 3) % 5);
  }
  std::shared_ptr<const gridctl::workload::WorkloadSource> source =
      std::make_shared<NoisyDiurnalWorkload>(std::move(rates), 0.1, 14.0, 0.02,
                                             grid, seed);
  in.admission = admission_spec(*source, kPlaneFleets, kPlaneTenants,
                                /*quota_share=*/0.9, grid, kPlaneSteps);
  const auto idcs = synthetic_idcs(kPlaneIdcs);
  for (std::size_t f = 0; f < kPlaneFleets; ++f) {
    controlplane::FleetSpec spec;
    spec.id = "fleet-" + std::to_string(f);
    core::Scenario& s = spec.scenario;
    s.idcs = idcs;
    s.start_time_s = units::Seconds{start};
    s.ts_s = units::Seconds{ts};
    s.duration_s = units::Seconds{ts * static_cast<double>(kPlaneSteps)};
    // A tight walk (+/-$1 steps within +/-$3): with a wide one each seed
    // draws a few long excursions, and the volatility of one window
    // then moves by +/-25 % from seed to seed.
    s.prices = std::make_shared<RandomWalkPrice>(
        base_prices(kPlaneIdcs), grid, kPlaneSteps, /*step=*/1.0,
        /*band=*/3.0, hash_keys(seed, 4, f, 0));
    s.workload = source;
    s.power_budgets_w = partial_budgets(idcs, 4, 0.4);
    // Controller defaults otherwise (r = 0.8, power-integral cost): the
    // QP then converges in several hundred iterations and the simplex
    // reference is about half of each step.
    s.controller.horizons = {/*prediction=*/8, /*control=*/2};
    s.controller.solver.backend = gridctl::solvers::LsqBackend::kCondensed;
    spec.options.deadline_s = ts;
    in.specs.push_back(std::move(spec));
  }
  return in;
}

// Per-fleet tick log, filled on the worker threads by two hooks: the
// fleet's price model (PeriodPrice), whose first quote after a period
// returned comes from the price-feed apply that opens the next period,
// and on_progress, called as the timer apply returns. One period is the
// wall time between the two when one worker ran both with no other
// fleet's hook in between; a period the plane split over two quanta is
// not a sample. A fleet's hooks are serialized by the plane's handoff
// fence.
struct FleetTicks {
  std::vector<double> tick_s;
  bool armed = false;  // a period returned; the next quote opens one
  bool open = false;   // a period is open since `start` on `worker`
  Clock::time_point start;
  std::thread::id worker;
  std::uint64_t violations_seen = 0;
  std::uint64_t violation_ticks = 0;
  std::uint64_t misses_seen = 0;
  std::uint64_t slow_ticks = 0;  // periods over the deadline, per the session
};

// The fleet whose hook ran last on this worker.
thread_local const FleetTicks* last_fleet = nullptr;

class PeriodPrice : public gridctl::market::PriceModel {
 public:
  PeriodPrice(std::shared_ptr<const gridctl::market::PriceModel> inner,
              FleetTicks* log)
      : inner_(std::move(inner)), log_(log) {}

  units::PricePerMwh price(std::size_t region, units::Seconds time,
                           units::Watts demand) const override {
    if (log_->armed) {
      log_->armed = false;
      log_->open = true;
      log_->start = Clock::now();
      log_->worker = std::this_thread::get_id();
    }
    last_fleet = log_;
    return inner_->price(region, time, demand);
  }
  std::size_t num_regions() const override { return inner_->num_regions(); }
  std::string region_name(std::size_t region) const override {
    return inner_->region_name(region);
  }

 private:
  std::shared_ptr<const gridctl::market::PriceModel> inner_;
  FleetTicks* log_;
};

// Installs the tick logs and records the first period's return (as
// nanoseconds after `origin`, plus one so that 0 means "not yet").
void install_logs(std::vector<controlplane::FleetSpec>& specs,
                  std::vector<FleetTicks>& logs,
                  std::atomic<std::int64_t>& first_ns,
                  Clock::time_point origin) {
  for (std::size_t f = 0; f < specs.size(); ++f) {
    FleetTicks* log = &logs[f];
    specs[f].scenario.prices =
        std::make_shared<PeriodPrice>(specs[f].scenario.prices, log);
    specs[f].options.progress_every = 1;
    specs[f].options.on_progress = [log, &first_ns,
                                    origin](const runtime::Progress& p) {
      const auto now = Clock::now();
      std::int64_t expected = 0;
      first_ns.compare_exchange_strong(
          expected,
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - origin)
                  .count() +
              1);
      if (log->open && last_fleet == log &&
          log->worker == std::this_thread::get_id()) {
        log->tick_s.push_back(
            std::chrono::duration<double>(now - log->start).count());
      }
      log->open = false;
      log->armed = true;
      last_fleet = log;
      if (p.deadline_misses > log->misses_seen) ++log->slow_ticks;
      log->misses_seen = p.deadline_misses;
      if (p.invariant_violations > log->violations_seen) ++log->violation_ticks;
      log->violations_seen = p.invariant_violations;
    };
  }
}

std::vector<FleetTicks> fresh_logs() {
  std::vector<FleetTicks> logs(kPlaneFleets);
  for (auto& log : logs) log.tick_s.reserve(kPlaneSteps);
  return logs;
}

controlplane::PlaneOptions plane_options(const PlaneInputs& inputs) {
  controlplane::PlaneOptions options;
  options.workers = kPlaneWorkers;
  options.admission = inputs.admission;
  return options;
}

// Set-up of the plane: inputs built, admission plan compiled, fleets
// warm-started, until the first control period returns.
double plane_setup_s(std::uint64_t seed) {
  std::atomic<std::int64_t> first_ns{0};
  std::vector<FleetTicks> logs = fresh_logs();
  const auto origin = Clock::now();
  const PlaneInputs inputs = plane_inputs(seed);
  std::vector<controlplane::FleetSpec> specs = inputs.specs;
  for (auto& spec : specs) spec.options.stop_after_step = 1;
  install_logs(specs, logs, first_ns, origin);
  controlplane::ControlPlane plane(std::move(specs), plane_options(inputs));
  (void)plane.run();
  return 1e-9 * static_cast<double>(first_ns.load() - 1);
}

// One full window: the first half in one plane, then every fleet
// checkpointed and resumed from its checkpoint in a fresh plane for the
// second half. The checkpoints stay in memory here; their JSON text
// round trip is timed only by the traced run, since util::parse_json
// costs time quadratic in the text length (see README.md) and would
// otherwise be most of the cycle.
struct Cycle {
  double setup_s = 0.0;     // inputs built -> first period returned
  double measured_s = 0.0;  // first period returned -> resumed plane done
  std::uint64_t ticks = 0;  // periods completed after the first
  controlplane::PlaneReport first_half;
  controlplane::PlaneReport second_half;
  std::shared_ptr<const admission::AdmissionPlan> plan;
  PlaneInputs inputs;
  std::vector<runtime::RuntimeCheckpoint> checkpoints;  // per fleet
  double checkpoint_s = 0.0;  // all fleets' snapshots
};

Cycle run_cycle(std::uint64_t seed, std::vector<FleetTicks>& logs,
                SpanRecorder* spans) {
  Cycle cycle;
  std::atomic<std::int64_t> first_ns{0};
  const auto origin = Clock::now();
  const std::int32_t root = spans ? spans->begin("plane.cycle", -1, 0) : -1;
  auto span = [&](const char* name) {
    return spans ? spans->begin(name, root, 0) : -1;
  };
  auto end = [&](std::int32_t id) {
    if (spans) spans->end(id);
  };
  cycle.inputs = plane_inputs(seed);
  std::vector<controlplane::FleetSpec> specs = cycle.inputs.specs;
  for (auto& spec : specs) spec.options.stop_after_step = kPlaneSteps / 2;
  install_logs(specs, logs, first_ns, origin);

  std::int32_t id = span("controlplane.first_half");
  controlplane::ControlPlane first(specs, plane_options(cycle.inputs));
  cycle.plan = first.admission_plan();
  cycle.first_half = first.run();
  end(id);

  id = span("runtime.checkpoint");
  const auto begin = Clock::now();
  for (const auto& spec : specs) {
    cycle.checkpoints.push_back(first.checkpoint(spec.id));
  }
  cycle.checkpoint_s = seconds_since(begin);
  end(id);

  id = span("controlplane.second_half");
  std::vector<controlplane::FleetSpec> resumed = cycle.inputs.specs;
  install_logs(resumed, logs, first_ns, origin);
  for (std::size_t f = 0; f < resumed.size(); ++f) {
    resumed[f].checkpoint = cycle.checkpoints[f];
  }
  controlplane::ControlPlane second(std::move(resumed),
                                    plane_options(cycle.inputs));
  cycle.second_half = second.run();
  end(id);
  const double total_s = seconds_since(origin);
  if (spans) spans->end(root);

  cycle.setup_s = 1e-9 * static_cast<double>(first_ns.load() - 1);
  cycle.measured_s = total_s - cycle.setup_s;
  cycle.ticks = kPlaneFleets * kPlaneSteps - 1;
  return cycle;
}

void check_cycle(Result& result, const Cycle& cycle) {
  for (const auto& fleet : cycle.first_half.fleets) {
    result.check(fleet.ok && !fleet.result.completed,
                 fleet.id + " did not stop resumably at the halfway point: " +
                     fleet.error);
  }
  for (const auto& fleet : cycle.second_half.fleets) {
    result.check(fleet.ok && fleet.result.completed,
                 fleet.id + " did not complete after resume: " + fleet.error);
  }
  result.check(cycle.second_half.admission_verified &&
                   cycle.second_half.admission_route_violations == 0,
               "admission exactly-once audit failed or was not verified");
}

// Failed periods of one cycle: slow or violating ticks (per-tick
// evidence), fallback ticks, and every unfinished tick of a failed fleet.
std::uint64_t cycle_failures(const Cycle& cycle,
                             const std::vector<FleetTicks>& logs) {
  std::uint64_t failed = 0;
  for (const auto& log : logs) failed += log.slow_ticks + log.violation_ticks;
  for (const auto& fleet : cycle.second_half.fleets) {
    if (!fleet.ok) {
      failed += kPlaneSteps / 2;
      continue;
    }
    failed += fallback_ticks(fleet.result.telemetry);
  }
  for (const auto& fleet : cycle.first_half.fleets) {
    if (!fleet.ok) failed += kPlaneSteps;
  }
  return std::min<std::uint64_t>(failed, kPlaneFleets * kPlaneSteps);
}

Quality plane_quality(const Cycle& cycle) {
  Quality q;
  std::vector<double> total(kPlaneSteps + 1, 0.0);
  std::vector<std::vector<double>> power;
  std::vector<units::Watts> budgets;
  for (std::size_t f = 0; f < cycle.second_half.fleets.size(); ++f) {
    const auto& fleet = cycle.second_half.fleets[f];
    if (!fleet.ok || !fleet.result.trace) continue;
    const auto& trace = *fleet.result.trace;
    q.cost_usd += fleet.result.summary.total_cost.value();
    for (std::size_t k = 0; k <= kPlaneSteps; ++k) {
      total[k] += trace.total_power_w[k];
    }
    const auto& fleet_budgets = cycle.inputs.specs[f].scenario.power_budgets_w;
    for (std::size_t j = 0; j < trace.power_w.size(); ++j) {
      power.push_back(trace.power_w[j]);
      budgets.push_back(fleet_budgets[j]);
    }
  }
  const Quality shape = trace_quality(
      total, power, budgets, cycle.inputs.specs[0].scenario.ts_s.value(),
      kPlaneSteps);
  q.volatility_mw = shape.volatility_mw;
  q.mean_abs_step_mw = shape.mean_abs_step_mw;
  q.total_mean_abs_step_mw = shape.total_mean_abs_step_mw;
  q.over_budget_mwh = shape.over_budget_mwh;
  return q;
}

double cycle_tps(const Cycle& cycle) {
  return static_cast<double>(cycle.ticks) / cycle.measured_s;
}

Result measure_plane(const Options& options) {
  Result result;
  std::vector<double> setup_s;
  auto add_setups = [&](std::size_t count) {
    while (count-- > 0 && setup_s.size() < kPlaneSetups) {
      setup_s.push_back(plane_setup_s(setup_seed(setup_s.size())));
    }
  };
  std::vector<double> tick_s;
  double measured_s = 0.0;
  double cycles_s = 0.0;  // wall time of the cycles, set-up included
  std::uint64_t ticks = 0;
  Quality quality;
  for (std::size_t c = 0;; ++c) {
    add_setups(kPlaneSetupsPerCycle);
    std::vector<FleetTicks> logs = fresh_logs();
    const auto begin = Clock::now();
    const Cycle cycle = run_cycle(options.seed, logs, nullptr);
    cycles_s += seconds_since(begin);
    check_cycle(result, cycle);
    if (c == 0) quality = plane_quality(cycle);
    measured_s += cycle.measured_s;
    ticks += cycle.ticks;
    result.attempted += kPlaneFleets * kPlaneSteps;
    result.failed += cycle_failures(cycle, logs);
    for (const auto& log : logs) {
      for (double t : log.tick_s) {
        if (tick_s.size() < kPlaneStatTicks) tick_s.push_back(t);
      }
    }
    if (tick_s.size() >= kPlaneStatTicks && cycles_s >= options.seconds) {
      break;
    }
  }
  add_setups(kPlaneSetups);
  add_tick_metrics(result, tick_s, static_cast<double>(ticks) / measured_s);
  result.add("setup_s", median(setup_s), "s");
  result.add("setup_samples", static_cast<double>(setup_s.size()), "count",
             false);
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  add_quality(result, quality);
  return result;
}

// Traced run: one untraced and one traced cycle (the traced one with
// spans around every plane phase), the admission layer replayed on the
// cycle's inputs, fleet 0's halfway checkpoint taken through JSON text
// and back, then fleet 0 replayed solo through FleetSession
// poll/apply with spans and its controller layers replayed on the
// recorded inputs.
Result trace_plane(const Options& options) {
  Result result;
  SpanRecorder spans;
  std::vector<FleetTicks> untraced_logs = fresh_logs();
  const Cycle untraced = run_cycle(options.seed, untraced_logs, nullptr);
  check_cycle(result, untraced);

  std::vector<FleetTicks> logs = fresh_logs();
  const Cycle cycle = run_cycle(options.seed, logs, &spans);
  check_cycle(result, cycle);
  result.attempted = kPlaneFleets * kPlaneSteps;
  result.failed = cycle_failures(cycle, logs);

  // Admission layer on the cycle's inputs.
  const core::Scenario& first_scenario = cycle.inputs.specs[0].scenario;
  admission::AdmissionGrid grid;
  grid.start_s = first_scenario.start_time_s.value();
  grid.ts_s = first_scenario.ts_s.value();
  grid.steps = kPlaneSteps;
  std::vector<double> capacities;
  for (const auto& spec : cycle.inputs.specs) {
    double capacity = 0.0;
    for (const auto& idc : spec.scenario.idcs) {
      capacity += static_cast<double>(idc.max_servers) *
                  idc.power.service_rate.value();
    }
    capacities.push_back(capacity);
  }
  std::vector<double> compile_s;
  for (int r = 0; r < 3; ++r) {
    const std::int32_t span = spans.begin("admission.compile", -1, 0);
    const auto begin = Clock::now();
    const admission::AdmissionPlan plan(cycle.inputs.admission,
                                        first_scenario.workload, grid,
                                        capacities);
    compile_s.push_back(seconds_since(begin));
    spans.end(span);
  }
  const admission::AdmissionPlan& plan = *cycle.plan;
  std::int32_t span = spans.begin("admission.route", -1, 0);
  auto begin = Clock::now();
  double routed = 0.0;
  for (std::uint64_t k = 0; k < kPlaneSteps; ++k) {
    const units::Seconds t{grid.start_s + static_cast<double>(k) * grid.ts_s};
    for (std::size_t p = 0; p < plan.num_portals(); ++p) {
      routed += static_cast<double>(plan.fleet_of(p, t)) +
                plan.admitted_rate(p, t);
    }
  }
  const double route_s = seconds_since(begin);
  spans.end(span);
  result.check(std::isfinite(routed), "admission lookups returned non-finite");
  std::vector<const std::vector<std::vector<double>>*> portal_rps;
  for (const auto& fleet : cycle.second_half.fleets) {
    if (fleet.ok && fleet.result.trace) {
      portal_rps.push_back(&fleet.result.trace->portal_rps);
    }
  }
  span = spans.begin("admission.audit", -1, 0);
  begin = Clock::now();
  const auto audit = admission::verify_exactly_once(plan, portal_rps, kPlaneSteps);
  const double audit_s = seconds_since(begin);
  spans.end(span);
  result.check(audit.empty() && portal_rps.size() == kPlaneFleets,
               "replayed exactly-once audit found violations");

  // Durable checkpoint of fleet 0: its halfway snapshot to JSON text,
  // then back through the parser into a session restored behind the
  // same plan. The cycle's in-memory snapshot is part of the cost.
  CheckpointCost cost;
  span = spans.begin("runtime.checkpoint_json", -1, 0);
  begin = Clock::now();
  const std::string text = gridctl::dump_json(cycle.checkpoints[0].to_json());
  cost.checkpoint_ms =
      (cycle.checkpoint_s / kPlaneFleets + seconds_since(begin)) * 1e3;
  spans.end(span);
  cost.checkpoint_kb = static_cast<double>(text.size()) / 1024.0;
  {
    core::Scenario scenario = first_scenario;
    scenario.workload = std::make_shared<admission::RoutedWorkload>(cycle.plan, 0);
    span = spans.begin("runtime.resume_json", -1, 0);
    begin = Clock::now();
    const runtime::RuntimeCheckpoint parsed =
        runtime::RuntimeCheckpoint::from_json(gridctl::parse_json(text));
    const runtime::FleetSession resumed(scenario, cycle.inputs.specs[0].options,
                                        parsed);
    cost.resume_ms = seconds_since(begin) * 1e3;
    spans.end(span);
    result.check(gridctl::dump_json(parsed.to_json()) == text,
                 "checkpoint JSON text does not round-trip");
  }

  // Fleet 0 solo behind the same plan: bit-identical to the plane.
  core::Scenario solo = first_scenario;
  solo.workload = std::make_shared<admission::RoutedWorkload>(cycle.plan, 0);
  TickLog solo_log;
  runtime::FleetSession session(solo, session_options(solo, &solo_log));
  const runtime::RuntimeCheckpoint start = checkpoint_of(session);
  while (next_tick(session, &spans) >= 0.0) {
  }
  const runtime::RuntimeResult run = finish(session);
  const auto& plane_trace = *cycle.second_half.fleets[0].result.trace;
  result.check(run.trace->idc_load_rps == plane_trace.idc_load_rps &&
                   run.trace->servers_on == plane_trace.servers_on &&
                   run.trace->power_w == plane_trace.power_w,
               "solo replay of fleet 0 differs from the plane");
  const ReplayLayers replay =
      replay_layers(solo, start, *run.trace, kPlaneSteps, spans);
  check_replay(result, replay);

  gridctl::engine::RunTelemetry telemetry;
  double busy_s = 0.0;
  for (const auto& fleet : cycle.second_half.fleets) {
    const auto& t = fleet.result.telemetry;
    telemetry.solver_calls += t.solver_calls;
    telemetry.solver_iterations += t.solver_iterations;
    telemetry.warm_start_hits += t.warm_start_hits;
    telemetry.fallback_backend_retries += t.fallback_backend_retries;
    telemetry.fallback_holds += t.fallback_holds;
    telemetry.invariants.merge(t.invariants);
    busy_s += t.policy_s + t.plant_s + t.record_s;
  }
  add_layer_metrics(result, telemetry, replay, spans);
  add_checkpoint_metrics(result, cost);
  const auto& a = cycle.first_half;
  const auto& b = cycle.second_half;
  add_plane_metrics(
      result, static_cast<double>(a.steals + b.steals),
      static_cast<double>(a.factor_cache_hits + b.factor_cache_hits),
      static_cast<double>(a.factor_cache_misses + b.factor_cache_misses),
      busy_s / (kPlaneWorkers * (a.wall_s + b.wall_s)));
  add_admission_metrics(
      result, median(compile_s) * 1e3,
      route_s / (2.0 * kPlaneSteps * static_cast<double>(plan.num_portals())) * 1e9,
      audit_s * 1e3, plan.accounting().shed_fraction());
  result.add("trace.overhead_frac", 1.0 - cycle_tps(cycle) / cycle_tps(untraced),
             "ratio");
  if (!options.spans_out.empty()) spans.write(options.spans_out);
  return result;
}

}  // namespace

Result run_plane_admit(const Options& options) {
  return options.trace ? trace_plane(options) : measure_plane(options);
}

}  // namespace gridbench
