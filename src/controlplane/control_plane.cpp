#include "controlplane/control_plane.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>
#include <utility>

#include "runtime/job_result.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridctl::controlplane {

namespace {

// Telemetry wall timing only; scheduling and results never read it.
using clock_type = std::chrono::steady_clock;  // lint: nondet-ok

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

std::size_t PlaneReport::failed_fleets() const {
  std::size_t failed = 0;
  for (const FleetResult& fleet : fleets) {
    if (!fleet.ok) ++failed;
  }
  return failed;
}

std::uint64_t PlaneReport::total_steps() const {
  std::uint64_t steps = 0;
  for (const FleetResult& fleet : fleets) {
    if (fleet.ok) steps += fleet.result.telemetry.steps;
  }
  return steps;
}

engine::SweepReport PlaneReport::to_sweep_report() const {
  engine::SweepReport report;
  report.threads = workers;
  report.wall_s = wall_s;
  report.jobs.reserve(fleets.size());
  for (const FleetResult& fleet : fleets) {
    if (fleet.ok) {
      report.jobs.push_back(runtime::to_job_result(fleet.id, fleet.result));
      continue;
    }
    engine::JobResult job;
    job.name = fleet.id;
    job.error = fleet.error;
    report.jobs.push_back(std::move(job));
  }
  return report;
}

JsonValue PlaneReport::to_json() const {
  JsonValue::Object plane;
  plane.emplace("workers", static_cast<double>(workers));
  plane.emplace("wall_s", wall_s);
  plane.emplace("steals", static_cast<double>(steals));
  JsonValue::Object cache;
  cache.emplace("hits", static_cast<double>(factor_cache_hits));
  cache.emplace("misses", static_cast<double>(factor_cache_misses));
  plane.emplace("factor_cache", JsonValue(std::move(cache)));
  JsonValue::Array fleet_stats;
  for (const FleetResult& fleet : fleets) {
    JsonValue::Object entry;
    entry.emplace("id", fleet.id);
    entry.emplace("ok", fleet.ok);
    if (!fleet.ok) entry.emplace("error", fleet.error);
    if (fleet.ok) {
      entry.emplace("completed", fleet.result.completed);
      entry.emplace("runtime", fleet.result.stats.to_json());
    }
    fleet_stats.push_back(JsonValue(std::move(entry)));
  }
  plane.emplace("fleets", JsonValue(std::move(fleet_stats)));
  if (admission) {
    JsonValue::Object entry = admission->summary_json().as_object();
    JsonValue::Object route_check;
    route_check.emplace("verified", admission_verified);
    route_check.emplace("violations",
                        static_cast<double>(admission_route_violations));
    entry.emplace("route_check", JsonValue(std::move(route_check)));
    plane.emplace("admission", JsonValue(std::move(entry)));
  }

  JsonValue::Object root;
  root.emplace("sweep", to_sweep_report().to_json());
  root.emplace("plane", JsonValue(std::move(plane)));
  return JsonValue(std::move(root));
}

ControlPlane::ControlPlane(std::vector<FleetSpec> fleets, PlaneOptions options)
    : options_(std::move(options)) {
  require(!fleets.empty(), "ControlPlane: need at least one fleet");
  require(options_.batch_events > 0,
          "ControlPlane: batch_events must be positive");
  workers_ = options_.workers > 0
                 ? options_.workers
                 : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  factor_cache_ = options_.factor_cache
                      ? options_.factor_cache
                      : std::make_shared<solvers::CondensedFactorCache>();

  std::unordered_set<std::string> ids;
  fleets_.reserve(fleets.size());
  for (FleetSpec& spec : fleets) {
    require(!spec.id.empty(), "ControlPlane: fleet id must be non-empty");
    require(ids.insert(spec.id).second,
            "ControlPlane: duplicate fleet id '" + spec.id + "'");
    // The plane owns pacing (it free-runs); a per-fleet acceleration
    // would need one clock per fleet and is not supported here.
    spec.options.acceleration = 0.0;
    if (!spec.options.factor_cache) spec.options.factor_cache = factor_cache_;
    auto state = std::make_unique<FleetState>();
    state->result.id = spec.id;
    state->spec = std::move(spec);
    fleets_.push_back(std::move(state));
  }

  if (options_.admission && options_.admission->enabled()) {
    install_admission(*options_.admission);
  } else if (fleets_.front()->spec.scenario.admission.enabled()) {
    install_admission(fleets_.front()->spec.scenario.admission);
  }

  queues_.reserve(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  for (std::size_t i = 0; i < fleets_.size(); ++i) {
    queues_[i % workers_]->fleets.push_back(i);
  }
  remaining_.store(fleets_.size());
}

ControlPlane::~ControlPlane() = default;

void ControlPlane::install_admission(admission::AdmissionSpec spec) {
  const core::Scenario& first = fleets_.front()->spec.scenario;
  for (const auto& fleet : fleets_) {
    const core::Scenario& scenario = fleet->spec.scenario;
    require(scenario.workload == first.workload,
            "ControlPlane: admission routing needs every fleet to share one "
            "workload source (fleet '" +
                fleet->spec.id + "' carries a different one)");
    require(scenario.start_time_s.value() == first.start_time_s.value() &&
                scenario.ts_s.value() == first.ts_s.value() &&
                scenario.duration_s.value() == first.duration_s.value(),
            "ControlPlane: admission routing needs every fleet on one "
            "start/ts/duration window (fleet '" +
                fleet->spec.id + "' differs)");
  }

  admission::AdmissionGrid grid;
  grid.start_s = first.start_time_s.value();
  grid.ts_s = first.ts_s.value();
  grid.steps = first.num_steps();
  std::vector<double> capacities;
  capacities.reserve(fleets_.size());
  for (const auto& fleet : fleets_) {
    double capacity_rps = 0.0;
    for (const auto& idc : fleet->spec.scenario.idcs) {
      capacity_rps += static_cast<double>(idc.max_servers) *
                      idc.power.service_rate.value();
    }
    capacities.push_back(capacity_rps);
  }
  admission_plan_ = std::make_shared<const admission::AdmissionPlan>(
      spec, first.workload, grid, std::move(capacities));

  // Each fleet now sees only its routed slice of the admitted stream.
  // The per-fleet scenario's own admission block is cleared: the routed
  // view has a different (local) portal space, and the plan already
  // owns the registry.
  for (std::size_t f = 0; f < fleets_.size(); ++f) {
    core::Scenario& scenario = fleets_[f]->spec.scenario;
    scenario.workload =
        std::make_shared<admission::RoutedWorkload>(admission_plan_, f);
    scenario.admission = admission::AdmissionSpec{};
  }
}

bool ControlPlane::pop_local(std::size_t worker, std::size_t& index) {
  WorkerQueue& queue = *queues_[worker];
  util::MutexLock lock(queue.mutex);
  if (queue.fleets.empty()) return false;
  index = queue.fleets.front();
  queue.fleets.pop_front();
  return true;
}

bool ControlPlane::steal(std::size_t worker, std::size_t& index) {
  for (std::size_t step = 1; step < workers_; ++step) {
    WorkerQueue& victim = *queues_[(worker + step) % workers_];
    util::MutexLock lock(victim.mutex);
    if (victim.fleets.empty()) continue;
    index = victim.fleets.back();
    victim.fleets.pop_back();
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ControlPlane::push_back(std::size_t worker, std::size_t index) {
  WorkerQueue& queue = *queues_[worker];
  util::MutexLock lock(queue.mutex);
  queue.fleets.push_back(index);
}

bool ControlPlane::process(FleetState& fleet) {
  const auto begin = clock_type::now();
  try {
    if (!fleet.session) {
      fleet.session = fleet.spec.checkpoint
                          ? std::make_unique<runtime::FleetSession>(
                                fleet.spec.scenario, fleet.spec.options,
                                *fleet.spec.checkpoint)
                          : std::make_unique<runtime::FleetSession>(
                                fleet.spec.scenario, fleet.spec.options);
    }
    // This worker owns the fleet exclusively between deque operations
    // (the deque mutex handoff is the fence), so it claims both
    // session halves for the quantum.
    runtime::FleetSession& session = *fleet.session;
    util::RoleGuard stream(session.stream_role());
    util::RoleGuard control(session.control_role());
    bool exhausted = false;
    for (std::size_t events = 0; events < options_.batch_events; ++events) {
      if (session.done() ||
          fleet.stop_requested.load(std::memory_order_relaxed)) {
        break;
      }
      const auto event = session.poll();
      if (!event) {
        exhausted = true;  // every stream drained (defensive; done()
        break;             // normally fires first)
      }
      session.apply(*event);
    }
    fleet.wall_s += seconds_between(begin, clock_type::now());
    if (session.done() || exhausted ||
        fleet.stop_requested.load(std::memory_order_relaxed)) {
      const bool completed =
          session.next_step() >= session.scenario().num_steps();
      fleet.result.result = session.finish(completed, fleet.wall_s);
      fleet.result.ok = true;
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
    return false;
  } catch (const std::exception& e) {
    fleet.wall_s += seconds_between(begin, clock_type::now());
    fleet.result.ok = false;
    fleet.result.error = e.what();
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }
}

void ControlPlane::worker_loop(std::size_t worker) {
  while (remaining_.load(std::memory_order_acquire) > 0) {
    std::size_t index = 0;
    if (!pop_local(worker, index) && !steal(worker, index)) {
      // Every runnable fleet is currently owned by another worker (or
      // the plane is draining). Yield until remaining_ hits zero.
      std::this_thread::yield();
      continue;
    }
    if (!process(*fleets_[index])) push_back(worker, index);
  }
}

PlaneReport ControlPlane::run() {
  require(!ran_, "ControlPlane::run: a plane instance runs once");
  ran_ = true;
  const auto run_begin = clock_type::now();

  std::vector<std::thread> pool;
  pool.reserve(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    pool.emplace_back([this, w] { worker_loop(w); });
  }
  for (std::thread& worker : pool) worker.join();
  run_done_ = true;

  PlaneReport report;
  report.workers = workers_;
  report.wall_s = seconds_between(run_begin, clock_type::now());
  report.steals = steals_.load();
  report.factor_cache_hits = factor_cache_->hits();
  report.factor_cache_misses = factor_cache_->misses();
  report.fleets.reserve(fleets_.size());
  for (const auto& fleet : fleets_) report.fleets.push_back(fleet->result);

  report.admission = admission_plan_;
  if (admission_plan_) {
    // Exactly-once conservation audit against the recorded traces.
    // Only meaningful when every fleet succeeded with a trace on clean
    // feeds (fault injection legitimately perturbs delivered demand).
    bool eligible = true;
    std::vector<const std::vector<std::vector<double>>*> series;
    series.reserve(fleets_.size());
    std::uint64_t steps_to_check = admission_plan_->grid().steps;
    for (const auto& fleet : fleets_) {
      if (!fleet->result.ok || !fleet->result.result.trace ||
          fleet->spec.options.workload_faults.any()) {
        eligible = false;
        break;
      }
      const auto& portal_rps = fleet->result.result.trace->portal_rps;
      series.push_back(&portal_rps);
      const std::uint64_t rows =
          portal_rps.empty() ? 0 : portal_rps.front().size();
      steps_to_check =
          std::min<std::uint64_t>(steps_to_check, rows > 0 ? rows - 1 : 0);
    }
    if (eligible) {
      const auto violations = admission::verify_exactly_once(
          *admission_plan_, series, steps_to_check);
      report.admission_verified = true;
      report.admission_route_violations = violations.size();
    }
  }
  return report;
}

bool ControlPlane::request_stop(const std::string& id) {
  for (const auto& fleet : fleets_) {
    if (fleet->spec.id == id) {
      fleet->stop_requested.store(true, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ControlPlane::request_stop_all() {
  for (const auto& fleet : fleets_) {
    fleet->stop_requested.store(true, std::memory_order_relaxed);
  }
}

runtime::RuntimeCheckpoint ControlPlane::checkpoint(
    const std::string& id) const {
  require(run_done_, "ControlPlane::checkpoint: valid after run() returns");
  for (const auto& fleet : fleets_) {
    if (fleet->spec.id != id) continue;
    require(fleet->session != nullptr,
            "ControlPlane::checkpoint: fleet '" + id + "' has no state");
    // Post-run(): the pool has joined, so the caller is the only thread
    // and may claim both session halves.
    util::RoleGuard stream(fleet->session->stream_role());
    util::RoleGuard control(fleet->session->control_role());
    return fleet->session->checkpoint();
  }
  throw InvalidArgument("ControlPlane::checkpoint: unknown fleet '" + id +
                        "'");
}

}  // namespace gridctl::controlplane
