// Multi-fleet control plane: drive N independent online control fleets
// (each a runtime::FleetSession — one scenario, one controller, one
// plant, its own feeds) on a fixed pool of workers instead of two
// threads per fleet.
//
// Declaration is first-class: a `FleetSpec` names the fleet, carries
// its scenario and RuntimeOptions, and optionally a checkpoint to
// resume from. The plane owns scheduling:
//
//  * Work-stealing tick scheduler. Each worker keeps a FIFO deque of
//    fleet indices; it pops its own front, steals from the back of a
//    sibling when empty, and requeues a fleet after applying at most
//    `batch_events` events (the fairness quantum — one slow fleet
//    cannot starve the rest; see the fairness test). A fleet is owned
//    by exactly one worker between queue operations, and every handoff
//    goes through a deque mutex, so session state needs no locking and
//    the schedule never changes results: event ordering inside a fleet
//    depends on event time only, so every fleet's trajectory is
//    bit-identical to a solo free-running ControlRuntime at any worker
//    count (equivalence test, including 1000 fleets).
//
//  * Amortized MPC configuration. The plane installs one shared
//    solvers::CondensedFactorCache into every fleet, so fleets with the
//    same plant shape/weights/penalties pay the condensed factorization
//    (the whole ρ ladder, O(N·β2³) per rung) once and share its
//    memory. Hit/miss counts surface in the report.
//
//  * Lock-free result aggregation. Workers write only their fleet's
//    result slot plus a few atomic counters; the final PlaneReport is
//    assembled after the pool joins and converts to a SweepReport so
//    existing analysis tooling reads a plane run unchanged.
//
//  * Per-fleet kill and resume. `request_stop(id)` halts one fleet at
//    its next step boundary (resumable, like ControlRuntime); after
//    run() returns, `checkpoint(id)` yields its full resume state,
//    which a later plane (or a solo ControlRuntime) continues
//    bit-identically.
//
// A fleet that throws (strict invariant violation, bad scenario) is
// reported through FleetResult::error — it never takes down the plane.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "admission/plan.hpp"
#include "admission/spec.hpp"
#include "engine/sweep.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fleet_session.hpp"
#include "util/thread_annotations.hpp"

namespace gridctl::controlplane {

// One fleet under plane management. `options.acceleration` is ignored:
// the plane always free-runs (pacing N fleets against one wall clock is
// a different product; deadline accounting still works via deadline_s).
struct FleetSpec {
  std::string id;  // unique label; names the fleet in the report
  core::Scenario scenario;
  runtime::RuntimeOptions options;
  // Resume point: when set, the fleet restores from this checkpoint
  // (validated against the scenario) instead of starting fresh.
  std::optional<runtime::RuntimeCheckpoint> checkpoint;
};

struct PlaneOptions {
  // Worker threads; 0 = hardware concurrency.
  std::size_t workers = 0;
  // Fairness quantum: max events applied to one fleet before it is
  // requeued behind its siblings.
  std::size_t batch_events = 64;
  // Shared condensed-factorization cache. Null = the plane creates one.
  // Installed into every fleet whose options don't already carry one.
  std::shared_ptr<solvers::CondensedFactorCache> factor_cache;
  // Admission front-end. When set (or when the first fleet's scenario
  // carries an enabled admission block), the plane compiles it into an
  // AdmissionPlan against the fleets' shared workload source and time
  // grid, replaces every fleet's workload with its RoutedWorkload view,
  // and embeds routing + token-bucket state in fleet checkpoints. All
  // fleets must then share one workload source and one
  // start/ts/duration window.
  std::optional<admission::AdmissionSpec> admission;
};

struct FleetResult {
  std::string id;
  bool ok = false;
  std::string error;  // what() of a thrown fleet; empty when ok
  runtime::RuntimeResult result;  // valid when ok
};

struct PlaneReport {
  std::size_t workers = 0;
  double wall_s = 0.0;  // whole-plane wall clock
  // Scheduler and cache observability.
  std::uint64_t steals = 0;  // fleets taken from a sibling's deque
  std::uint64_t factor_cache_hits = 0;
  std::uint64_t factor_cache_misses = 0;
  std::vector<FleetResult> fleets;  // FleetSpec submission order
  // Admission observability (null/zero when the plane ran without an
  // admission layer). `admission_verified` is true when every fleet
  // succeeded with traces on clean (un-faulted) feeds and the recorded
  // per-portal demand was checked against the plan — in which case
  // `admission_route_violations` counts exactly-once breaches (0 =
  // conservation held).
  std::shared_ptr<const admission::AdmissionPlan> admission;
  bool admission_verified = false;
  std::uint64_t admission_route_violations = 0;

  std::size_t failed_fleets() const;
  // Total control steps executed across all fleets (throughput metric).
  std::uint64_t total_steps() const;

  // SweepReport-compatible view: one JobResult per fleet, named by its
  // id, so sweep tooling (tools/, bench analysis) reads a plane run
  // unchanged.
  engine::SweepReport to_sweep_report() const;
  // {"sweep": <SweepReport>, "plane": {workers, steals, cache,
  //  per-fleet runtime stats}}.
  JsonValue to_json() const;
};

class ControlPlane {
 public:
  // Validates specs (non-empty unique ids, at least one fleet) and
  // installs the shared factor cache. Sessions are built lazily inside
  // the workers so construction cost (warm start) parallelizes too.
  ControlPlane(std::vector<FleetSpec> fleets, PlaneOptions options = {});
  ~ControlPlane();

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // Drive every fleet to completion (or its stop_after_step, or a
  // requested stop) on the worker pool. Call once per plane.
  PlaneReport run();

  // Thread-safe; the fleet stops at its next step boundary and reports
  // completed = false. Returns false for an unknown id.
  bool request_stop(const std::string& id);
  // Stop every fleet (plane shutdown); run() still returns a full
  // report with every fleet resumable.
  void request_stop_all();

  // Full resume state of one fleet. Valid after run() returns; throws
  // for an unknown id or a fleet that failed before building state.
  runtime::RuntimeCheckpoint checkpoint(const std::string& id) const;

  std::size_t workers() const { return workers_; }
  const std::shared_ptr<solvers::CondensedFactorCache>& factor_cache() const {
    return factor_cache_;
  }
  // The compiled admission plan; null when the plane has no admission
  // layer.
  const std::shared_ptr<const admission::AdmissionPlan>& admission_plan()
      const {
    return admission_plan_;
  }

 private:
  struct FleetState {
    FleetSpec spec;
    std::unique_ptr<runtime::FleetSession> session;  // built in a worker
    std::atomic<bool> stop_requested{false};
    double wall_s = 0.0;  // accumulated processing wall time
    FleetResult result;
  };

  // One deque per worker; the owner pops the front, thieves take the
  // back. Guarded by a per-deque mutex: the queues are touched once per
  // `batch_events` events, so contention is negligible and the lock
  // doubles as the memory fence that hands a session between workers.
  //
  // That handoff contract is annotated explicitly: the deque itself is
  // GUARDED_BY the mutex, and the *session state* a popped index leads
  // to is guarded by the session's own stream/control roles, which the
  // worker claims (RoleGuard in process()) only between taking the
  // index off a deque and requeueing it. The mutex release on push
  // publishes the session's writes; the acquire on the next pop (by
  // whichever worker) observes them — so no session member needs a
  // lock of its own.
  struct WorkerQueue {
    util::Mutex mutex;
    std::deque<std::size_t> fleets GRIDCTL_GUARDED_BY(mutex);
  };

  void worker_loop(std::size_t worker);
  bool pop_local(std::size_t worker, std::size_t& index);
  bool steal(std::size_t worker, std::size_t& index);
  void push_back(std::size_t worker, std::size_t index);
  // Run one quantum of a fleet; returns true when the fleet is finished
  // (result slot written, remaining_ decremented).
  bool process(FleetState& fleet);

  // Compile options_.admission (or the first fleet's scenario block)
  // into admission_plan_ and install RoutedWorkload views. Called from
  // the constructor after fleet states exist. Takes the spec by value:
  // it may alias a fleet scenario's block, which this clears.
  void install_admission(admission::AdmissionSpec spec);

  PlaneOptions options_;
  std::size_t workers_ = 0;
  std::shared_ptr<solvers::CondensedFactorCache> factor_cache_;
  std::shared_ptr<const admission::AdmissionPlan> admission_plan_;
  std::vector<std::unique_ptr<FleetState>> fleets_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::atomic<std::size_t> remaining_{0};
  std::atomic<std::uint64_t> steals_{0};
  bool ran_ = false;
  bool run_done_ = false;
};

}  // namespace gridctl::controlplane
