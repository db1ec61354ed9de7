// Layer replay for the traced run.
//
// Several layers run only inside core::CostController::step, where the
// benchmark cannot place a span without changing the program. The replay
// re-runs one recorded session tick by tick instead: a fresh controller
// restored from the session's state before its first tick is fed the
// prices and demands the session trace recorded, and each child layer's
// public function (price model, AR predictor, reference optimizer,
// invariant checker, plant) is called on the same inputs the controller
// used. Every replayed output is compared bit for bit with the recorded
// trace or with the controller's own decision, so the timed work is the
// work the session did.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "runtime/checkpoint.hpp"
#include "stats.hpp"

namespace gridbench {

struct ReplayLayers {
  std::size_t timed_ticks = 0;  // ticks after the first (the first is setup)
  // Seconds summed over the timed ticks.
  double step_s = 0.0;
  double price_s = 0.0;
  double predict_s = 0.0;
  double reference_s = 0.0;
  double check_s = 0.0;
  double plant_s = 0.0;
  std::uint64_t reference_calls = 0;
  std::size_t qp_iters_max = 0;
  std::uint64_t mismatches = 0;  // replayed values that differ from the record
  std::string first_mismatch;
};

// Replays `ticks` control periods starting at `start.next_step`.
ReplayLayers replay_layers(const gridctl::core::Scenario& scenario,
                           const gridctl::runtime::RuntimeCheckpoint& start,
                           const gridctl::core::SimulationTrace& trace,
                           std::size_t ticks, SpanRecorder& spans);

}  // namespace gridbench
