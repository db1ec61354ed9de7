// Counters the online runtime keeps about itself, alongside the
// controller-level `engine::RunTelemetry`: feed health (ticks seen,
// dropped, late, staleness at the control boundary) and event-clock
// health (deadline misses, degraded periods, pacing lag).
//
// Everything here is owned by the control thread; the checkpoint codec
// (runtime/checkpoint.hpp) persists the deterministic counters so a
// restored runtime's final report matches an uninterrupted run.
#pragma once

#include <cstdint>
#include <limits>

#include "util/json.hpp"

namespace gridctl::runtime {

struct RuntimeStats {
  // Feed accounting.
  std::uint64_t price_ticks = 0;      // applied price updates
  std::uint64_t workload_ticks = 0;   // applied workload updates
  std::uint64_t dropped_ticks = 0;    // fault-injected losses, both feeds
  std::uint64_t late_ticks = 0;       // arrived after their nominal time
  // Control periods that ran on a feed value older than one period
  // (the degradation a dropped or late tick actually causes).
  std::uint64_t stale_price_steps = 0;
  std::uint64_t stale_workload_steps = 0;

  // Event-clock accounting. `deadline_s` is the per-step wall budget in
  // force (infinity = free run, no deadline).
  double deadline_s = std::numeric_limits<double>::infinity();
  std::uint64_t deadline_misses = 0;  // steps whose wall time exceeded it
  std::uint64_t degraded_steps = 0;   // periods served by the no-QP hold
  double max_lag_s = 0.0;             // worst pacing lag at a step start
  std::size_t max_queue_depth = 0;    // event-queue high-water mark

  // JSON view (schema in docs/ARCHITECTURE.md).
  JsonValue to_json() const;
};

}  // namespace gridctl::runtime
