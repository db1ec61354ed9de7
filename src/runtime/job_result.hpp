// The sweep-report row of one runtime run, so a served run
// (`gridctl serve --report`), a plane fleet
// (controlplane::PlaneReport::to_sweep_report) and a swept job are read
// through one report schema.
#pragma once

#include <string>
#include <utility>

#include "engine/sweep.hpp"
#include "runtime/fleet_session.hpp"

namespace gridctl::runtime {

// The JobResult of a successful run named `name`.
inline engine::JobResult to_job_result(std::string name,
                                       const RuntimeResult& result) {
  engine::JobResult job;
  job.name = std::move(name);
  job.policy = result.summary.policy;
  job.ok = true;
  job.summary = result.summary;
  job.telemetry = result.telemetry;
  job.trace = result.trace;
  return job;
}

}  // namespace gridctl::runtime
