// Seeded input generators owned by the benchmark.
//
// Every generated value is a pure function of (seed, stream, index, tick),
// computed through a counter hash, so a model is const, thread-safe and
// independent of the order in which the program queries it: the same seed
// gives bit-identical inputs however a run is scheduled. Times map to the
// control-tick grid by rounding (t - start) / ts; reads before the window
// (the warm start looks one hour back) land on negative ticks, which the
// models treat as "no perturbation yet".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "admission/spec.hpp"
#include "market/price_model.hpp"
#include "market/trace_price.hpp"
#include "workload/generators.hpp"

namespace gridbench {

// splitmix64 finalizer over a combination of keys.
std::uint64_t hash_keys(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                        std::uint64_t c);

// The control-tick grid a generated series is indexed by.
struct TickGrid {
  double start_s = 0.0;
  double ts_s = 10.0;
  // Nearest tick index of `time_s`; negative before the window start.
  std::int64_t tick(double time_s) const;
};

// The paper's three-region LMP traces plus an independent seeded
// Gaussian perturbation per region and control tick.
class PerturbedTracePrice : public gridctl::market::PriceModel {
 public:
  PerturbedTracePrice(gridctl::market::TracePrice base, TickGrid grid,
                      double sigma_per_mwh, std::uint64_t seed);
  gridctl::units::PricePerMwh price(std::size_t region,
                                    gridctl::units::Seconds time,
                                    gridctl::units::Watts demand) const override;
  std::size_t num_regions() const override { return base_.num_regions(); }

 private:
  gridctl::market::TracePrice base_;
  TickGrid grid_;
  double sigma_;
  std::uint64_t seed_;
};

// Per-region price random walk: region r starts at `base[r]` and moves
// by a uniform step in [-step, +step] every control tick, reflected at
// base[r] +/- band so the walk stays a realistic LMP range over any
// window. The walk is precomputed for `ticks` ticks and holds its last
// value beyond them.
class RandomWalkPrice : public gridctl::market::PriceModel {
 public:
  RandomWalkPrice(std::vector<double> base, TickGrid grid, std::size_t ticks,
                  double step_per_mwh, double band_per_mwh, std::uint64_t seed);
  gridctl::units::PricePerMwh price(std::size_t region,
                                    gridctl::units::Seconds time,
                                    gridctl::units::Watts demand) const override;
  std::size_t num_regions() const override { return walk_.size(); }

 private:
  TickGrid grid_;
  std::vector<double> base_;
  std::vector<std::vector<double>> walk_;  // [region][tick]
};

// Diurnal demand with seeded per-tick noise:
//   L_i(t) = base_i (1 + amplitude cos(2 pi (h - peak_hour) / 24))
//            (1 + noise (2u - 1)),  u = hash(seed, portal, tick).
class NoisyDiurnalWorkload : public gridctl::workload::WorkloadSource {
 public:
  NoisyDiurnalWorkload(std::vector<double> base_rates, double amplitude,
                       double peak_hour, double noise, TickGrid grid,
                       std::uint64_t seed);
  double rate(std::size_t portal, double time_s) const override;
  std::size_t num_portals() const override { return base_.size(); }

 private:
  std::vector<double> base_;
  double amplitude_;
  double peak_hour_;
  double noise_;
  TickGrid grid_;
  std::uint64_t seed_;
};

// The admission front-end of plane_admit: `portals` portals shared by
// `tenants` tenants round-robin, routed round-robin over `fleets`
// fleets, each tenant's token-bucket quota set to `quota_share` of its
// offered rate at the window start (below 1, so the quota tier sheds),
// and one scheduled re-assignment per fleet: fleet f hands its first
// portal to fleet f+1 at a tick spread over the middle half of the
// window.
gridctl::admission::AdmissionSpec admission_spec(
    const gridctl::workload::WorkloadSource& source, std::size_t fleets,
    std::size_t tenants, double quota_share, TickGrid grid,
    std::uint64_t steps);

}  // namespace gridbench
