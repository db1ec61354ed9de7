#include "generators.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <utility>

namespace gridbench {

namespace units = gridctl::units;

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t hash_keys(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                        std::uint64_t c) {
  return splitmix(splitmix(splitmix(splitmix(seed) ^ a) ^ b) ^ c);
}

namespace {

// Uniform in [0, 1) from the hashed keys.
double uniform01(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                 std::uint64_t c) {
  return static_cast<double>(hash_keys(seed, a, b, c) >> 11) * 0x1.0p-53;
}

// Standard normal from two hashed uniforms (Box-Muller).
double normal01(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                std::uint64_t c) {
  const double u1 = 1.0 - uniform01(seed, a, b, c);  // (0, 1]
  const double u2 = uniform01(seed ^ 0x5bd1e995ULL, a, b, c);
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

}  // namespace

std::int64_t TickGrid::tick(double time_s) const {
  return static_cast<std::int64_t>(std::llround((time_s - start_s) / ts_s));
}

PerturbedTracePrice::PerturbedTracePrice(gridctl::market::TracePrice base,
                                         TickGrid grid, double sigma_per_mwh,
                                         std::uint64_t seed)
    : base_(std::move(base)), grid_(grid), sigma_(sigma_per_mwh), seed_(seed) {}

units::PricePerMwh PerturbedTracePrice::price(std::size_t region,
                                              units::Seconds time,
                                              units::Watts demand) const {
  const units::PricePerMwh base = base_.price(region, time, demand);
  const std::int64_t k = grid_.tick(time.value());
  if (k < 0) return base;
  return units::PricePerMwh{
      base.value() +
      sigma_ * normal01(seed_, 1, region, static_cast<std::uint64_t>(k))};
}

RandomWalkPrice::RandomWalkPrice(std::vector<double> base, TickGrid grid,
                                 std::size_t ticks, double step_per_mwh,
                                 double band_per_mwh, std::uint64_t seed)
    : grid_(grid), base_(std::move(base)), walk_(base_.size()) {
  for (std::size_t r = 0; r < base_.size(); ++r) {
    std::vector<double>& walk = walk_[r];
    walk.resize(std::max<std::size_t>(ticks, 1));
    double offset = 0.0;
    for (std::size_t k = 0; k < walk.size(); ++k) {
      offset += step_per_mwh * (2.0 * uniform01(seed, 2, r, k) - 1.0);
      // Reflect at the band edges.
      if (offset > band_per_mwh) offset = 2.0 * band_per_mwh - offset;
      if (offset < -band_per_mwh) offset = -2.0 * band_per_mwh - offset;
      walk[k] = base_[r] + offset;
    }
  }
}

units::PricePerMwh RandomWalkPrice::price(std::size_t region,
                                          units::Seconds time,
                                          units::Watts) const {
  const std::int64_t k = grid_.tick(time.value());
  if (k < 0) return units::PricePerMwh{base_[region]};
  const auto& walk = walk_[region];
  return units::PricePerMwh{
      walk[std::min<std::size_t>(static_cast<std::size_t>(k), walk.size() - 1)]};
}

NoisyDiurnalWorkload::NoisyDiurnalWorkload(std::vector<double> base_rates,
                                           double amplitude, double peak_hour,
                                           double noise, TickGrid grid,
                                           std::uint64_t seed)
    : base_(std::move(base_rates)),
      amplitude_(amplitude),
      peak_hour_(peak_hour),
      noise_(noise),
      grid_(grid),
      seed_(seed) {}

double NoisyDiurnalWorkload::rate(std::size_t portal, double time_s) const {
  const double hour = std::fmod(time_s / 3600.0, 24.0);
  const double diurnal =
      1.0 + amplitude_ * std::cos(2.0 * std::numbers::pi *
                                  (hour - peak_hour_) / 24.0);
  const std::int64_t k = grid_.tick(time_s);
  const double jitter =
      k < 0 ? 0.0
            : noise_ * (2.0 * uniform01(seed_, 3, portal,
                                        static_cast<std::uint64_t>(k)) -
                        1.0);
  return base_[portal] * diurnal * (1.0 + jitter);
}

gridctl::admission::AdmissionSpec admission_spec(
    const gridctl::workload::WorkloadSource& source, std::size_t fleets,
    std::size_t tenants, double quota_share, TickGrid grid,
    std::uint64_t steps) {
  namespace admission = gridctl::admission;
  const std::size_t portals = source.num_portals();
  const std::vector<double> initial = source.rates(grid.start_s);
  std::vector<double> offered(tenants, 0.0);
  for (std::size_t p = 0; p < portals; ++p) offered[p % tenants] += initial[p];

  admission::AdmissionSpec spec;
  for (std::size_t t = 0; t < tenants; ++t) {
    admission::TenantSpec tenant;
    tenant.id = "t" + std::to_string(t);
    tenant.quota_rps = quota_share * offered[t];
    tenant.burst_s = grid.ts_s;
    spec.tenants.push_back(std::move(tenant));
  }
  for (std::size_t p = 0; p < portals; ++p) {
    admission::PortalSpec portal;
    portal.id = "p" + std::to_string(p);
    portal.tenant = "t" + std::to_string(p % tenants);
    portal.fleet = p % fleets;
    spec.portals.push_back(std::move(portal));
  }
  for (std::size_t f = 0; f < fleets; ++f) {
    admission::ReassignmentSpec move;
    move.portal = "p" + std::to_string(f);  // fleet f's first portal
    move.fleet = (f + 1) % fleets;
    const std::uint64_t at_tick = steps / 4 + f * (steps / 2) / fleets;
    move.at_time_s = grid.start_s + static_cast<double>(at_tick) * grid.ts_s;
    spec.reassignments.push_back(std::move(move));
  }
  return spec;
}

}  // namespace gridbench
