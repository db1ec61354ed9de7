// Validates the analytic queueing substrate against the discrete-event
// ground truth: Erlang-C, the exact M/M/n response time, Little's law,
// and the paper's simplified bound as an upper bound on the wait.
#include "datacenter/queue_des.hpp"

#include <gtest/gtest.h>

#include "datacenter/latency.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridctl::datacenter {
namespace {

struct MmnCase {
  std::size_t servers;
  double mu;
  double lambda;
};

class MmnValidation : public ::testing::TestWithParam<MmnCase> {};

TEST_P(MmnValidation, ErlangCMatchesSimulatedQueueingProbability) {
  const auto [n, mu, lambda] = GetParam();
  const auto sim = simulate_mmn(n, mu, lambda, 400000, /*seed=*/7);
  const double analytic = erlang_c(n, lambda / mu);
  EXPECT_NEAR(sim.queueing_probability, analytic,
              0.05 * analytic + 0.005);
}

TEST_P(MmnValidation, ResponseTimeMatchesAnalytic) {
  const auto [n, mu, lambda] = GetParam();
  const auto sim = simulate_mmn(n, mu, lambda, 400000, /*seed=*/11);
  const double analytic = mmn_response_time(n, units::Rps{mu}, units::Rps{lambda}).value();
  EXPECT_NEAR(sim.mean_response_s, analytic, 0.05 * analytic);
}

TEST_P(MmnValidation, SimplifiedBoundIsAnUpperBoundOnTheWait) {
  const auto [n, mu, lambda] = GetParam();
  const auto sim = simulate_mmn(n, mu, lambda, 200000, /*seed=*/13);
  // The paper's P_Q = 1 model overestimates: 1/(n mu - lambda).
  EXPECT_LE(sim.mean_wait_s,
            simplified_latency(n, units::Rps{mu}, units::Rps{lambda}).value() * 1.05 +
                1e-4);
}

TEST_P(MmnValidation, LittlesLawHolds) {
  const auto [n, mu, lambda] = GetParam();
  const auto sim = simulate_mmn(n, mu, lambda, 400000, /*seed=*/17);
  // L_q = lambda W_q.
  EXPECT_NEAR(sim.mean_queue_length, lambda * sim.mean_wait_s,
              0.06 * std::max(1e-3, lambda * sim.mean_wait_s) + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    LoadPoints, MmnValidation,
    ::testing::Values(MmnCase{1, 1.0, 0.6}, MmnCase{2, 1.0, 1.5},
                      MmnCase{5, 2.0, 7.0}, MmnCase{10, 1.25, 10.0},
                      MmnCase{20, 1.75, 30.0}, MmnCase{50, 1.0, 45.0}),
    [](const ::testing::TestParamInfo<MmnCase>& info) {
      return format("n%zu_rho%d", info.param.servers,
                    static_cast<int>(100.0 * info.param.lambda /
                                     (static_cast<double>(info.param.servers) *
                                      info.param.mu)));
    });

TEST(MmnSimulation, Validation) {
  EXPECT_THROW(simulate_mmn(0, 1.0, 0.5, 100, 1), InvalidArgument);
  EXPECT_THROW(simulate_mmn(1, 1.0, 1.5, 100, 1), InvalidArgument);  // unstable
  EXPECT_THROW(simulate_mmn(1, 1.0, 0.5, 100, 1, 200), InvalidArgument);
}

TEST(MmnSimulation, DeterministicPerSeed) {
  const auto a = simulate_mmn(3, 1.0, 2.0, 50000, 99);
  const auto b = simulate_mmn(3, 1.0, 2.0, 50000, 99);
  EXPECT_DOUBLE_EQ(a.mean_wait_s, b.mean_wait_s);
  EXPECT_DOUBLE_EQ(a.mean_queue_length, b.mean_queue_length);
}

}  // namespace
}  // namespace gridctl::datacenter
