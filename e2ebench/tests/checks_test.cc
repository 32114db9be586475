// Each correctness check of the benchmark passes on right input and fails
// on a deliberately wrong one: a perturbed factor, a dropped push, a
// negative accumulator, and the other faults the checks are there for.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "checks.h"
#include "mf/dsgd.h"
#include "mf/matrix_gen.h"
#include "ps/system.h"

namespace e2e {
namespace {

using namespace lapse;

struct SmallDsgd {
  mf::SparseMatrix matrix;
  std::vector<float> ps_factors;
  std::vector<double> ps_losses;
  DsgdReference ref;
};

// A small DSGD run on a 2-node, 2-worker-per-node PS next to the
// sequential reference started from the same factors.
SmallDsgd RunSmallDsgd() {
  SmallDsgd s;
  mf::MatrixGenConfig gen;
  gen.rows = 200;
  gen.cols = 60;
  gen.nnz = 3'000;
  gen.seed = 5;
  s.matrix = mf::GenerateLowRankMatrix(gen);
  mf::DsgdConfig dsgd;
  dsgd.rank = 4;
  dsgd.epochs = 3;
  ps::PsSystem system(mf::MakeDsgdPsConfig(s.matrix, dsgd, 2, 2,
                                           net::LatencyConfig::Zero()));
  mf::InitFactorsPs(system, s.matrix, dsgd);
  const uint64_t keys = gen.rows + gen.cols;
  std::vector<float> initial(keys * dsgd.rank);
  for (uint64_t k = 0; k < keys; ++k) {
    system.GetValue(k, initial.data() + k * dsgd.rank);
  }
  for (const mf::EpochResult& e : mf::TrainDsgdOnPs(system, s.matrix, dsgd)) {
    s.ps_losses.push_back(e.loss);
  }
  s.ps_factors.resize(keys * dsgd.rank);
  for (uint64_t k = 0; k < keys; ++k) {
    system.GetValue(k, s.ps_factors.data() + k * dsgd.rank);
  }
  std::vector<Cell> cells;
  for (const mf::MatrixEntry& e : s.matrix.entries) {
    cells.push_back({e.row, e.col, e.value});
  }
  s.ref = SequentialDsgd(cells, gen.rows, gen.cols, dsgd.rank, dsgd.lr,
                         dsgd.reg, 4, dsgd.epochs, initial);
  return s;
}

TEST(DsgdCheck, PsRunMatchesSequentialReference) {
  const SmallDsgd s = RunSmallDsgd();
  EXPECT_EQ(CheckFactorsMatch(s.ps_factors, s.ref.factors, 1e-5), "");
  EXPECT_EQ(CheckLossesMatch(s.ps_losses, s.ref.losses, 1e-9), "");
  // Training moved the factors, so the match is not vacuous.
  EXPECT_LT(s.ref.losses.back(), s.ref.losses.front());
}

TEST(DsgdCheck, PerturbedFactorFails) {
  SmallDsgd s = RunSmallDsgd();
  s.ps_factors[s.ps_factors.size() / 2] += 1e-3f;
  EXPECT_NE(CheckFactorsMatch(s.ps_factors, s.ref.factors, 1e-5), "");
  s.ps_factors[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_NE(CheckFactorsMatch(s.ps_factors, s.ref.factors, 1e-5), "");
}

TEST(DsgdCheck, WrongLossOrEpochCountFails) {
  const std::vector<double> ref = {1.0, 0.5};
  EXPECT_EQ(CheckLossesMatch(ref, ref, 1e-9), "");
  EXPECT_NE(CheckLossesMatch({1.0, 0.5001}, ref, 1e-9), "");
  EXPECT_NE(CheckLossesMatch({1.0}, ref, 1e-9), "");
}

TEST(DsgdCheck, ReferenceDependsOnBlockOrder) {
  // The reference follows the blocking schedule: a different worker count
  // gives a different update order and so different factors.
  const SmallDsgd s = RunSmallDsgd();
  std::vector<Cell> cells;
  for (const mf::MatrixEntry& e : s.matrix.entries) {
    cells.push_back({e.row, e.col, e.value});
  }
  const std::vector<float> initial(s.ref.factors.size(), 0.1f);
  const DsgdReference two = SequentialDsgd(cells, 200, 60, 4, 0.01f, 0.02f,
                                           2, 1, initial);
  const DsgdReference four = SequentialDsgd(cells, 200, 60, 4, 0.01f, 0.02f,
                                            4, 1, initial);
  EXPECT_NE(CheckFactorsMatch(two.factors, four.factors, 0.0), "");
}

TEST(KgeCheck, AdagradStateAcceptsTrainedValues) {
  const std::vector<std::vector<float>> values = {{0.1f, -0.2f, 0.5f, 0.7f},
                                                  {0.3f, 0.4f, 0.0f, 0.0f}};
  EXPECT_EQ(CheckAdagradState(values, {true, false}), "");
}

TEST(KgeCheck, NegativeAccumulatorFails) {
  const std::vector<std::vector<float>> values = {{0.1f, -0.2f, 0.5f, -0.7f}};
  EXPECT_NE(CheckAdagradState(values, {false}), "");
}

TEST(KgeCheck, UntrainedAccumulatorOfTouchedKeyFails) {
  const std::vector<std::vector<float>> values = {{0.1f, -0.2f, 0.5f, 0.0f}};
  EXPECT_NE(CheckAdagradState(values, {true}), "");
}

TEST(KgeCheck, NonFiniteValueFails) {
  const std::vector<std::vector<float>> values = {
      {std::numeric_limits<float>::infinity(), 0.0f, 1.0f, 1.0f}};
  EXPECT_NE(CheckAdagradState(values, {true}), "");
}

TEST(KgeCheck, LossMustDecrease) {
  EXPECT_EQ(CheckLossDecreased(0.7, 0.6), "");
  EXPECT_NE(CheckLossDecreased(0.6, 0.6), "");
  EXPECT_NE(CheckLossDecreased(0.6, 0.7), "");
}

TEST(KgeCheck, BitwiseComparisonCatchesOneFlippedBit) {
  const std::vector<float> want = {1.0f, -2.5f, 0.0f};
  std::vector<float> got = want;
  EXPECT_EQ(CheckBitwiseEqual(got, want, "pull"), "");
  uint32_t bits = 0;
  std::memcpy(&bits, &got[1], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&got[1], &bits, sizeof(bits));
  EXPECT_NE(CheckBitwiseEqual(got, want, "pull"), "");
  got = want;
  got[2] = -0.0f;  // equal as a number, not as bits
  EXPECT_NE(CheckBitwiseEqual(got, want, "pull"), "");
}

TEST(ZipfCheck, PushTotalsAcceptExactSums) {
  const std::vector<float> initial = {1, 2, 3, 4};
  const std::vector<float> final_values = {4, 5, 3, 4};
  EXPECT_EQ(CheckPushTotals(initial, final_values, {3, 0}, 2, 1.0f, 0.0), "");
}

TEST(ZipfCheck, DroppedPushFails) {
  const std::vector<float> initial = {1, 2, 3, 4};
  // Key 0 was pushed three times, but one push never reached its owner.
  const std::vector<float> final_values = {3, 4, 3, 4};
  EXPECT_NE(CheckPushTotals(initial, final_values, {3, 0}, 2, 1.0f, 0.0), "");
}

TEST(ZipfCheck, PulledValuesMustLieBetweenInitialAndFinal) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> initial = {1, 2};
  const std::vector<float> final_values = {4, 2};
  EXPECT_EQ(CheckPulledInRange(initial, final_values, {1, inf}, {4, -inf}),
            "");
  EXPECT_NE(CheckPulledInRange(initial, final_values, {0.5f, inf},
                               {4, -inf}),
            "");
  EXPECT_NE(CheckPulledInRange(initial, final_values, {1, 2}, {4, 3}), "");
}

}  // namespace
}  // namespace e2e
