#include <cmath>

#include <gtest/gtest.h>

#include "agreement_matrix.h"
#include "opt/adagrad.h"
#include "opt/convergence.h"
#include "opt/proximal.h"
#include "opt/sparse_grad.h"

namespace slimfast {
namespace {

TEST(SparseGradTest, TracksTouchedAndClears) {
  SparseGradAccumulator<int32_t> grad(4);
  grad.Add(2, 1.0, 0.5);
  grad.Add(0, 2.0, -1.0);
  grad.Add(2, 1.0, 0.25);
  EXPECT_EQ(grad.touched(), (std::vector<int32_t>{2, 0}));
  EXPECT_DOUBLE_EQ(grad.Slot(2), 0.75);
  EXPECT_DOUBLE_EQ(grad.Slot(0), -2.0);
  grad.Clear();
  EXPECT_TRUE(grad.touched().empty());
  EXPECT_EQ(grad.Slot(2), 0.0);
  EXPECT_EQ(grad.Slot(0), 0.0);
}

/// A slot that cancels to exactly 0.0 mid-accumulation is re-recorded on
/// the next touch, so it appears in touched() twice. Folds must drain with
/// ZeroSlot (the batch-ERM fold discipline) so the duplicate contributes
/// the zeroed slot rather than the final value twice.
TEST(SparseGradTest, CancelledSlotDuplicatesAreZeroDrainSafe) {
  SparseGradAccumulator<int32_t> grad(2);
  grad.Add(0, 1.0, -0.5);
  grad.Add(0, 1.0, 0.5);  // cancels to exactly 0.0; no duplicate yet
  EXPECT_EQ(grad.touched(), (std::vector<int32_t>{0}));
  grad.Add(0, 1.0, -0.5);  // re-touch of a zero slot: duplicate entry
  EXPECT_EQ(grad.touched(), (std::vector<int32_t>{0, 0}));

  double total = 0.0;
  for (int32_t p : grad.touched()) {
    total += grad.Slot(p);
    grad.ZeroSlot(p);
  }
  EXPECT_DOUBLE_EQ(total, -0.5);  // not -1.0
}

TEST(ProximalTest, SoftThreshold) {
  EXPECT_DOUBLE_EQ(SoftThreshold(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(-3.0, 1.0), -2.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(-0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(1.0, 1.0), 0.0);
}

TEST(ProximalTest, InPlaceAndCountZeros) {
  std::vector<double> xs = {2.0, -0.3, 0.0, -5.0, 0.7};
  SoftThresholdInPlace(&xs, 1.0);
  EXPECT_EQ(xs, (std::vector<double>{1.0, 0.0, 0.0, -4.0, 0.0}));
  EXPECT_EQ(CountZeros(xs), 3);
}

TEST(AdaGradTest, StepShrinksWithAccumulatedGradient) {
  AdaGrad ag(1);
  double s1 = ag.Step(0, 1.0);
  double s2 = ag.Step(0, 1.0);
  double s3 = ag.Step(0, 1.0);
  EXPECT_GT(s1, s2);
  EXPECT_GT(s2, s3);
  EXPECT_NEAR(s1, 1.0, 1e-3);           // 1/sqrt(1)
  EXPECT_NEAR(s2, 1.0 / std::sqrt(2.0), 1e-3);
}

TEST(AdaGradTest, CoordinatesAreIndependent) {
  AdaGrad ag(2);
  ag.Step(0, 10.0);
  // Coordinate 1 still has full step size.
  EXPECT_NEAR(ag.Step(1, 1.0), 1.0, 1e-3);
}

TEST(AdaGradTest, ResetRestoresStepSize) {
  AdaGrad ag(1);
  ag.Step(0, 5.0);
  ag.Reset();
  EXPECT_NEAR(ag.Step(0, 1.0), 1.0, 1e-3);
}

TEST(ConvergenceTest, ConvergesAfterStableIterations) {
  ConvergenceTracker tracker(1e-3, 2);
  EXPECT_FALSE(tracker.Update(10.0));
  EXPECT_FALSE(tracker.Update(5.0));     // big change
  EXPECT_FALSE(tracker.Update(5.0001));  // 1st stable
  EXPECT_TRUE(tracker.Update(5.0001));   // 2nd stable -> converged
  EXPECT_TRUE(tracker.converged());
  EXPECT_EQ(tracker.iterations(), 4);
}

TEST(ConvergenceTest, ResetsOnLargeChange) {
  ConvergenceTracker tracker(1e-3, 2);
  tracker.Update(1.0);
  tracker.Update(1.0);      // stable 1
  tracker.Update(100.0);    // resets
  EXPECT_FALSE(tracker.Update(100.0));  // stable 1 again
  EXPECT_TRUE(tracker.Update(100.0));   // stable 2
}

// --- Agreement matrix (Sec. 4.3). ---

Dataset MakeAgreementDataset() {
  // Three sources over 4 objects; sources 0 and 1 always agree, source 2
  // always disagrees with both.
  DatasetBuilder builder("agree", 3, 4, 2);
  for (ObjectId o = 0; o < 4; ++o) {
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 0, 0));
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 1, 0));
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 2, 1));
  }
  return std::move(builder).Build().ValueOrDie();
}

TEST(AgreementMatrixTest, ComputesAgreementRates) {
  Dataset d = MakeAgreementDataset();
  AgreementMatrix m(ObservationStore::FromDataset(d));
  EXPECT_EQ(m.num_sources(), 3);
  EXPECT_TRUE(m.HasOverlap(0, 1));
  EXPECT_DOUBLE_EQ(m.Agreement(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.Agreement(0, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.Agreement(1, 2), -1.0);
  EXPECT_EQ(m.OverlapCount(0, 1), 4);
  EXPECT_EQ(m.NumObservedPairs(), 3);
}

TEST(AgreementMatrixTest, SymmetricAccess) {
  Dataset d = MakeAgreementDataset();
  AgreementMatrix m(ObservationStore::FromDataset(d));
  EXPECT_DOUBLE_EQ(m.Agreement(1, 0), m.Agreement(0, 1));
  EXPECT_EQ(m.OverlapCount(2, 0), m.OverlapCount(0, 2));
}

TEST(AgreementMatrixTest, NoOverlap) {
  DatasetBuilder builder("disjoint", 2, 2, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 1, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  AgreementMatrix m(ObservationStore::FromDataset(d));
  EXPECT_FALSE(m.HasOverlap(0, 1));
  EXPECT_EQ(m.NumObservedPairs(), 0);
}

}  // namespace
}  // namespace slimfast
