// Tests for window-cropping augmentation and moving-average stitching
// (Section 4 / Fig. 7): the paper's 441-window count, sample geometry, and
// full-grid reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/data/augmentation.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::data {
namespace {

TrafficDataset make_dataset(std::int64_t side, int count,
                            std::uint64_t seed = 90) {
  Rng rng(seed);
  std::vector<Tensor> frames;
  for (int i = 0; i < count; ++i) {
    frames.push_back(Tensor::uniform(Shape{side, side}, rng, 10.f, 100.f));
  }
  return TrafficDataset(std::move(frames), 10);
}

TEST(Augmentation, PaperGeometryYields441Windows) {
  // The paper: 100x100 snapshots cropped into 80x80 windows at offset 1
  // produce 441 sub-frames (21 x 21).
  EXPECT_EQ(windows_per_snapshot(100, 100, 80, 1), 441);
}

TEST(Augmentation, WindowCountsForOtherGeometries) {
  EXPECT_EQ(windows_per_snapshot(40, 40, 40, 1), 1);
  EXPECT_EQ(windows_per_snapshot(40, 40, 20, 4), 6 * 6);
  // Stride not dividing the range: boundary window is clamped in.
  EXPECT_EQ(windows_per_snapshot(10, 10, 4, 5), 3 * 3);
}

TEST(Augmentation, EnumerateRespectsTemporalLength) {
  auto specs = enumerate_samples(8, 8, 8, 1, 0, 5, 3);
  // Frames 2, 3, 4 are eligible (need S-1 = 2 predecessors).
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs.front().t, 2);
  EXPECT_EQ(specs.back().t, 4);
}

TEST(Augmentation, MakeSampleShapes) {
  TrafficDataset ds = make_dataset(16, 6);
  UniformProbeLayout layout(8, 8, 2);
  Sample sample = make_sample(ds, layout, {3, 4, 2}, 3, 8);
  EXPECT_EQ(sample.input.shape(), Shape({3, 4, 4}));
  EXPECT_EQ(sample.target.shape(), Shape({8, 8}));
}

TEST(Augmentation, SampleInputIsWindowLocalAggregate) {
  TrafficDataset ds = make_dataset(16, 4);
  UniformProbeLayout layout(8, 8, 4);
  const SampleSpec spec{2, 5, 3};
  Sample sample = make_sample(ds, layout, spec, 1, 8);
  // Input slice 0 must equal the probe average of the cropped window of the
  // (normalised) frame at t = 2.
  Tensor window = crop2d(ds.normalized_frame(2), 5, 3, 8, 8);
  Tensor expected = layout.coarsen(window);
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(sample.input.flat(i), expected.flat(i), 1e-6);
  }
}

TEST(Augmentation, SampleTargetIsNormalisedCrop) {
  TrafficDataset ds = make_dataset(12, 4);
  UniformProbeLayout layout(4, 4, 2);
  Sample sample = make_sample(ds, layout, {3, 2, 6}, 2, 4);
  Tensor expected = crop2d(ds.normalized_frame(3), 2, 6, 4, 4);
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sample.target.flat(i), expected.flat(i));
  }
}

TEST(Augmentation, MakeSampleValidatesSpec) {
  TrafficDataset ds = make_dataset(12, 4);
  UniformProbeLayout layout(4, 4, 2);
  EXPECT_THROW((void)make_sample(ds, layout, {0, 0, 0}, 2, 4),
               ContractViolation);  // t < S-1
  EXPECT_THROW((void)make_sample(ds, layout, {2, 10, 0}, 2, 4),
               ContractViolation);  // window out of range
  UniformProbeLayout wrong(8, 8, 2);
  EXPECT_THROW((void)make_sample(ds, wrong, {2, 0, 0}, 2, 4),
               ContractViolation);  // layout/window mismatch
}

// Stitches every window of `plan` the way a serving session does: block by
// block through stitch_accumulate, then stitch_finalize averages overlaps.
Tensor stitch(const StitchPlan& plan,
              const std::function<Tensor(std::int64_t)>& predict_window) {
  Tensor acc(Shape{plan.rows, plan.cols});
  Tensor weight(Shape{plan.rows, plan.cols});
  for (std::int64_t b0 = 0; b0 < plan.window_count(); b0 += plan.block) {
    const std::int64_t b1 = std::min(plan.window_count(), b0 + plan.block);
    std::vector<Tensor> preds;
    for (std::int64_t i = b0; i < b1; ++i) preds.push_back(predict_window(i));
    stitch_accumulate(plan, stack0(preds), b0, acc, weight);
  }
  stitch_finalize(acc, weight);
  return acc;
}

TEST(Stitching, IdentityPredictorReconstructsTruth) {
  // If the "predictor" returns the true window, stitching must reproduce
  // the frame exactly (moving average of identical overlaps).
  TrafficDataset ds = make_dataset(12, 5);
  const Tensor truth = ds.normalized_frame(3);
  const std::int64_t window = 6;
  // 3 windows per pass over 9 windows: blocks end mid-row of the tiling.
  const StitchPlan plan = make_stitch_plan(12, 12, window, 3, 3);
  ASSERT_EQ(plan.window_count(), 9);
  const Tensor stitched = stitch(plan, [&](std::int64_t i) {
    return crop2d(truth, plan.row_origin(i), plan.col_origin(i), window,
                  window);
  });
  for (std::int64_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(stitched.flat(i), truth.flat(i), 1e-5);
  }
}

TEST(Stitching, ConstantPredictorGivesConstantGrid) {
  const StitchPlan plan = make_stitch_plan(8, 8, 4, 2, 2);
  const Tensor stitched = stitch(
      plan, [](std::int64_t) { return Tensor::full(Shape{4, 4}, 2.5f); });
  for (std::int64_t i = 0; i < stitched.size(); ++i) {
    EXPECT_FLOAT_EQ(stitched.flat(i), 2.5f);
  }
}

TEST(Stitching, CoversGridWhenStrideDoesNotDivide) {
  // stride 4 over extent 10 with window 4: origins 0, 4 + clamped 6.
  const StitchPlan plan = make_stitch_plan(10, 10, 4, 4, 2);
  EXPECT_EQ(plan.row_origins, (std::vector<std::int64_t>{0, 4, 6}));
  const Tensor stitched =
      stitch(plan, [](std::int64_t) { return Tensor::ones(Shape{4, 4}); });
  for (std::int64_t i = 0; i < stitched.size(); ++i) {
    EXPECT_FLOAT_EQ(stitched.flat(i), 1.f);
  }
}

TEST(Stitching, PlanRequiresPositiveBlock) {
  EXPECT_THROW((void)make_stitch_plan(8, 8, 4, 2, 0), ContractViolation);
  EXPECT_THROW((void)make_stitch_plan(8, 8, 4, 2, -1), ContractViolation);
  EXPECT_EQ(make_stitch_plan(8, 8, 4, 2, 3).block_count(), 3);  // 9 windows
}

}  // namespace
}  // namespace mtsr::data
