// The benchmark fixture: one synthetic 32×32 up-4 city and a generator
// pre-trained on it for a short, seeded, fixed number of steps. Training is
// bit-identical for any pool geometry, so every run serves the same weights.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/data/dataset.hpp"
#include "src/serving/model.hpp"

namespace perfbench {

inline constexpr std::int64_t kSide = 32;      ///< city grid side (fine cells)
inline constexpr std::int64_t kWindow = 20;    ///< stitch window
inline constexpr std::int64_t kStride = 10;    ///< stitch stride
inline constexpr std::int64_t kTemporal = 3;   ///< S, frames of history
inline constexpr std::int64_t kCityFrames = 360;  ///< 2.5 days, 10-min bins
inline constexpr int kPretrainSteps = 24;
/// Zipper width: its 3×3 convs are the widest lowered GEMM of the generator
/// (M = 16 channels, K = 16·9 taps, N = windows·20·20 positions).
inline constexpr std::int64_t kZipperChannels = 16;
inline constexpr std::int64_t kCalibrationFrames = 8;

/// Pool geometry every workload runs under (set before any session opens).
inline constexpr int kPoolWorkers = 2;
inline constexpr int kPoolShards = 1;

struct Fixture {
  std::unique_ptr<mtsr::data::TrafficDataset> dataset;
  std::unique_ptr<mtsr::core::MtsrPipeline> pipeline;
  double pretrain_s = 0;
  double pretrain_samples_per_s = 0;
  double quantize_s = 0;  ///< 0 unless the int8 model was built
  /// The float "zipnet" adapter over the pipeline's generator, or the int8
  /// "zipnet-int8" twin when requested.
  std::shared_ptr<mtsr::serving::Model> model;
};

/// The synthetic city the generator trains on (fixed seed).
[[nodiscard]] std::unique_ptr<mtsr::data::TrafficDataset> make_city();

/// Synthesises the city, pre-trains the generator and, for
/// model == "zipnet-int8", quantises it.
[[nodiscard]] std::unique_ptr<Fixture> build_fixture(const std::string& model);

/// Frames the serve workloads replay: the held-out validation + test span.
[[nodiscard]] mtsr::data::SplitRange serve_range(
    const mtsr::data::TrafficDataset& dataset);

}  // namespace perfbench
