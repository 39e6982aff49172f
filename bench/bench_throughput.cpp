// Deployability micro-benchmarks (google-benchmark).
//
// Section 5.1/6 of the paper argues ZipNet-GAN is deployable because
// inference is cheap once trained ("once trained ... can continuously
// perform inferences on live streams"). This binary times the primitive
// operations and the end-to-end inference paths of every method.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_common.hpp"
#include "src/baselines/bicubic.hpp"
#include "src/common/parallel.hpp"
#include "src/common/topology.hpp"
#include "src/common/workspace.hpp"
#include "src/core/gan_trainer.hpp"
#include "src/core/pipeline.hpp"
#include "src/data/augmentation.hpp"
#include "src/data/milan.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/conv3d.hpp"
#include "src/nn/conv_transpose3d.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"
#include "src/serving/scheduler.hpp"
#include "src/tensor/quant.hpp"
#include "src/tensor/tensor_ops.hpp"

using namespace mtsr;

namespace {

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetLabel(matmul_kernel_name());
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

// Wide conv-lowering GEMM geometry: short A (out-channels × taps) against
// an enormous lowered-columns B (taps × N·oh·ow) — the exact product shape
// the packed-B panel path targets.
void BM_WideLoweringGemm(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(7);
  Tensor a = Tensor::randn(Shape{32, 288}, rng);   // 32 ch, 32*3*3 taps
  Tensor b = Tensor::randn(Shape{288, n}, rng);    // lowered columns
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetLabel(matmul_kernel_name());
  state.SetItemsProcessed(state.iterations() * 32 * 288 * n);
}
BENCHMARK(BM_WideLoweringGemm)->Arg(8192)->Arg(32768);


// The quantised GEMM at the same logical product as BM_WideLoweringGemm
// (32 output channels × 288 taps × n positions, A quantised, B packed s8
// ONCE outside the loop — weights pack at model-load time in the serving
// path). Speedup over BM_WideLoweringGemm is the kernel-level acceptance
// number; both run in this binary, so the comparison is layout-fair.
void BM_GemmU8S8(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(7);
  const std::int64_t k = 288, o = 32;
  const std::int64_t kpad = (k + 3) / 4 * 4;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(n * kpad));
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * o));
  for (auto& v : b) {
    v = static_cast<std::int8_t>(
        rng.uniform_int(-quant::kWeightQmax, quant::kWeightQmax));
  }
  const PackedInt8B packed = pack_b_s8(b.data(), k, o);
  std::vector<float> col_scale(static_cast<std::size_t>(packed.npad), 0.01f);
  std::vector<float> bias(static_cast<std::size_t>(packed.npad), 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n * packed.npad));
  const QuantEpilogue ep{col_scale.data(), 37, bias.data(), 0.1f};
  for (auto _ : state) {
    gemm_u8s8(a.data(), kpad, packed, n, ep, c.data(), packed.npad);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(gemm_u8s8_kernel_name());
  state.SetItemsProcessed(state.iterations() * o * k * n);
}
BENCHMARK(BM_GemmU8S8)->Arg(8192)->Arg(32768);

// Forced-level variants of BM_GemmU8S8 so the VNNI-vs-maddubs comparison
// is interleaved in one binary regardless of what the production dispatch
// selects. Skipped (not failed) on hosts without the level.
void gemm_u8s8_forced_bench(benchmark::State& state, const char* level) {
  const auto n = state.range(0);
  Rng rng(7);
  const std::int64_t k = 288, o = 32;
  const std::int64_t kpad = (k + 3) / 4 * 4;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(n * kpad));
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * o));
  for (auto& v : b) {
    v = static_cast<std::int8_t>(
        rng.uniform_int(-quant::kWeightQmax, quant::kWeightQmax));
  }
  const PackedInt8B packed = pack_b_s8(b.data(), k, o);
  std::vector<float> col_scale(static_cast<std::size_t>(packed.npad), 0.01f);
  std::vector<float> bias(static_cast<std::size_t>(packed.npad), 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n * packed.npad));
  const QuantEpilogue ep{col_scale.data(), 37, bias.data(), 0.1f};
  for (auto _ : state) {
    if (!gemm_u8s8_forced_kernel(level, a.data(), kpad, packed, n, ep,
                                 c.data(), packed.npad)) {
      state.SkipWithError("level unavailable on this host");
      return;
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(level);
  state.SetItemsProcessed(state.iterations() * o * k * n);
}

void BM_GemmU8S8ForcedAvx512(benchmark::State& state) {
  gemm_u8s8_forced_bench(state, "avx512");
}
BENCHMARK(BM_GemmU8S8ForcedAvx512)->Arg(8192)->Arg(32768);

void BM_GemmU8S8ForcedVnni(benchmark::State& state) {
  gemm_u8s8_forced_bench(state, "vnni");
}
BENCHMARK(BM_GemmU8S8ForcedVnni)->Arg(8192)->Arg(32768);

// Whole-batch conv forward: the batched im2col + one wide GEMM per step.
void BM_Conv2dForwardBatched(benchmark::State& state) {
  const auto batch = state.range(0);
  Rng rng(8);
  nn::Conv2d conv(16, 16, 3, 1, 1, rng);
  Tensor input = Tensor::randn(Shape{batch, 16, 20, 20}, rng);
  for (auto _ : state) {
    Workspace::Scope ws_scope(Workspace::tls());
    benchmark::DoNotOptimize(conv.forward(input, false));
  }
}
BENCHMARK(BM_Conv2dForwardBatched)->Arg(8)->Arg(32);

void BM_Conv2dForward(benchmark::State& state) {
  const auto side = state.range(0);
  Rng rng(2);
  nn::Conv2d conv(8, 8, 3, 1, 1, rng);
  Tensor input = Tensor::randn(Shape{1, 8, side, side}, rng);
  for (auto _ : state) {
    Workspace::Scope ws_scope(Workspace::tls());
    benchmark::DoNotOptimize(conv.forward(input, false));
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(20)->Arg(40)->Arg(80);

void BM_Conv3dForward(benchmark::State& state) {
  const auto side = state.range(0);
  Rng rng(3);
  nn::Conv3d conv(4, 4, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}, rng);
  Tensor input = Tensor::randn(Shape{1, 4, 3, side, side}, rng);
  for (auto _ : state) {
    Workspace::Scope ws_scope(Workspace::tls());
    benchmark::DoNotOptimize(conv.forward(input, false));
  }
}
BENCHMARK(BM_Conv3dForward)->Arg(10)->Arg(20)->Arg(40);

void BM_Deconv3dUpscale(benchmark::State& state) {
  const int factor = static_cast<int>(state.range(0));
  Rng rng(4);
  nn::ConvTranspose3d deconv(4, 4, {3, factor + 2, factor + 2},
                             {1, factor, factor}, {1, 1, 1}, rng);
  Tensor input = Tensor::randn(Shape{1, 4, 3, 10, 10}, rng);
  for (auto _ : state) {
    Workspace::Scope ws_scope(Workspace::tls());
    benchmark::DoNotOptimize(deconv.forward(input, false));
  }
}
BENCHMARK(BM_Deconv3dUpscale)->Arg(2)->Arg(5);

void BM_BicubicUpsample(benchmark::State& state) {
  const auto side = state.range(0);
  Rng rng(5);
  Tensor coarse = Tensor::uniform(Shape{side, side}, rng, 10.f, 100.f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::bicubic_upsample(coarse, 4));
  }
}
BENCHMARK(BM_BicubicUpsample)->Arg(10)->Arg(25);

// End-to-end inference: one full-grid super-resolution with a compact
// (untrained — timing is weight-independent) ZipNet, per instance.
void BM_ZipNetFullGridInference(benchmark::State& state) {
  const auto instance = static_cast<data::MtsrInstance>(state.range(0));
  bench::BenchData geometry;
  geometry.frames = 40;
  data::TrafficDataset dataset = bench::make_dataset(geometry);
  core::PipelineConfig config =
      bench::bench_pipeline_config(instance, geometry.side);
  core::MtsrPipeline pipeline(config, dataset);
  const std::int64_t t = dataset.frame_count() - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.predict_frame(t));
  }
  state.SetLabel(data::instance_name(instance));
}
BENCHMARK(BM_ZipNetFullGridInference)
    ->Arg(static_cast<int>(data::MtsrInstance::kUp2))
    ->Arg(static_cast<int>(data::MtsrInstance::kUp4))
    ->Arg(static_cast<int>(data::MtsrInstance::kUp10))
    ->Arg(static_cast<int>(data::MtsrInstance::kMixture))
    ->Unit(benchmark::kMillisecond);

// ---- Multi-frame, multi-session serving ------------------------------------
//
// The gateway workload of Section 6 at the paper's city scale: predictions
// for consecutive test frames of several concurrent 100×100 streams, served
// two ways over the same generator:
//  * BM_ServePredictFrameSerial — the pipeline's predict_frame entry point,
//    one engine session per pipeline, streams served one after another.
//  * BM_ServeEngine — sessions of one engine: rolling per-window aggregate
//    cache and fixed sub-batching, each block gathered into its shard's
//    pass batch and run in its shard's arena.

constexpr std::int64_t kServeSessions = 2;
constexpr std::int64_t kServeFrames = 3;  // predictions per session

core::PipelineConfig serve_config(std::int64_t side) {
  core::PipelineConfig config =
      bench::bench_pipeline_config(data::MtsrInstance::kUp4, side);
  config.stitch_stride = 10;  // 81 windows per 100x100 frame
  return config;
}

std::vector<data::TrafficDataset> serve_datasets(std::int64_t side) {
  std::vector<data::TrafficDataset> datasets;
  for (std::int64_t i = 0; i < kServeSessions; ++i) {
    bench::BenchData geometry;
    geometry.side = side;
    geometry.frames = 16;
    geometry.seed = 42 + static_cast<std::uint64_t>(i);  // one city each
    datasets.push_back(bench::make_dataset(geometry));
  }
  return datasets;
}

// Serving benches report wall-clock as the primary time (UseRealTime):
// once the pool spans multiple workers, cpu_time of the driving thread
// stops measuring delivered throughput. cpu_time stays in the report
// beside it, so single-core runs remain comparable with older recordings.
void BM_ServePredictFrameSerial(benchmark::State& state) {
  const std::int64_t side = state.range(0);
  const auto datasets = serve_datasets(side);
  std::vector<std::unique_ptr<core::MtsrPipeline>> pipelines;
  for (const auto& dataset : datasets) {
    pipelines.push_back(
        std::make_unique<core::MtsrPipeline>(serve_config(side), dataset));
  }
  const std::int64_t s = pipelines.front()->config().temporal_length;
  for (auto _ : state) {
    // Frame-major, as measurements arrive at a gateway: frame t of every
    // stream is served before frame t+1 of any.
    for (std::int64_t t = s - 1; t < s - 1 + kServeFrames; ++t) {
      for (auto& pipeline : pipelines) {
        benchmark::DoNotOptimize(pipeline->predict_frame(t));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kServeSessions * kServeFrames);
}
BENCHMARK(BM_ServePredictFrameSerial)->Arg(100)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ServeEngine(benchmark::State& state) {
  const std::int64_t side = state.range(0);
  const auto datasets = serve_datasets(side);
  const core::PipelineConfig config = serve_config(side);
  // One generator serves every city stream (sessions multiplex the model).
  core::MtsrPipeline pipeline(config, datasets.front());
  serving::Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  std::vector<serving::Engine::SessionId> sessions;
  for (const auto& dataset : datasets) {
    sessions.push_back(engine.open_session(serving::SessionConfig::from_dataset(
        "zipnet", config.instance, dataset, config.window,
        config.stitch_stride)));
  }
  const std::int64_t s = pipeline.config().temporal_length;
  for (auto _ : state) {
    for (const auto id : sessions) engine.session(id).reset();
    std::int64_t produced = 0;
    for (std::int64_t t = 0; t < s - 1 + kServeFrames; ++t) {
      for (std::size_t i = 0; i < sessions.size(); ++i) {
        auto prediction = engine.push(sessions[i], datasets[i].frame(t));
        if (prediction) ++produced;
        benchmark::DoNotOptimize(prediction);
      }
    }
    if (produced != kServeSessions * kServeFrames) {
      state.SkipWithError("serving produced the wrong prediction count");
    }
  }
  state.SetItemsProcessed(state.iterations() * kServeSessions * kServeFrames);
}
BENCHMARK(BM_ServeEngine)->Arg(100)->UseRealTime()->Unit(benchmark::kMillisecond);

// The same multi-session workload served by the int8-quantised generator:
// one-shot conversion outside the timed loop (weights pack once), then
// "zipnet-int8" sessions through the identical engine/stitch path. The
// cpu_time ratio against BM_ServeEngine is the end-to-end acceptance
// number for the quantised serving path.
void BM_ServeEngineInt8(benchmark::State& state) {
  const std::int64_t side = state.range(0);
  const auto datasets = serve_datasets(side);
  const core::PipelineConfig config = serve_config(side);
  core::MtsrPipeline pipeline(config, datasets.front());
  serving::Engine engine;
  engine.register_model(
      "zipnet-int8",
      serving::quantize_generator(
          pipeline.generator(),
          serving::calibration_batches(
              datasets.front(), pipeline.window_layout(),
              config.temporal_length, config.window, /*frames=*/4)));
  std::vector<serving::Engine::SessionId> sessions;
  for (const auto& dataset : datasets) {
    sessions.push_back(engine.open_session(serving::SessionConfig::from_dataset(
        "zipnet-int8", config.instance, dataset, config.window,
        config.stitch_stride)));
  }
  const std::int64_t s = pipeline.config().temporal_length;
  for (auto _ : state) {
    for (const auto id : sessions) engine.session(id).reset();
    std::int64_t produced = 0;
    for (std::int64_t t = 0; t < s - 1 + kServeFrames; ++t) {
      for (std::size_t i = 0; i < sessions.size(); ++i) {
        auto prediction = engine.push(sessions[i], datasets[i].frame(t));
        if (prediction) ++produced;
        benchmark::DoNotOptimize(prediction);
      }
    }
    if (produced != kServeSessions * kServeFrames) {
      state.SkipWithError("serving produced the wrong prediction count");
    }
  }
  state.SetLabel(gemm_u8s8_kernel_name());
  state.SetItemsProcessed(state.iterations() * kServeSessions * kServeFrames);
}
BENCHMARK(BM_ServeEngineInt8)->Arg(100)->UseRealTime()->Unit(benchmark::kMillisecond);

// ---- Scheduler: cross-session fusion + fan-out dedup ------------------------
//
// The scheduler_fusion acceptance scenario: aggregate throughput of N
// concurrent streams served through ONE scheduler call per interval
// against the same N sessions pushed independently.
//  * Fanout — N consumers subscribed to one city feed (identical frames,
//    stream-tagged): request-level dedup collapses the N stitched
//    inferences into one shared computation per interval.
//  * Distinct — N different cities: batch fusion only. On a single-core
//    host the win is bounded by per-pass overhead amortisation (the fuse
//    cap keeps the fused lowering matrices cache-resident); on pooled
//    hosts the fused GEMMs are what keeps every worker fed.
// Both scheduler scenarios and their independent controls live in this one
// binary, so the model inner kernels are identical machine code.

void serve_fanout(benchmark::State& state, bool scheduled) {
  const std::int64_t n_sessions = state.range(0);
  const std::int64_t side = 100;
  const auto datasets = serve_datasets(side);  // feed = city 0's stream
  const core::PipelineConfig config = serve_config(side);
  core::MtsrPipeline pipeline(config, datasets.front());
  serving::Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  std::vector<serving::Engine::SessionId> sessions;
  for (std::int64_t i = 0; i < n_sessions; ++i) {
    serving::SessionConfig sc = serving::SessionConfig::from_dataset(
        "zipnet", config.instance, datasets.front(), config.window,
        config.stitch_stride);
    if (scheduled) sc.stream = "city0";  // declare the shared feed
    sessions.push_back(engine.open_session(sc));
  }
  const std::int64_t s = config.temporal_length;
  for (auto _ : state) {
    for (const auto id : sessions) engine.session(id).reset();
    std::int64_t produced = 0;
    for (std::int64_t t = 0; t < s - 1 + kServeFrames; ++t) {
      if (scheduled) {
        for (auto& p : engine.push_fused(sessions, datasets.front().frame(t))) {
          if (p) ++produced;
          benchmark::DoNotOptimize(p);
        }
      } else {
        for (const auto id : sessions) {
          auto p = engine.push(id, datasets.front().frame(t));
          if (p) ++produced;
          benchmark::DoNotOptimize(p);
        }
      }
    }
    if (produced != n_sessions * kServeFrames) {
      state.SkipWithError("serving produced the wrong prediction count");
    }
  }
  state.SetItemsProcessed(state.iterations() * n_sessions * kServeFrames);
}

void BM_ServeSchedulerFanout(benchmark::State& state) {
  serve_fanout(state, /*scheduled=*/true);
}
BENCHMARK(BM_ServeSchedulerFanout)
    ->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServeIndependentFanout(benchmark::State& state) {
  serve_fanout(state, /*scheduled=*/false);
}
BENCHMARK(BM_ServeIndependentFanout)
    ->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void serve_distinct(benchmark::State& state, bool scheduled) {
  const std::int64_t n_sessions = state.range(0);
  const std::int64_t side = 100;
  std::vector<data::TrafficDataset> datasets;
  for (std::int64_t i = 0; i < n_sessions; ++i) {
    bench::BenchData geometry;
    geometry.side = side;
    geometry.frames = 16;
    geometry.seed = 42 + static_cast<std::uint64_t>(i);  // one city each
    datasets.push_back(bench::make_dataset(geometry));
  }
  const core::PipelineConfig config = serve_config(side);
  core::MtsrPipeline pipeline(config, datasets.front());
  serving::Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  std::vector<serving::Engine::SessionId> sessions;
  for (const auto& dataset : datasets) {
    sessions.push_back(engine.open_session(serving::SessionConfig::from_dataset(
        "zipnet", config.instance, dataset, config.window,
        config.stitch_stride)));
  }
  const std::int64_t s = config.temporal_length;
  for (auto _ : state) {
    for (const auto id : sessions) engine.session(id).reset();
    std::int64_t produced = 0;
    for (std::int64_t t = 0; t < s - 1 + kServeFrames; ++t) {
      if (scheduled) {
        std::vector<Tensor> frames;
        frames.reserve(datasets.size());
        for (const auto& dataset : datasets) frames.push_back(dataset.frame(t));
        for (auto& p : engine.push_all(sessions, frames)) {
          if (p) ++produced;
          benchmark::DoNotOptimize(p);
        }
      } else {
        for (std::size_t i = 0; i < sessions.size(); ++i) {
          auto p = engine.push(sessions[i], datasets[i].frame(t));
          if (p) ++produced;
          benchmark::DoNotOptimize(p);
        }
      }
    }
    if (produced != n_sessions * kServeFrames) {
      state.SkipWithError("serving produced the wrong prediction count");
    }
  }
  state.SetItemsProcessed(state.iterations() * n_sessions * kServeFrames);
}

void BM_ServeSchedulerDistinct(benchmark::State& state) {
  serve_distinct(state, /*scheduled=*/true);
}
BENCHMARK(BM_ServeSchedulerDistinct)
    ->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServeIndependentDistinct(benchmark::State& state) {
  serve_distinct(state, /*scheduled=*/false);
}
BENCHMARK(BM_ServeIndependentDistinct)
    ->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Data-parallel training --------------------------------------------
//
// One GAN train step at each replica setting. Arg is the trainer's
// `replicas` field: -1 runs the whole batch as one slice inline, >= 1 runs
// the sliced step on that many workers (1 replica isolates the slicing
// overhead; more replicas add concurrency). Results are bit-identical
// across all >= 1 settings, so that part of the curve is purely a
// scheduling comparison. Each iteration runs several steps so the
// double-buffered input staging can overlap batch assembly with step
// compute.

constexpr int kTrainStepsPerIter = 4;

struct TrainBenchFixture {
  TrainBenchFixture()
      : dataset(make_frames(), 10),
        layout(8, 8, 2),
        source([this](Rng& rng) {
          data::SampleSpec spec;
          spec.t = rng.uniform_int(1, dataset.frame_count() - 1);
          spec.r0 = rng.uniform_int(0, dataset.rows() - 8);
          spec.c0 = rng.uniform_int(0, dataset.cols() - 8);
          return data::make_sample(dataset, layout, spec, 2, 8);
        }) {}

  static std::vector<Tensor> make_frames() {
    data::MilanConfig config;
    config.rows = 32;
    config.cols = 32;
    config.num_hotspots = 10;
    config.seed = 55;
    return data::MilanTrafficGenerator(config).generate(60, 30);
  }

  core::ZipNetConfig generator_config() const {
    core::ZipNetConfig config;
    config.temporal_length = 2;
    config.upscale_factors = {2};
    config.base_channels = 4;
    config.zipper_modules = 3;
    config.zipper_channels = 8;
    config.final_channels = 8;
    return config;
  }

  data::TrafficDataset dataset;
  data::UniformProbeLayout layout;
  core::SampleSource source;
};

void BM_PretrainStep(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  TrainBenchFixture f;
  Rng rng(901);
  core::ZipNet g(f.generator_config(), rng);
  core::Discriminator d({}, rng);
  core::GanTrainerConfig config;
  config.batch_size = 8;
  config.replicas = replicas;
  core::GanTrainer trainer(g, d, config);
  (void)trainer.pretrain(f.source, 2);  // warm arenas + caches
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.pretrain(f.source, kTrainStepsPerIter));
  }
  state.SetItemsProcessed(state.iterations() * kTrainStepsPerIter);
  state.SetLabel(replicas < 0 ? "whole-batch"
                              : "replicas=" + std::to_string(replicas));
}
BENCHMARK(BM_PretrainStep)
    ->Arg(-1)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_TrainStep(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  TrainBenchFixture f;
  Rng rng(902);
  core::ZipNet g(f.generator_config(), rng);
  core::Discriminator d({}, rng);
  core::GanTrainerConfig config;
  config.batch_size = 8;
  config.replicas = replicas;
  core::GanTrainer trainer(g, d, config);
  (void)trainer.pretrain(f.source, 2);
  (void)trainer.train(f.source, 1);  // warm both sub-epoch step shapes
  for (auto _ : state) {
    // One round = one D sub-epoch + one G sub-epoch (two train steps).
    benchmark::DoNotOptimize(trainer.train(f.source, kTrainStepsPerIter / 2));
  }
  state.SetItemsProcessed(state.iterations() * kTrainStepsPerIter);
  state.SetLabel(replicas < 0 ? "whole-batch"
                              : "replicas=" + std::to_string(replicas));
}
BENCHMARK(BM_TrainStep)
    ->Arg(-1)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Probe aggregation (the gateway-side cost of producing model input).
void BM_ProbeAggregation(benchmark::State& state) {
  const auto instance = static_cast<data::MtsrInstance>(state.range(0));
  Rng rng(6);
  auto layout = data::make_layout(instance, 40, 40);
  Tensor fine = Tensor::uniform(Shape{40, 40}, rng, 10.f, 1000.f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout->coarsen(fine));
  }
  state.SetLabel(data::instance_name(instance));
}
BENCHMARK(BM_ProbeAggregation)
    ->Arg(static_cast<int>(data::MtsrInstance::kUp4))
    ->Arg(static_cast<int>(data::MtsrInstance::kMixture));

// Runtime-detected host CPU feature flags, printed in the binary header
// (and recorded in BENCH_throughput.json's host block) so every speedup
// claim is reproducible against the host's actual ISA.
std::string cpu_feature_flags() {
#if defined(__x86_64__) && defined(__GNUC__)
  std::string flags;
  const auto add = [&](const char* name, bool present) {
    if (!present) return;
    if (!flags.empty()) flags += ' ';
    flags += name;
  };
  add("sse2", true);  // x86-64 baseline
  add("fma", __builtin_cpu_supports("fma"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  add("avx512bw", __builtin_cpu_supports("avx512bw"));
  add("avx512vnni", __builtin_cpu_supports("avx512vnni"));
  return flags;
#else
  return "non-x86";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  // Pool flags, consumed before google-benchmark sees argv:
  //   --threads N  total pool workers (default MTSR_THREADS or the hardware
  //                concurrency)
  //   --shards N   worker groups (default MTSR_SHARDS or one per NUMA node)
  // Listed here because --help is handled by google-benchmark.
  {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      long long value = 0;
      if (std::sscanf(argv[i], "--threads=%lld", &value) == 1) {
        mtsr::set_num_threads(static_cast<int>(value));
      } else if (std::sscanf(argv[i], "--shards=%lld", &value) == 1) {
        mtsr::set_num_shards(static_cast<int>(value));
      } else if ((std::strcmp(argv[i], "--threads") == 0 ||
                  std::strcmp(argv[i], "--shards") == 0) &&
                 i + 1 < argc) {
        value = std::atoll(argv[i + 1]);
        if (std::strcmp(argv[i], "--threads") == 0) {
          mtsr::set_num_threads(static_cast<int>(value));
        } else {
          mtsr::set_num_shards(static_cast<int>(value));
        }
        ++i;
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
  }
  std::printf("CPU features: %s\n", cpu_feature_flags().c_str());
  std::printf("pool: %d workers in %d shard%s on %s\n", mtsr::num_threads(),
              mtsr::num_shards(), mtsr::num_shards() == 1 ? "" : "s",
              mtsr::Topology::instance().summary().c_str());
  std::printf("float kernel: %s | int8 kernel: %s\n", matmul_kernel_name(),
              gemm_u8s8_kernel_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
