// Tests for the continuous-learning service (src/online): FrameTap
// drop-oldest semantics, the engine frame sink across all three push paths
// (the same hook the net front door's push_all drain feeds), bad frames
// (wrong shape, NaN, Inf) rejected before the tap or any history sees them,
// holdout-gated
// checkpoint promotion with staleness bookkeeping, forced-rejection leaving
// serving bit-identical (background trainer running or not), concurrent
// serve+train with zero dropped frames (the TSan leg runs this file), and
// torn-checkpoint rejection on top of the atomic save path.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/core/pipeline.hpp"
#include "src/data/milan.hpp"
#include "src/nn/model_io.hpp"
#include "src/online/trainer.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"
#include "tests/forged_checkpoint.hpp"

namespace mtsr::online {
namespace {

struct PoolGuard {
  ~PoolGuard() {
    set_num_threads(0);
    set_num_shards(0);
  }
};

data::TrafficDataset small_dataset(std::uint64_t seed = 510,
                                   std::int64_t side = 16) {
  data::MilanConfig config;
  config.rows = side;
  config.cols = side;
  config.num_hotspots = 10;
  config.seed = seed;
  return data::TrafficDataset(
      data::MilanTrafficGenerator(config).generate(0, 40), 10);
}

core::PipelineConfig small_pipeline_config() {
  core::PipelineConfig config;
  config.instance = data::MtsrInstance::kUp4;
  config.window = 8;
  config.temporal_length = 3;
  config.zipnet.base_channels = 3;
  config.zipnet.zipper_modules = 3;
  config.zipnet.zipper_channels = 6;
  config.zipnet.final_channels = 8;
  config.discriminator.base_channels = 2;
  config.pretrain_steps = 20;
  config.gan_rounds = 0;
  return config;
}

serving::SessionConfig stream_config(const data::TrafficDataset& dataset) {
  return serving::SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, dataset, 8, 4);
}

TrainerConfig small_online_config(const data::TrafficDataset& dataset,
                                  const char* prefix) {
  TrainerConfig config = TrainerConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, dataset, 8);
  config.trainer.batch_size = 4;
  config.steps_per_round = 2;
  config.rounds_per_checkpoint = 1;
  config.holdout_frames = 2;
  config.checkpoint_prefix = prefix;
  return config;
}

void expect_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.flat(i), b.flat(i)) << what << " differs at " << i;
  }
}

void remove_checkpoints(const Trainer& trainer) {
  for (const auto& path : trainer.retained_checkpoints()) {
    std::remove(path.c_str());
  }
}

Tensor constant_frame(std::int64_t side, float value) {
  Tensor frame(Shape{side, side});
  frame.fill(value);
  return frame;
}

TEST(FrameTap, DropOldestAtCapacity) {
  FrameTap tap(/*capacity_per_stream=*/3);
  EXPECT_TRUE(tap.snapshot("live").empty());
  for (int i = 0; i < 5; ++i) {
    tap.publish("live", constant_frame(4, static_cast<float>(i)));
  }
  // 5 published into a 3-ring: frames 0 and 1 evicted, 2..4 left in order.
  const auto frames = tap.snapshot("live");
  ASSERT_EQ(frames.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(frames[static_cast<std::size_t>(i)].flat(0),
              static_cast<float>(i + 2));
  }

  tap.publish("other", constant_frame(4, 9.f));
  const FrameTapStats stats = tap.stats();
  EXPECT_EQ(stats.published, 6);
  EXPECT_EQ(stats.dropped, 2);
  EXPECT_EQ(stats.buffered, 4);
  EXPECT_EQ(stats.streams, 2);
  EXPECT_EQ(tap.streams(), (std::vector<std::string>{"live", "other"}));
  // Eviction is per-ring: "other" kept its only frame.
  EXPECT_EQ(tap.snapshot("other").size(), 1u);
}

// The tap hook fires once per distinct stream per dispatch round on every
// push path. push_all is what the net front door's drain calls, so this is
// also the wire-ingress coverage.
TEST(OnlineTrainer, TapFedByAllEnginePushPaths) {
  data::TrafficDataset dataset = small_dataset();
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  serving::Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  Trainer trainer(engine, pipeline.generator(),
                  small_online_config(dataset, "test-online-paths"));

  serving::SessionConfig tagged = stream_config(dataset);
  tagged.stream = "live";
  const auto a = engine.open_session(tagged);
  const auto b = engine.open_session(tagged);
  serving::SessionConfig untagged = stream_config(dataset);
  const auto c = engine.open_session(untagged);

  // push(): one publish under the session's key.
  (void)engine.push(c, dataset.frame(0));
  EXPECT_EQ(trainer.tap().stats().published, 1);
  EXPECT_EQ(trainer.tap().snapshot("session-" + std::to_string(c)).size(),
            1u);

  // push_all(): two tagged consumers of "live" + one untagged session in
  // one round — "live" publishes ONCE, the untagged key once.
  (void)engine.push_all({a, b, c},
                        {dataset.frame(1), dataset.frame(1),
                         dataset.frame(1)});
  EXPECT_EQ(trainer.tap().stats().published, 3);
  EXPECT_EQ(trainer.tap().snapshot("live").size(), 1u);

  // push_fused(): N consumers of one snapshot publish exactly once.
  (void)engine.push_fused({a, b}, dataset.frame(2));
  EXPECT_EQ(trainer.tap().stats().published, 4);
  EXPECT_EQ(trainer.tap().snapshot("live").size(), 2u);
  EXPECT_EQ(trainer.tap().stats().dropped, 0);

  engine.close_session(a);
  engine.close_session(b);
  engine.close_session(c);
}

TEST(OnlineTrainer, BadFramesRejectedBeforeTapOrHistory) {
  data::TrafficDataset dataset = small_dataset(518);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  serving::Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  serving::Engine control;
  control.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  Trainer trainer(engine, pipeline.generator(),
                  small_online_config(dataset, "test-online-bad-frames"));
  const auto a = engine.open_session(stream_config(dataset));
  const auto b = engine.open_session(stream_config(dataset));
  const auto ca = control.open_session(stream_config(dataset));
  const auto cb = control.open_session(stream_config(dataset));
  auto round = [&](serving::Engine& e, serving::Engine::SessionId x,
                   serving::Engine::SessionId y, std::int64_t t) {
    return e.push_all({x, y}, {dataset.frame(t), dataset.frame(t + 10)});
  };
  for (std::int64_t t = 0; t < 2; ++t) {
    (void)round(engine, a, b, t);
    (void)round(control, ca, cb, t);
  }
  const std::int64_t published = trainer.tap().stats().published;
  ASSERT_EQ(published, 4);

  Tensor nan_frame = dataset.frame(2);
  nan_frame.flat(5) = std::numeric_limits<float>::quiet_NaN();
  Tensor inf_frame = dataset.frame(12);
  inf_frame.flat(9) = -std::numeric_limits<float>::infinity();
  const Tensor misshaped(Shape{8, 8});
  // Session a's frame is clean in the first two calls: it must not be
  // admitted either, because its call carries a bad frame for b.
  EXPECT_THROW((void)engine.push_all({a, b}, {dataset.frame(2), misshaped}),
               ContractViolation);
  EXPECT_THROW((void)engine.push_all({a, b}, {dataset.frame(2), inf_frame}),
               ContractViolation);
  EXPECT_THROW((void)engine.push_all({a, b}, {nan_frame, dataset.frame(12)}),
               ContractViolation);
  EXPECT_THROW((void)engine.push(a, nan_frame), ContractViolation);
  EXPECT_THROW((void)engine.push_fused({a, b}, nan_frame), ContractViolation);
  EXPECT_THROW((void)engine.session(b).push(inf_frame), ContractViolation);

  EXPECT_EQ(trainer.tap().stats().published, published);
  for (const auto id : {a, b}) {
    EXPECT_EQ(engine.session(id).frames_until_ready(), 1);
    EXPECT_EQ(engine.session(id).inference_count(), 0);
  }

  std::size_t produced = 0;
  for (std::int64_t t = 2; t < 6; ++t) {
    const auto got = round(engine, a, b, t);
    const auto want = round(control, ca, cb, t);
    for (std::size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(got[i].has_value() && want[i].has_value());
      expect_bitwise(*got[i], *want[i], "post-rejection serving parity");
      EXPECT_TRUE(got[i]->all_finite());
      ++produced;
    }
  }
  EXPECT_EQ(produced, 8u);
  EXPECT_EQ(trainer.tap().stats().published, published + 8);
  for (const auto id : {a, b}) engine.close_session(id);
  for (const auto id : {ca, cb}) control.close_session(id);
}

TEST(OnlineTrainer, PromotionThroughHoldoutGate) {
  data::TrafficDataset dataset = small_dataset(511);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  serving::Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));

  TrainerConfig config = small_online_config(dataset, "test-online-promote");
  // A wide-open gate: every candidate passes, so this test pins the
  // promotion plumbing (reload + counters + staleness), not gate policy.
  config.max_nrmse_regression = 1e6;
  config.retain_checkpoints = 2;
  Trainer trainer(engine, pipeline.generator(), config);

  const auto id = engine.open_session(stream_config(dataset));
  for (std::int64_t t = 0; t < 10; ++t) (void)engine.push(id, dataset.frame(t));

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double staleness_before = trainer.stats().staleness_seconds;
  EXPECT_GE(staleness_before, 0.05);

  EXPECT_EQ(trainer.run_rounds(2), 2);
  const auto stats = trainer.stats();
  EXPECT_EQ(stats.candidates, 2);
  EXPECT_EQ(stats.promoted, 2);  // acceptance floor: >= 2 reloads applied
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.steps, 4);
  EXPECT_GE(stats.holdout_nrmse, 0.0);
  // Promotion resets the staleness clock.
  EXPECT_LT(stats.staleness_seconds, staleness_before);

  // Retention: only the newest `retain_checkpoints` candidate files live.
  const auto retained = trainer.retained_checkpoints();
  ASSERT_EQ(retained.size(), 2u);
  for (const auto& path : retained) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
  }

  // The engine reports the trainer through its stats surface.
  const auto engine_stats = engine.stats();
  ASSERT_TRUE(engine_stats.online.has_value());
  EXPECT_EQ(engine_stats.online->promoted, 2);
  const std::string table = serving::render_stats_table(engine_stats);
  EXPECT_NE(table.find("online trainer"), std::string::npos);
  EXPECT_NE(table.find("2 promoted"), std::string::npos);

  engine.close_session(id);
  remove_checkpoints(trainer);
}

TEST(OnlineTrainer, RejectedCandidateLeavesServingBitIdentical) {
  data::TrafficDataset dataset = small_dataset(512);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  serving::Engine online_engine;
  online_engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  serving::Engine control;
  control.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));

  TrainerConfig config = small_online_config(dataset, "test-online-reject");
  config.max_nrmse_regression = -1.0;  // negative margin: reject everything
  Trainer trainer(online_engine, pipeline.generator(), config);

  const auto online_id = online_engine.open_session(stream_config(dataset));
  const auto control_id = control.open_session(stream_config(dataset));
  for (std::int64_t t = 0; t < 10; ++t) {
    auto a = online_engine.push(online_id, dataset.frame(t));
    auto b = control.push(control_id, dataset.frame(t));
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) expect_bitwise(*a, *b, "pre-training serving parity");
  }

  EXPECT_GE(trainer.run_rounds(3), 3);
  const auto stats = trainer.stats();
  EXPECT_EQ(stats.candidates, 3);
  EXPECT_EQ(stats.promoted, 0);
  EXPECT_EQ(stats.rejected, 3);

  // The trainer fine-tuned its clone and emitted candidates, but none
  // promoted: the engine must keep serving the original weights bitwise.
  for (std::int64_t t = 10; t < 14; ++t) {
    auto a = online_engine.push(online_id, dataset.frame(t));
    auto b = control.push(control_id, dataset.frame(t));
    ASSERT_TRUE(a && b);
    expect_bitwise(*a, *b, "post-rejection serving parity");
  }

  online_engine.close_session(online_id);
  control.close_session(control_id);
  remove_checkpoints(trainer);
}

// Background thread + serving thread, promotions landing mid-stream: every
// admitted push yields a frame once warm (zero dropped/duplicated blocks).
// The TSan CI leg runs this against MTSR_THREADS=4 MTSR_SHARDS=2.
TEST(OnlineTrainer, ConcurrentServeAndTrainDropsNothing) {
  data::TrafficDataset dataset = small_dataset(513);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  serving::Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));

  TrainerConfig config = small_online_config(dataset, "test-online-concur");
  config.max_nrmse_regression = 1e6;  // promote eagerly while serving
  config.idle_wait_ms = 1.0;
  Trainer trainer(engine, pipeline.generator(), config);

  const auto id = engine.open_session(stream_config(dataset));
  const std::int64_t warmup = engine.session(id).temporal_length() - 1;
  trainer.start();
  EXPECT_TRUE(trainer.running());

  std::int64_t served = 0;
  for (std::int64_t t = 0; t < 30; ++t) {
    if (engine.push(id, dataset.frame(t % dataset.frame_count()))) ++served;
    (void)engine.stats();  // the other documented concurrent surface
  }
  trainer.stop();
  EXPECT_FALSE(trainer.running());
  EXPECT_EQ(trainer.last_error(), std::string());
  EXPECT_EQ(served, 30 - warmup);

  const auto stats = trainer.stats();
  EXPECT_EQ(stats.tap_published, 30);
  EXPECT_EQ(stats.promoted + stats.rejected, stats.candidates);

  engine.close_session(id);
  remove_checkpoints(trainer);
}

// A running trainer that never promotes must be invisible to serving:
// outputs stay bitwise-identical to an engine with no trainer at all.
TEST(OnlineTrainer, NonPromotingBackgroundTrainerKeepsServingBitwise) {
  data::TrafficDataset dataset = small_dataset(514);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  serving::Engine online_engine;
  online_engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  serving::Engine control;
  control.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));

  TrainerConfig config = small_online_config(dataset, "test-online-shadow");
  config.max_nrmse_regression = -1.0;  // fine-tune hard, promote never
  config.idle_wait_ms = 1.0;
  Trainer trainer(online_engine, pipeline.generator(), config);

  const auto online_id = online_engine.open_session(stream_config(dataset));
  const auto control_id = control.open_session(stream_config(dataset));
  trainer.start();
  for (std::int64_t t = 0; t < 24; ++t) {
    auto a = online_engine.push(online_id,
                                dataset.frame(t % dataset.frame_count()));
    auto b = control.push(control_id,
                          dataset.frame(t % dataset.frame_count()));
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) expect_bitwise(*a, *b, "shadow-training serving parity");
  }
  trainer.stop();
  EXPECT_EQ(trainer.last_error(), std::string());
  EXPECT_EQ(trainer.stats().promoted, 0);

  online_engine.close_session(online_id);
  control.close_session(control_id);
  remove_checkpoints(trainer);
}

TEST(OnlineTrainer, TornCheckpointRejectedAndServingUntouched) {
  data::TrafficDataset dataset = small_dataset(515);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  serving::Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  const auto id = engine.open_session(stream_config(dataset));
  std::vector<Tensor> before;
  for (std::int64_t t = 0; t < 6; ++t) {
    if (auto out = engine.push(id, dataset.frame(t))) {
      before.push_back(*out);
    }
  }

  // A healthy save is atomic: the final file round-trips and no temp file
  // survives.
  const std::string path = "test-online-torn.bin";
  nn::save_model(path, pipeline.generator());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  engine.reload_model("zipnet", path);

  // Simulate the torn write the atomic path prevents: a truncated
  // checkpoint must throw out of reload_model...
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(engine.reload_model("zipnet", path), std::exception);

  // ...and the old weights keep serving bit-identically. The control
  // session replays the same history first so both sessions' temporal
  // windows line up frame for frame.
  serving::Engine control;
  control.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  const auto control_id = control.open_session(stream_config(dataset));
  for (std::int64_t t = 0; t < 6; ++t) {
    (void)control.push(control_id, dataset.frame(t));
  }
  std::size_t produced = 0;
  for (std::int64_t t = 0; t < 6; ++t) {
    auto a = engine.push(id, dataset.frame(t));
    auto b = control.push(control_id, dataset.frame(t));
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      expect_bitwise(*a, *b, "post-torn-reload serving parity");
      ++produced;
    }
  }
  EXPECT_GT(produced, 0u);

  engine.close_session(id);
  control.close_session(control_id);
  std::remove(path.c_str());
}

// A promotion reloads through load_tensors: a checkpoint whose tensor
// count, name length, dims or payload claims more than the file holds
// throws out of reload_model without allocating it, and the old weights
// keep serving bit for bit.
TEST(OnlineTrainer, ForgedCheckpointsRejectedAndServingUntouched) {
  data::TrafficDataset dataset = small_dataset(517);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  serving::Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  serving::Engine control;
  control.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  const auto id = engine.open_session(stream_config(dataset));
  const auto control_id = control.open_session(stream_config(dataset));

  const std::string path = "test-online-forged.bin";
  for (const auto& forged : forged::checkpoints()) {
    forged::write_bytes(path, forged.bytes);
    EXPECT_THROW(engine.reload_model("zipnet", path), std::runtime_error)
        << forged.field;
  }
  std::remove(path.c_str());

  std::size_t produced = 0;
  for (std::int64_t t = 0; t < 8; ++t) {
    auto a = engine.push(id, dataset.frame(t));
    auto b = control.push(control_id, dataset.frame(t));
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      expect_bitwise(*a, *b, "post-forged-reload serving parity");
      ++produced;
    }
  }
  EXPECT_GT(produced, 0u);
  engine.close_session(id);
  control.close_session(control_id);
}

TEST(OnlineTrainer, ConfigValidation) {
  data::TrafficDataset dataset = small_dataset(516);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  serving::Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<serving::ZipNetModel>(pipeline.generator()));

  TrainerConfig config = small_online_config(dataset, "test-online-bad");
  config.model = "missing";
  EXPECT_THROW(Trainer(engine, pipeline.generator(), config),
               ContractViolation);

  config = small_online_config(dataset, "test-online-bad");
  config.holdout_frames = 0;
  EXPECT_THROW(Trainer(engine, pipeline.generator(), config),
               ContractViolation);

  EXPECT_THROW(FrameTap(0), ContractViolation);
}

}  // namespace
}  // namespace mtsr::online
