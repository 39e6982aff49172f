// Tests for the serving scheduler: cross-session batch fusion (float and
// int8 bit-identity + pool-size determinism), request-level
// dedup/memoization for fan-out consumers (bitwise-equal frames, content
// guarding), checkpoint hot-reload (block-boundary swap, mismatch
// diagnostics, failure leaving the old model bit-identical, concurrent
// reload with zero dropped/duplicated blocks), zero arena growth across
// pass compositions, a model that throws mid-pass, and the scheduler
// telemetry surface.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/baselines/super_resolver.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/core/pipeline.hpp"
#include "src/data/milan.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"
#include "src/serving/scheduler.hpp"
#include "tests/throwing_model.hpp"

namespace mtsr::serving {
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

SessionConfig stream_config(const data::TrafficDataset& dataset,
                            std::string model = "zipnet",
                            std::string stream = "") {
  SessionConfig config = SessionConfig::from_dataset(
      std::move(model), data::MtsrInstance::kUp4, dataset, 8, 4);
  config.stream = std::move(stream);
  return config;
}

void expect_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.flat(i), b.flat(i)) << what << " differs at " << i;
  }
}

TEST(Scheduler, FusedServingMatchesIndependentSessions) {
  PoolGuard guard;
  // Queue-depth and fusion expectations below count ALL sessions in one
  // round, which holds exactly when they share a shard.
  set_num_shards(1);
  data::TrafficDataset dataset = small_dataset(511);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());

  constexpr int kSessions = 4;
  // Distinct streams: session i serves the feed shifted by i frames, so no
  // two sessions ever see the same data (dedup must not engage even if it
  // were enabled — these sessions carry no stream tag).
  auto frame_for = [&](int session, std::int64_t t) {
    return dataset.frame(t + session);
  };

  // Reference: every session served independently (engine.push), pool 1.
  set_num_threads(1);
  std::vector<Tensor> reference;
  {
    Engine engine;
    engine.register_model("zipnet", model);
    std::vector<Engine::SessionId> ids;
    for (int i = 0; i < kSessions; ++i) {
      ids.push_back(engine.open_session(stream_config(dataset)));
    }
    for (std::int64_t t = 0; t < 5; ++t) {
      for (int i = 0; i < kSessions; ++i) {
        auto out = engine.push(ids[i], frame_for(i, t));
        if (out) reference.push_back(std::move(*out));
      }
    }
    const Engine::Stats stats = engine.stats();
    EXPECT_EQ(stats.scheduler.fused_passes, 0);  // nothing to fuse
    EXPECT_EQ(stats.scheduler.dedup_lookups, 0);
  }
  ASSERT_EQ(reference.size(), kSessions * 3u);

  // Fused: all sessions advanced through one scheduler call per frame.
  auto run_fused = [&](int threads) {
    set_num_threads(threads);
    Engine engine;
    engine.register_model("zipnet", model);
    std::vector<Engine::SessionId> ids;
    for (int i = 0; i < kSessions; ++i) {
      ids.push_back(engine.open_session(stream_config(dataset)));
    }
    std::vector<Tensor> outputs;
    for (std::int64_t t = 0; t < 5; ++t) {
      std::vector<Tensor> frames;
      for (int i = 0; i < kSessions; ++i) frames.push_back(frame_for(i, t));
      auto outs = engine.push_all(ids, frames);
      for (auto& o : outs) {
        if (o) outputs.push_back(std::move(*o));
      }
    }
    const Engine::Stats stats = engine.stats();
    EXPECT_GT(stats.scheduler.fused_passes, 0);
    EXPECT_EQ(stats.scheduler.max_queue_depth, kSessions);
    return outputs;
  };

  const std::vector<Tensor> fused1 = run_fused(1);
  ASSERT_EQ(fused1.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    // Fusion widens the generator's products; every element is still its
    // kernel's fixed ascending-k fold, so fused output is bitwise.
    expect_bitwise(fused1[i], reference[i], "fused vs independent");
  }

  // For a fixed session composition the fused output is deterministic
  // across pool sizes (chunk geometry depends only on trip counts).
  const int hw = []() {
    set_num_threads(0);
    return num_threads();
  }();
  for (int threads : {2, hw}) {
    const std::vector<Tensor> fused = run_fused(threads);
    ASSERT_EQ(fused.size(), fused1.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
      expect_bitwise(fused[i], fused1[i], "fused across pool sizes");
    }
  }
}

TEST(Scheduler, FusedServingBitIdenticalInt8) {
  // The int8 forward accumulates in exact s32 with a single-rounding
  // epilogue: per-sample batch-invariant, so fusion is bit-identical.
  data::TrafficDataset dataset = small_dataset(512);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = quantize_generator(
      pipeline.generator(),
      calibration_batches(dataset, pipeline.window_layout(), 3, 8, 4));

  constexpr int kSessions = 3;
  std::vector<Tensor> reference;
  {
    Engine engine;
    engine.register_model("zipnet-int8", model);
    std::vector<Engine::SessionId> ids;
    for (int i = 0; i < kSessions; ++i) {
      ids.push_back(engine.open_session(stream_config(dataset, "zipnet-int8")));
    }
    for (std::int64_t t = 0; t < 5; ++t) {
      for (int i = 0; i < kSessions; ++i) {
        auto out = engine.push(ids[i], dataset.frame(t + i));
        if (out) reference.push_back(std::move(*out));
      }
    }
  }
  Engine engine;
  engine.register_model("zipnet-int8", model);
  std::vector<Engine::SessionId> ids;
  for (int i = 0; i < kSessions; ++i) {
    ids.push_back(engine.open_session(stream_config(dataset, "zipnet-int8")));
  }
  std::vector<Tensor> fused;
  for (std::int64_t t = 0; t < 5; ++t) {
    std::vector<Tensor> frames;
    for (int i = 0; i < kSessions; ++i) frames.push_back(dataset.frame(t + i));
    for (auto& o : engine.push_all(ids, frames)) {
      if (o) fused.push_back(std::move(*o));
    }
  }
  ASSERT_EQ(fused.size(), reference.size());
  ASSERT_EQ(fused.size(), kSessions * 3u);
  EXPECT_GT(engine.stats().scheduler.fused_passes, 0);
  for (std::size_t i = 0; i < fused.size(); ++i) {
    expect_bitwise(fused[i], reference[i], "int8 fused vs independent");
  }
}

TEST(Scheduler, DedupFanoutConsumersReceiveBitwiseEqualFrames) {
  data::TrafficDataset dataset = small_dataset(513);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());

  // Control: one untagged session — the plain unscheduled path.
  Engine control;
  control.register_model("zipnet", model);
  const auto control_id = control.open_session(stream_config(dataset));

  // Three fan-out consumers of the same coarse feed, served fused.
  Engine engine;
  engine.register_model("zipnet", model);
  std::vector<Engine::SessionId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(engine.open_session(stream_config(dataset, "zipnet", "milan")));
  }
  for (std::int64_t t = 0; t < 6; ++t) {
    auto expected = control.push(control_id, dataset.frame(t));
    auto outs = engine.push_fused(ids, dataset.frame(t));
    ASSERT_EQ(outs.size(), 3u);
    for (const auto& o : outs) {
      ASSERT_EQ(o.has_value(), expected.has_value());
      if (o) {
        // Consumers share ONE inference: bitwise-equal to each other and
        // to the unscheduled path (the representative block runs the
        // single-request pass).
        expect_bitwise(*o, *expected, "fan-out consumer vs control");
      }
    }
  }
  const Engine::Stats stats = engine.stats();
  // 4 inferences x 5 blocks x 3 consumers looked up; 2 of 3 hit per block.
  EXPECT_EQ(stats.scheduler.dedup_lookups, 4 * 5 * 3);
  EXPECT_EQ(stats.scheduler.dedup_hits, 4 * 5 * 2);
  EXPECT_EQ(stats.scheduler.fused_passes, 0);  // dedup'd, nothing left to fuse
  // The memo holds only the newest epoch: one entry per block.
  EXPECT_EQ(stats.scheduler.memo_entries, 5);

  // Sequential pushes dedup through the same memo (no co-scheduling
  // needed): a late subscriber pushed on its own still hits.
  const auto late = engine.open_session(stream_config(dataset, "zipnet", "milan"));
  const std::int64_t before = engine.stats().scheduler.dedup_hits;
  for (std::int64_t t = 3; t < 6; ++t) {
    auto expected = control.session(control_id).push(dataset.frame(t));
    (void)expected;
    auto out = engine.push(late, dataset.frame(t));
    if (t == 5) {
      ASSERT_TRUE(out.has_value());
    }
  }
  EXPECT_EQ(engine.stats().scheduler.dedup_hits, before + 5);
}

TEST(Scheduler, DedupIsContentGuarded) {
  // Two sessions mis-tagged as one stream but fed different frames: the
  // frame-hash chain in the key keeps them independent.
  data::TrafficDataset dataset = small_dataset(514);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());

  Engine engine;
  engine.register_model("zipnet", model);
  const auto a = engine.open_session(stream_config(dataset, "zipnet", "city"));
  const auto b = engine.open_session(stream_config(dataset, "zipnet", "city"));

  Engine control;
  control.register_model("zipnet", model);
  const auto ca = control.open_session(stream_config(dataset));
  const auto cb = control.open_session(stream_config(dataset));

  for (std::int64_t t = 0; t < 5; ++t) {
    auto outs = engine.push_all({a, b}, {dataset.frame(t), dataset.frame(t + 7)});
    auto ea = control.push(ca, dataset.frame(t));
    auto eb = control.push(cb, dataset.frame(t + 7));
    ASSERT_EQ(outs[0].has_value(), ea.has_value());
    ASSERT_EQ(outs[1].has_value(), eb.has_value());
    if (ea) expect_bitwise(*outs[0], *ea, "mis-tagged session a");
    if (eb) expect_bitwise(*outs[1], *eb, "mis-tagged session b");
  }
  const Engine::Stats stats = engine.stats();
  EXPECT_GT(stats.scheduler.dedup_lookups, 0);
  EXPECT_EQ(stats.scheduler.dedup_hits, 0);
}

TEST(Scheduler, DedupPinsLayoutIdentity) {
  // A borrowed SessionConfig::layout may aggregate differently than the
  // default make_layout(instance, window, window), and the dedup frame
  // hash only sees bytes from BEFORE the aggregation — so layout identity
  // is part of the key: same tag + same geometry but different layout
  // objects must never share predictions.
  data::TrafficDataset dataset = small_dataset(522);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());
  auto layout_a = data::make_layout(data::MtsrInstance::kUp4, 8, 8);
  auto layout_b = data::make_layout(data::MtsrInstance::kUp4, 8, 8);

  Engine engine;
  engine.register_model("zipnet", model);
  SessionConfig config = stream_config(dataset, "zipnet", "city");
  config.layout = layout_a.get();
  const auto a = engine.open_session(config);
  config.layout = layout_b.get();
  const auto b = engine.open_session(config);
  for (std::int64_t t = 0; t < 4; ++t) {
    auto outs = engine.push_fused({a, b}, dataset.frame(t));
    ASSERT_EQ(outs[0].has_value(), outs[1].has_value());
    // Identical layout geometry still computes identical values — it is
    // only the SHARING that identity-pinning disables.
    if (outs[0]) expect_bitwise(*outs[0], *outs[1], "distinct layout objects");
  }
  EXPECT_EQ(engine.stats().scheduler.dedup_hits, 0);

  // Sessions borrowing the SAME layout object share as usual.
  config.layout = layout_a.get();
  const auto c = engine.open_session(config);
  const auto d = engine.open_session(config);
  for (std::int64_t t = 0; t < 4; ++t) {
    (void)engine.push_fused({c, d}, dataset.frame(t));
  }
  EXPECT_GT(engine.stats().scheduler.dedup_hits, 0);
}

TEST(Scheduler, ClosingTheLastConsumerFreesTheStreamMemo) {
  data::TrafficDataset dataset = small_dataset(523);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(pipeline.generator()));
  const auto a = engine.open_session(stream_config(dataset, "zipnet", "m"));
  const auto b = engine.open_session(stream_config(dataset, "zipnet", "m"));
  for (std::int64_t t = 0; t < 4; ++t) {
    (void)engine.push_fused({a, b}, dataset.frame(t));
  }
  EXPECT_GT(engine.stats().scheduler.memo_entries, 0);
  engine.close_session(a);
  EXPECT_GT(engine.stats().scheduler.memo_entries, 0);  // b still holds it
  engine.close_session(b);
  EXPECT_EQ(engine.stats().scheduler.memo_entries, 0);
}

TEST(Scheduler, HotReloadSwapsAtBlockBoundary) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mtsr_sched_reload.bin")
          .string();
  data::TrafficDataset dataset = small_dataset(515);
  core::MtsrPipeline serving(small_pipeline_config(), dataset);

  // A second generator with the same architecture but different weights.
  core::PipelineConfig other_config = small_pipeline_config();
  other_config.seed = 77;
  core::MtsrPipeline other(other_config, dataset);
  other.save_generator(path);

  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(serving.generator()));
  const auto id = engine.open_session(stream_config(dataset));
  const Model* before = engine.model("zipnet").get();

  for (std::int64_t t = 0; t < 3; ++t) {
    (void)engine.push(id, dataset.frame(t));
  }
  engine.reload_model("zipnet", path);
  EXPECT_NE(engine.model("zipnet").get(), before);
  EXPECT_EQ(engine.model("zipnet")->name(), "zipnet");
  auto after = engine.push(id, dataset.frame(3));
  ASSERT_TRUE(after.has_value());

  // Control: the reloaded weights served from scratch over an identical
  // history must match bitwise (the swap is all-or-nothing and the session
  // state carries over untouched).
  Engine control;
  control.register_model(
      "zipnet", std::make_shared<ZipNetModel>(other.generator()));
  const auto cid = control.open_session(stream_config(dataset));
  std::optional<Tensor> expected;
  for (std::int64_t t = 1; t <= 3; ++t) {
    expected = control.push(cid, dataset.frame(t));
  }
  ASSERT_TRUE(expected.has_value());
  expect_bitwise(*after, *expected, "post-reload vs fresh-session control");

  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.reloads_applied, 1);
  EXPECT_EQ(stats.reloads_failed, 0);
  EXPECT_EQ(stats.sessions.at(0).inference_count, 2);
  std::remove(path.c_str());
}

TEST(Scheduler, FailedReloadLeavesOldModelServingBitIdentically) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mtsr_sched_badckpt.bin")
          .string();
  data::TrafficDataset dataset = small_dataset(516);
  core::MtsrPipeline serving(small_pipeline_config(), dataset);

  // Same parameter count, different width: the loader diagnostics must
  // name the first diverging parameter with both shapes.
  core::PipelineConfig wider = small_pipeline_config();
  wider.zipnet.zipper_channels = 12;
  core::MtsrPipeline mismatched(wider, dataset);
  mismatched.save_generator(path);

  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(serving.generator()));
  const auto id = engine.open_session(stream_config(dataset));
  Engine control;
  control.register_model(
      "zipnet", std::make_shared<ZipNetModel>(serving.generator()));
  const auto cid = control.open_session(stream_config(dataset));

  for (std::int64_t t = 0; t < 3; ++t) {
    auto out = engine.push(id, dataset.frame(t));
    auto expected = control.push(cid, dataset.frame(t));
    ASSERT_EQ(out.has_value(), expected.has_value());
    if (out) expect_bitwise(*out, *expected, "pre-reload serving");
  }

  const Model* before = engine.model("zipnet").get();
  try {
    engine.reload_model("zipnet", path);
    FAIL() << "expected the mismatched checkpoint to be rejected";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("shape mismatch at parameter"), std::string::npos)
        << message;
    EXPECT_NE(message.find("model expects"), std::string::npos) << message;
    EXPECT_NE(message.find("checkpoint has"), std::string::npos) << message;
  }
  EXPECT_EQ(engine.model("zipnet").get(), before);  // slot untouched

  for (std::int64_t t = 3; t < 6; ++t) {
    auto out = engine.push(id, dataset.frame(t));
    auto expected = control.push(cid, dataset.frame(t));
    ASSERT_TRUE(out.has_value());
    expect_bitwise(*out, *expected, "post-failed-reload serving");
  }
  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.reloads_applied, 0);
  EXPECT_EQ(stats.reloads_failed, 1);
  std::remove(path.c_str());
}

TEST(Scheduler, ReloadValidatesReplacementAgainstOpenSessions) {
  data::TrafficDataset dataset = small_dataset(517);
  core::MtsrPipeline serving(small_pipeline_config(), dataset);

  // Replacement with S=2: open sessions hold 3 frames of history.
  core::PipelineConfig shorter = small_pipeline_config();
  shorter.temporal_length = 2;
  core::MtsrPipeline incompatible(shorter, dataset);

  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(serving.generator()));
  const auto id = engine.open_session(stream_config(dataset));
  (void)id;
  try {
    engine.reload_model(
        "zipnet", std::make_shared<ZipNetModel>(incompatible.generator()));
    FAIL() << "expected the incompatible replacement to be rejected";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("old model keeps serving"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine.stats().reloads_failed, 1);

  // Models without checkpoint weights refuse the path form outright.
  engine.register_model("bicubic",
                        std::make_shared<BaselineModel>(
                            baselines::make_super_resolver("bicubic")));
  EXPECT_THROW(engine.reload_model("bicubic", "whatever.bin"),
               ContractViolation);
}

TEST(Scheduler, ConcurrentReloadDropsNoBlocks) {
  const std::string path_a =
      (std::filesystem::temp_directory_path() / "mtsr_sched_ckpt_a.bin")
          .string();
  const std::string path_b =
      (std::filesystem::temp_directory_path() / "mtsr_sched_ckpt_b.bin")
          .string();
  data::TrafficDataset dataset = small_dataset(518);
  core::MtsrPipeline serving(small_pipeline_config(), dataset);
  serving.save_generator(path_a);
  core::PipelineConfig other_config = small_pipeline_config();
  other_config.seed = 99;
  core::MtsrPipeline other(other_config, dataset);
  other.save_generator(path_b);

  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(serving.generator()));
  // Two fan-out consumers plus one independent stream: dedup, fusion and
  // reload all in play at once.
  std::vector<Engine::SessionId> ids;
  ids.push_back(engine.open_session(stream_config(dataset, "zipnet", "milan")));
  ids.push_back(engine.open_session(stream_config(dataset, "zipnet", "milan")));
  ids.push_back(engine.open_session(stream_config(dataset)));

  constexpr std::int64_t kFrames = 16;
  std::atomic<bool> done{false};
  std::int64_t produced = 0;
  bool all_finite = true;
  // The serving thread owns every engine call except reload_model — the
  // documented concurrency contract.
  std::thread server([&] {
    for (std::int64_t t = 0; t < kFrames; ++t) {
      std::vector<Tensor> frames(3, dataset.frame(t % 20));
      auto outs = engine.push_all(ids, frames);
      for (const auto& o : outs) {
        if (o) {
          ++produced;
          all_finite = all_finite && o->all_finite();
        }
      }
    }
    done.store(true);
  });
  std::int64_t reloads = 0;
  while (!done.load()) {
    engine.reload_model("zipnet", (reloads % 2 == 0) ? path_b : path_a);
    ++reloads;
  }
  server.join();

  // Zero dropped or duplicated blocks: every warm push of every session
  // produced exactly one finite frame, whatever weights each block ran on.
  EXPECT_EQ(produced, 3 * (kFrames - 2));
  EXPECT_TRUE(all_finite);
  EXPECT_GE(reloads, 1);
  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.reloads_applied, reloads);
  EXPECT_EQ(stats.reloads_failed, 0);
  for (const auto& s : stats.sessions) {
    EXPECT_EQ(s.inference_count, kFrames - 2);
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(Scheduler, FuseCapShapesThePasses) {
  PoolGuard guard;
  // Fusion needs the sessions on one shard.
  set_num_shards(1);
  data::TrafficDataset dataset = small_dataset(519);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  Engine engine;
  engine.register_model("zipnet",
                        std::make_shared<ZipNetModel>(pipeline.generator()));
  std::vector<Engine::SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(engine.open_session(stream_config(dataset)));
  }
  for (std::int64_t t = 0; t < 3; ++t) {
    std::vector<Tensor> frames;
    for (int i = 0; i < 4; ++i) frames.push_back(dataset.frame(t + i));
    (void)engine.push_all(ids, frames);
  }
  const SchedulerStats s = engine.stats().scheduler;

  // 9 windows per session in blocks of 2: rounds enqueue 4x2 windows, the
  // last round 4x1. The cap of 4 packs pairs of sessions.
  ASSERT_EQ(SchedulerConfig::fuse_cap, 4);
  for (std::size_t b = 5; b < s.fused_histogram.size(); ++b) {
    EXPECT_EQ(s.fused_histogram[b], 0) << "cap 4 produced a pass of " << b;
  }
  EXPECT_GT(s.fused_passes, 0);
  // Telemetry invariants: the histogram decomposes the pass/window totals.
  std::int64_t passes = 0, windows = 0;
  for (std::size_t b = 0; b < s.fused_histogram.size(); ++b) {
    passes += s.fused_histogram[b];
    windows += static_cast<std::int64_t>(b) * s.fused_histogram[b];
  }
  EXPECT_EQ(passes, s.passes);
  EXPECT_EQ(windows, s.windows);
}

TEST(Scheduler, NoPassCompositionGrowsAnArenaAfterWarmUp) {
  data::TrafficDataset dataset = small_dataset(526);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  Engine engine;
  engine.register_model("zipnet",
                        std::make_shared<ZipNetModel>(pipeline.generator()));
  // Four untagged sessions round-robin over the shards, so at one or two
  // shards every shard holds two and their joint rounds reach the cap.
  std::vector<Engine::SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(engine.open_session(stream_config(dataset)));
  }
  // A stream-tagged pair: whichever consumer comes first in a call
  // computes, the other is served from the memo.
  const auto a = engine.open_session(stream_config(dataset, "zipnet", "pair"));
  const auto b = engine.open_session(stream_config(dataset, "zipnet", "pair"));

  // Every arena the engine reports, summed: each shard's and each
  // session's.
  const auto arenas = [&] {
    const Engine::Stats stats = engine.stats();
    Workspace::Stats total;
    const auto add = [&total](const Workspace::Stats& s) {
      total.capacity_bytes += s.capacity_bytes;
      total.live_bytes += s.live_bytes;
      total.growth_events += s.growth_events;
    };
    for (const Engine::ShardStats& s : stats.shards) add(s.arena);
    for (const Engine::SessionStats& s : stats.sessions) add(s.arena);
    return total;
  };
  std::int64_t t = 0;
  const auto push = [&](const std::vector<Engine::SessionId>& who) {
    std::vector<Tensor> frames;
    for (std::size_t i = 0; i < who.size(); ++i) {
      frames.push_back(dataset.frame(t + static_cast<std::int64_t>(i)));
    }
    (void)engine.push_all(who, frames);
    (void)engine.push_fused(t % 2 == 0 ? std::vector{a, b}
                                       : std::vector{b, a},
                            dataset.frame(t));
    ++t;
  };

  // Warm-up: the four sessions together, so passes reach the cap.
  for (int i = 0; i < 3; ++i) push(ids);
  const Workspace::Stats warm = arenas();
  ASSERT_GT(engine.stats().scheduler.fused_histogram.size(),
            static_cast<std::size_t>(SchedulerConfig::fuse_cap));
  EXPECT_GT(warm.capacity_bytes, 0);

  // Every composition up to the cap: sessions alone, in pairs, in threes,
  // all four, and the pair's computing consumer alternating.
  push({ids[0]});
  push({ids[1]});
  push({ids[2], ids[3]});
  push({ids[0], ids[1], ids[2]});
  push({ids[3]});
  push(ids);
  const Workspace::Stats after = arenas();
  EXPECT_EQ(after.capacity_bytes, warm.capacity_bytes);
  EXPECT_EQ(after.growth_events, warm.growth_events);
  EXPECT_EQ(after.live_bytes, 0);
}

TEST(Scheduler, ThrowingPassUnwindsTheCallAndServingResumes) {
  PoolGuard guard;
  data::TrafficDataset dataset = small_dataset(527);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto inner = std::make_shared<ZipNetModel>(pipeline.generator());
  constexpr int kSessions = 4;
  const auto frames_at = [&](std::int64_t t) {
    std::vector<Tensor> frames;
    for (int i = 0; i < kSessions; ++i) frames.push_back(dataset.frame(t + i));
    return frames;
  };

  for (const int shards : {1, 2}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    set_num_shards(shards);
    auto model = std::make_shared<ThrowingModel>(inner);
    Engine engine;
    engine.register_model("zipnet", model);
    Engine control;
    control.register_model("zipnet", inner);
    // Untagged sessions round-robin over the shards in the order they
    // open: at two shards, each holds two of the engine's four.
    std::vector<Engine::SessionId> ids, control_ids;
    for (int i = 0; i < kSessions; ++i) {
      ids.push_back(engine.open_session(stream_config(dataset)));
    }
    for (int i = 0; i < kSessions; ++i) {
      control_ids.push_back(control.open_session(stream_config(dataset)));
    }
    std::int64_t t = 0;
    for (; t < 3; ++t) {
      (void)engine.push_all(ids, frames_at(t));
      (void)control.push_all(control_ids, frames_at(t));
    }
    ASSERT_GT(engine.stats().scheduler.fused_passes, 0);
    // Only the third call inferred, so this is every call's pass count.
    const std::int64_t passes = engine.stats().scheduler.passes;

    // The fourth pass throws with a shard mid-round: stitches are half
    // accumulated and rows of the batch gathered. The last pass throws
    // when, at two shards, the other shard has finished its sessions.
    for (const std::int64_t fail_at : {std::int64_t{3}, passes - 1}) {
      SCOPED_TRACE("failing pass " + std::to_string(fail_at));
      std::vector<std::int64_t> counts;
      for (const auto id : ids) {
        counts.push_back(engine.session(id).inference_count());
      }
      model->fail_after(fail_at);
      try {
        (void)engine.push_all(ids, frames_at(t));
        FAIL() << "expected the model's exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), ThrowingModel::kMessage);
      }
      (void)control.push_all(control_ids, frames_at(t));
      ++t;

      for (const Engine::ShardStats& s : engine.stats().shards) {
        EXPECT_EQ(s.arena.live_bytes, 0) << "shard " << s.shard;
      }
      for (int i = 0; i < kSessions; ++i) {
        EXPECT_EQ(engine.session(ids[i]).inference_count(), counts[i]);
      }

      // Every session kept the frame it admitted: the next call serves
      // what a control fed the same frames serves.
      const auto outs = engine.push_all(ids, frames_at(t));
      const auto expected = control.push_all(control_ids, frames_at(t));
      ++t;
      for (int i = 0; i < kSessions; ++i) {
        ASSERT_TRUE(outs[i].has_value());
        ASSERT_TRUE(expected[i].has_value());
        expect_bitwise(*outs[i], *expected[i], "after a failed pass");
      }
    }
  }
}

TEST(Scheduler, TelemetryRendersInStatsTable) {
  data::TrafficDataset dataset = small_dataset(520);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  Engine engine;
  engine.register_model(
      "zipnet", std::make_shared<ZipNetModel>(pipeline.generator()));
  std::vector<Engine::SessionId> ids;
  for (int i = 0; i < 2; ++i) {
    ids.push_back(engine.open_session(stream_config(dataset, "zipnet", "m")));
  }
  for (std::int64_t t = 0; t < 4; ++t) {
    (void)engine.push_fused(ids, dataset.frame(t));
  }
  const std::string table = render_stats_table(engine.stats());
  EXPECT_NE(table.find("scheduler:"), std::string::npos) << table;
  EXPECT_NE(table.find("skips"), std::string::npos) << table;
  EXPECT_NE(table.find("fused batch sizes:"), std::string::npos) << table;
  EXPECT_NE(table.find("dedup:"), std::string::npos) << table;
  EXPECT_NE(table.find("reloads:"), std::string::npos) << table;
  EXPECT_NE(table.find("max queue"), std::string::npos) << table;
}

TEST(Scheduler, DedupSkipsAdmitCoarseningForMemoServedConsumers) {
  // Fan-out consumers defer their admit-time per-window coarsening; a
  // consumer whose blocks the stream memo serves end to end never pays it
  // at all. Outputs stay bitwise-equal to the untagged control — deferral
  // only moves WHEN coarsening runs, never its values.
  data::TrafficDataset dataset = small_dataset(524);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  auto model = std::make_shared<ZipNetModel>(pipeline.generator());

  Engine engine;
  engine.register_model("zipnet", model);
  std::vector<Engine::SessionId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(engine.open_session(stream_config(dataset, "zipnet", "milan")));
  }
  const auto solo = engine.open_session(stream_config(dataset));  // untagged

  Engine control;
  control.register_model("zipnet", model);
  const auto control_id = control.open_session(stream_config(dataset));

  for (std::int64_t t = 0; t < 8; ++t) {
    auto outs = engine.push_fused(ids, dataset.frame(t));
    auto own = engine.push(solo, dataset.frame(t));
    auto expected = control.push(control_id, dataset.frame(t));
    for (const auto& o : outs) {
      ASSERT_EQ(o.has_value(), expected.has_value());
      if (o) expect_bitwise(*o, *expected, "deferred-coarsening consumer");
    }
    ASSERT_EQ(own.has_value(), expected.has_value());
    if (own) expect_bitwise(*own, *expected, "untagged session");
  }

  const Engine::Stats stats = engine.stats();
  for (const Engine::SessionStats& s : stats.sessions) {
    if (s.id == ids[0] || s.id == solo) {
      // The first consumer computes every block (its gathers force the
      // coarsening); untagged sessions coarsen eagerly on admit.
      EXPECT_EQ(s.coarsen_skips, 0) << "session " << s.id;
    } else {
      // Memo-served consumers: every post-warm-up eviction (t = 3..7)
      // drops a frame whose coarsening was never needed.
      EXPECT_EQ(s.coarsen_skips, 5) << "session " << s.id;
    }
  }
}

TEST(Scheduler, StandaloneSessionServesWithoutAnEngine) {
  data::TrafficDataset dataset = small_dataset(521);
  core::MtsrPipeline pipeline(small_pipeline_config(), dataset);
  Session session(std::make_shared<ZipNetModel>(pipeline.generator()),
                  stream_config(dataset));
  std::optional<Tensor> out;
  for (std::int64_t t = 0; t < 4; ++t) {
    out = session.push(dataset.frame(t));
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->shape(), dataset.frame(0).shape());
  EXPECT_TRUE(out->all_finite());
  EXPECT_EQ(session.inference_count(), 2);
}

}  // namespace
}  // namespace mtsr::serving
