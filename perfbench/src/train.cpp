// train_online: the write side. One in-process session streams a drifted
// city (a different geography than the generator was pre-trained on,
// normalised with the training city's statistics, as in bench_online);
// between every few pushes online::Trainer::run_rounds(1) fine-tunes with an
// adversarial round, emits a checkpoint every second round, gates it on the
// holdout frames and hot-reloads winners into the live engine.
#include <cmath>
#include <cstdio>

#include "fixture.hpp"
#include "src/common/rng.hpp"
#include "src/data/milan.hpp"
#include "src/metrics/metrics.hpp"
#include "src/online/trainer.hpp"
#include "src/serving/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace serving = mtsr::serving;

constexpr int kPushesPerRound = 50;  ///< pushes between trainer rounds
constexpr int kRounds = 20;  ///< 1000 pushes: p99 has 10 beyond it
constexpr std::int64_t kWarmInferences = 2;

struct TrainStack {
  std::unique_ptr<Fixture> fixture;
  std::vector<mtsr::Tensor> stream;
  std::unique_ptr<serving::Engine> engine;
  std::unique_ptr<mtsr::online::Trainer> trainer;
  serving::Engine::SessionId id = 0;
  std::int64_t next = 0;  ///< next stream frame to push
  double warm_s = 0;

  TrainStack() = default;
  TrainStack(const TrainStack&) = delete;
  TrainStack& operator=(const TrainStack&) = delete;
  ~TrainStack() {
    if (!trainer) return;
    for (const std::string& path : trainer->retained_checkpoints()) {
      std::remove(path.c_str());
    }
  }
};

std::unique_ptr<TrainStack> set_up(const Options& opt, SpanLog& log,
                                   std::int64_t stream_start,
                                   std::int64_t frames) {
  auto st = std::make_unique<TrainStack>();
  st->fixture = build_fixture("zipnet");
  mtsr::data::MilanConfig drifted;
  drifted.rows = kSide;
  drifted.cols = kSide;
  drifted.num_hotspots = 14;
  drifted.seed = 1234;
  st->stream = mtsr::data::MilanTrafficGenerator(drifted).generate(
      stream_start, frames);

  const mtsr::data::TrafficDataset& city = *st->fixture->dataset;
  st->engine = std::make_unique<serving::Engine>();
  st->engine->register_model(
      "zipnet", std::make_shared<TimedModel>(st->fixture->model, log));
  mtsr::online::TrainerConfig oc = mtsr::online::TrainerConfig::from_dataset(
      "zipnet", mtsr::data::MtsrInstance::kUp4, city, kWindow);
  oc.trainer.learning_rate = 2e-3f;
  oc.steps_per_round = 4;
  oc.adversarial_rounds = 1;
  oc.rounds_per_checkpoint = 2;
  oc.checkpoint_dir = opt.work_dir;
  st->trainer = std::make_unique<mtsr::online::Trainer>(
      *st->engine, st->fixture->pipeline->generator(), oc);

  const std::int64_t t0 = now_ns();
  st->id = st->engine->open_session(serving::SessionConfig::from_dataset(
      "zipnet", mtsr::data::MtsrInstance::kUp4, city, kWindow, kStride));
  for (; st->next < kTemporal - 1 + kWarmInferences; ++st->next) {
    const auto out = st->engine->push(
        st->id, st->stream[static_cast<std::size_t>(st->next)]);
    if (st->next >= kTemporal - 1 && (!out || !out->all_finite())) {
      throw std::runtime_error("warm-up push returned no finite frame");
    }
  }
  st->warm_s = (now_ns() - t0) * 1e-9;
  return st;
}

}  // namespace

RunResult run_train(const Options& opt, SpanLog& log) {
  RunResult result;
  // Inputs from the seed: which week of the drifted city is streamed. Whole
  // weeks keep the diurnal and weekly phase, so seeds differ in noise, not
  // in how hard the stream is.
  constexpr std::int64_t kWeek = 7 * 144;
  const std::int64_t stream_start =
      mtsr::Rng(opt.seed).uniform_int(0, 7) * kWeek;
  const std::int64_t frames =
      kTemporal - 1 + kWarmInferences + kRounds * kPushesPerRound;

  std::vector<double> setup_s, pretrain_s, warm_s;
  std::unique_ptr<TrainStack> st;
  for (int rep = 0; rep < opt.setups; ++rep) {
    const std::int64_t t0 = rep == 0 ? 0 : now_ns();
    st.reset();
    st = set_up(opt, log, stream_start, frames);
    setup_s.push_back((now_ns() - t0) * 1e-9);
    pretrain_s.push_back(st->fixture->pretrain_s);
    warm_s.push_back(st->warm_s);
  }
  serving::Engine& engine = *st->engine;
  mtsr::online::Trainer& trainer = *st->trainer;
  const int batch = trainer.config().trainer.batch_size;

  // ---- The train-while-serve loop -------------------------------------------
  // Rounds run in pairs (a pair holds one checkpoint round). Timing figures
  // are medians over the pushes, rounds and pairs of calm pairs, so one slow
  // stretch does not set them. A pair during which the host's steal share
  // passed opt.steal_bound is disturbed: it is left out of every timing
  // figure and one more pair runs in its place (see another_cycle). NRMSE
  // covers the first kRounds rounds whatever their timing, so it does not
  // depend on the host.
  const EngineSnap loop0 = snap(engine);
  std::vector<double> push_ms, push_traced, push_untraced, nrmse;
  std::vector<double> round_ms, ckpt_round_ms, fps, sample_rate, steal;
  double traced_wall_s = 0;
  std::int64_t pushes = 0, served = 0;
  int pairs = 0, calm_pairs = 0;
  for (; another_cycle(pairs, calm_pairs, kRounds / 2); ++pairs) {
    const CpuTimes cpu0 = read_cpu_times();
    std::vector<double> pair_push_ms, pair_fps, pair_round_ms, pair_ckpt_ms;
    double pair_samples = 0, pair_s = 0;
    for (int r = 2 * pairs; r < 2 * pairs + 2; ++r) {
      const bool traced = opt.trace && r % 2 == 0;
      log.set_enabled(traced);
      const std::int64_t r0 = now_ns();
      double round_push_s = 0;
      for (int k = 0; k < kPushesPerRound; ++k, ++st->next, ++pushes) {
        // Rounds past kRounds only rerun disturbed pairs for timing, so
        // they replay the stream from its start.
        const mtsr::Tensor& frame =
            st->stream[static_cast<std::size_t>(st->next) % st->stream.size()];
        const std::int64_t t0 = now_ns();
        const std::optional<mtsr::Tensor> out = engine.push(st->id, frame);
        const std::int64_t t1 = now_ns();
        log.record({"push", t0, t1, st->next, t0});
        const double ms = (t1 - t0) * 1e-6;
        pair_push_ms.push_back(ms);
        if (opt.trace) (traced ? push_traced : push_untraced).push_back(ms);
        round_push_s += ms * 1e-3;
        if (!out || out->shape() != frame.shape() || !out->all_finite()) {
          result.fail("push " + std::to_string(st->next) +
                      " after warm-up returned no finite frame");
          continue;
        }
        ++served;
        if (r < kRounds) nrmse.push_back(mtsr::metrics::nrmse(*out, frame));
      }
      pair_fps.push_back(kPushesPerRound / round_push_s);

      const auto stats0 = trainer.stats();
      const std::int64_t t0 = now_ns();
      trainer.run_rounds(1);
      const std::int64_t t1 = now_ns();
      log.record({"run_rounds", t0, t1, r, 0});
      const auto stats1 = trainer.stats();
      const double ms = (t1 - t0) * 1e-6;
      (stats1.candidates > stats0.candidates ? pair_ckpt_ms : pair_round_ms)
          .push_back(ms);
      pair_samples +=
          static_cast<double>((stats1.steps - stats0.steps) * batch);
      pair_s += ms * 1e-3;
      if (traced) traced_wall_s += (t1 - r0) * 1e-9;
    }
    steal.push_back(steal_share(cpu0, read_cpu_times()));
    if (steal.back() > opt.steal_bound) continue;
    ++calm_pairs;
    push_ms.insert(push_ms.end(), pair_push_ms.begin(), pair_push_ms.end());
    fps.insert(fps.end(), pair_fps.begin(), pair_fps.end());
    round_ms.insert(round_ms.end(), pair_round_ms.begin(), pair_round_ms.end());
    ckpt_round_ms.insert(ckpt_round_ms.end(), pair_ckpt_ms.begin(),
                         pair_ckpt_ms.end());
    sample_rate.push_back(pair_samples / pair_s);
  }
  log.set_enabled(false);
  const EngineSnap loop1 = snap(engine);
  const serving::OnlineTrainerStats online = trainer.stats();

  result.attempted = pushes;
  result.failed = pushes - served;
  if (online.promoted < 1) result.fail("no candidate was promoted");
  if (!trainer.last_error().empty()) result.fail(trainer.last_error());
  const int disturbed = pairs - calm_pairs;
  std::printf("online: %d rounds, %lld candidates, %lld promoted, %lld "
              "rejected, holdout nrmse %.4f\n"
              "host: %d of %d round pairs disturbed (steal share above "
              "%.3f), median steal share %.4f\n",
              2 * pairs,
              static_cast<long long>(online.candidates),
              static_cast<long long>(online.promoted),
              static_cast<long long>(online.rejected), online.holdout_nrmse,
              disturbed, pairs, opt.steal_bound,
              median(steal));
  if (calm_pairs < kRounds / 2) {
    result.valid = false;
    return result;
  }

  try {
    const double push_p99 = percentile(push_ms, 0.99);
    if (opt.trace) {
      result.set("loadgen.push_p99_ms", push_p99, "ms");
    } else {
      result.set("setup_s", median(setup_s), "s");
      result.set("serve_fps", median(fps), "frames/s");
      result.set("push_p50_ms", median(push_ms), "ms");
      result.set("nrmse", mean(nrmse), "ratio");
      result.set("train_samples_per_s", median(sample_rate), "samples/s");
      result.set("peak_rss_mb", peak_rss_mib(), "MiB");
      return result;
    }
  } catch (const std::invalid_argument& e) {
    result.fail(e.what());
    return result;
  }

  set_idle_layers(result, true, false);
  set_serving_metrics(result, loop1 - loop0, static_cast<double>(pushes));
  result.set("host.steal_share", median(steal), "ratio");
  result.set("host.disturbed_cycles", static_cast<double>(disturbed),
             "count");
  result.set("serving.arena_growth_events", loop1.growth - loop0.growth,
             "count");
  set_core_metrics(result, log.spans("predict"), traced_wall_s,
                   log.spans("load_checkpoint"));

  result.set("online.round_ms", round_ms.empty() ? 0 : median(round_ms), "ms");
  result.set("online.checkpoint_round_ms",
             ckpt_round_ms.empty() ? 0 : median(ckpt_round_ms), "ms");
  result.set("online.steps", static_cast<double>(online.steps), "count");
  result.set("online.promoted", static_cast<double>(online.promoted), "count");
  result.set("online.rejected", static_cast<double>(online.rejected), "count");
  result.set("online.holdout_nrmse", online.holdout_nrmse, "ratio");

  result.set("setup.pretrain_s", median(pretrain_s), "s");
  result.set("setup.quantize_s", 0, "s");
  result.set("setup.warm_s", median(warm_s), "s");
  result.set("loadgen.sent", static_cast<double>(pushes), "count");
  result.set("loadgen.answered", static_cast<double>(served), "count");
  result.set("trace.overhead_pct",
             push_traced.empty() || push_untraced.empty()
                 ? 0
                 : (median(push_traced) / median(push_untraced) - 1) * 100,
             "%");
  log.set_enabled(true);
  set_probe_metrics(result, log);
  log.set_enabled(false);
  return result;
}

}  // namespace perfbench
