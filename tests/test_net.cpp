// Tests for the network front door: wire-format round-trips and its
// rejection of malformed framing, the latency histogram's quantile
// contract, the bounded admission queue's one-push-per-session rounds,
// and the TCP server end to end over loopback — bitwise parity between
// wire-served and in-process inference, explicit backpressure when the
// admission queue floods, slow-client write-buffer eviction, error
// responses that leave the connection usable, non-finite frames
// answered at the door without failing their round, and a round whose
// generator pass throws answered with errors before the next round serves.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/data/milan.hpp"
#include "src/net/admission.hpp"
#include "src/net/client.hpp"
#include "src/net/histogram.hpp"
#include "src/net/protocol.hpp"
#include "src/net/server.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"
#include "tests/throwing_model.hpp"

namespace mtsr::net {
namespace {

struct PoolGuard {
  ~PoolGuard() {
    set_num_threads(0);
    set_num_shards(0);
  }
};

data::TrafficDataset small_dataset(std::uint64_t seed = 710,
                                   std::int64_t side = 16) {
  data::MilanConfig config;
  config.rows = side;
  config.cols = side;
  config.num_hotspots = 10;
  config.seed = seed;
  return data::TrafficDataset(
      data::MilanTrafficGenerator(config).generate(0, 40), 10, true);
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

OpenRequest open_request_for(const data::TrafficDataset& dataset,
                             const std::string& model) {
  OpenRequest req;
  req.model = model;
  req.instance = static_cast<std::uint8_t>(data::MtsrInstance::kUp4);
  req.rows = dataset.rows();
  req.cols = dataset.cols();
  req.window = 8;
  req.stitch_stride = 4;
  req.mean = dataset.stats().mean;
  req.stddev = dataset.stats().stddev;
  req.log_transform = true;
  return req;
}

void expect_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.flat(i), b.flat(i)) << what << " differs at " << i;
  }
}

/// Extracts the single frame a codec test just encoded.
Frame must_extract(const std::vector<std::uint8_t>& bytes) {
  std::size_t consumed = 0;
  auto frame = try_extract_frame(bytes.data(), bytes.size(), &consumed);
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(consumed, bytes.size());
  return std::move(*frame);
}

TEST(Protocol, RequestRoundTrip) {
  OpenRequest open;
  open.model = "zipnet";
  open.stream = "milan";
  open.instance = 2;
  open.log_transform = false;
  open.rows = 100;
  open.cols = 99;
  open.window = 20;
  open.stitch_stride = 10;
  open.mean = 3.25;
  open.stddev = 1.75;
  Request decoded = decode_request(must_extract(encode_open(open)));
  EXPECT_EQ(decoded.verb, Verb::kOpen);
  EXPECT_EQ(decoded.open.model, "zipnet");
  EXPECT_EQ(decoded.open.stream, "milan");
  EXPECT_EQ(decoded.open.instance, 2);
  EXPECT_FALSE(decoded.open.log_transform);
  EXPECT_EQ(decoded.open.rows, 100);
  EXPECT_EQ(decoded.open.cols, 99);
  EXPECT_EQ(decoded.open.window, 20);
  EXPECT_EQ(decoded.open.stitch_stride, 10);
  EXPECT_EQ(decoded.open.mean, 3.25);
  EXPECT_EQ(decoded.open.stddev, 1.75);

  PushRequest push;
  push.session = 42;
  push.frame = Tensor(Shape{3, 4});
  for (std::int64_t i = 0; i < push.frame.size(); ++i) {
    push.frame.flat(i) = static_cast<float>(i) * 0.5f;
  }
  decoded = decode_request(must_extract(encode_push(push)));
  EXPECT_EQ(decoded.verb, Verb::kPush);
  EXPECT_EQ(decoded.push.session, 42);
  expect_bitwise(decoded.push.frame, push.frame, "push frame");

  decoded = decode_request(must_extract(encode_close(CloseRequest{7})));
  EXPECT_EQ(decoded.verb, Verb::kClose);
  EXPECT_EQ(decoded.close.session, 7);

  decoded = decode_request(must_extract(encode_stats_request()));
  EXPECT_EQ(decoded.verb, Verb::kStats);
}

TEST(Protocol, ResponseRoundTrip) {
  PushResponse push;
  push.status = Status::kOk;
  push.session = 9;
  push.frame = Tensor(Shape{2, 2});
  push.frame.flat(0) = -1.5f;
  push.frame.flat(3) = 7.25f;
  Response decoded = decode_response(must_extract(encode_response(push)));
  EXPECT_EQ(decoded.verb, Verb::kPush);
  EXPECT_EQ(decoded.push.status, Status::kOk);
  EXPECT_EQ(decoded.push.session, 9);
  expect_bitwise(decoded.push.frame, push.frame, "push response frame");

  PushResponse rejected;
  rejected.status = Status::kRejected;
  rejected.session = 9;
  rejected.retry_after_ms = 12.5;
  decoded = decode_response(must_extract(encode_response(rejected)));
  EXPECT_EQ(decoded.push.status, Status::kRejected);
  EXPECT_EQ(decoded.push.retry_after_ms, 12.5);
  EXPECT_TRUE(decoded.push.frame.empty());

  OpenResponse open;
  open.status = Status::kError;
  open.error = "unknown model";
  decoded = decode_response(must_extract(encode_response(open)));
  EXPECT_EQ(decoded.open.status, Status::kError);
  EXPECT_EQ(decoded.open.error, "unknown model");

  StatsResponse stats;
  stats.requests = 100;
  stats.served = 90;
  stats.rejected = 4;
  stats.slo_violations = 1;
  stats.max_queue_depth = 17;
  stats.p50_ms = 1.5;
  stats.p99_ms = 9.5;
  stats.p999_ms = 20.0;
  stats.online_steps = 640;
  stats.online_promoted = 3;
  stats.online_rejected = 2;
  stats.online_staleness_s = 7.25;
  stats.online_holdout_nrmse = 0.4375;
  stats.table = "| sessions |";
  decoded = decode_response(must_extract(encode_response(stats)));
  EXPECT_EQ(decoded.stats.requests, 100);
  EXPECT_EQ(decoded.stats.served, 90);
  EXPECT_EQ(decoded.stats.rejected, 4);
  EXPECT_EQ(decoded.stats.slo_violations, 1);
  EXPECT_EQ(decoded.stats.max_queue_depth, 17);
  EXPECT_EQ(decoded.stats.p999_ms, 20.0);
  EXPECT_EQ(decoded.stats.online_steps, 640);
  EXPECT_EQ(decoded.stats.online_promoted, 3);
  EXPECT_EQ(decoded.stats.online_rejected, 2);
  EXPECT_EQ(decoded.stats.online_staleness_s, 7.25);
  EXPECT_EQ(decoded.stats.online_holdout_nrmse, 0.4375);
  EXPECT_EQ(decoded.stats.table, "| sessions |");
}

TEST(Protocol, TruncatedOversizedAndGarbageFrames) {
  const auto full = encode_close(CloseRequest{1});
  // Every strict prefix is "wait for more bytes", never an error.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::size_t consumed = 1;
    const auto frame = try_extract_frame(full.data(), cut, &consumed);
    EXPECT_FALSE(frame.has_value()) << "prefix of " << cut;
    EXPECT_EQ(consumed, 0u);
  }

  // A length field beyond the cap is fatal before any allocation.
  std::vector<std::uint8_t> oversized = {0xff, 0xff, 0xff, 0xff, 2};
  std::size_t consumed = 0;
  EXPECT_THROW((void)try_extract_frame(oversized.data(), oversized.size(),
                                       &consumed, 1 << 20),
               ProtocolError);

  // Zero length cannot even hold the verb byte.
  std::vector<std::uint8_t> empty_frame = {0, 0, 0, 0};
  EXPECT_THROW((void)try_extract_frame(empty_frame.data(),
                                       empty_frame.size(), &consumed),
               ProtocolError);

  // Unknown verb byte.
  std::vector<std::uint8_t> bad_verb = {1, 0, 0, 0, 99};
  EXPECT_THROW(
      (void)try_extract_frame(bad_verb.data(), bad_verb.size(), &consumed),
      ProtocolError);

  // Structurally short payload: CLOSE with half a session id.
  std::vector<std::uint8_t> short_close = {5, 0, 0, 0,
                                           static_cast<std::uint8_t>(
                                               Verb::kClose),
                                           1, 2, 3, 4};
  auto frame = try_extract_frame(short_close.data(), short_close.size(),
                                 &consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_THROW((void)decode_request(*frame), ProtocolError);

  // Trailing garbage after a well-formed payload.
  auto padded = encode_close(CloseRequest{1});
  padded.push_back(0xab);
  padded[0] += 1;  // lie the length forward over the garbage byte
  frame = try_extract_frame(padded.data(), padded.size(), &consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_THROW((void)decode_request(*frame), ProtocolError);

  // Absurd tensor dims inside a small frame.
  PushRequest push;
  push.session = 1;
  push.frame = Tensor(Shape{1, 1});
  auto wire = encode_push(push);
  wire[5 + 8] = 0xff;  // rows (after verb + session): 4 GB worth of cells
  wire[5 + 9] = 0xff;
  wire[5 + 10] = 0xff;
  wire[5 + 11] = 0xff;
  frame = try_extract_frame(wire.data(), wire.size(), &consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_THROW((void)decode_request(*frame), ProtocolError);
}

TEST(Histogram, QuantilesMergeAndReset) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000);
  EXPECT_EQ(h.max_micros(), 1000.0);
  // Bucket width is <= ~3% above the linear range and exact below it.
  EXPECT_NEAR(h.quantile(0.50), 500.0, 500.0 * 0.04);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.04);
  EXPECT_EQ(h.quantile(1.0), 1000.0);
  EXPECT_GE(h.quantile(0.999), h.quantile(0.99));
  EXPECT_GE(h.quantile(0.99), h.quantile(0.50));

  // The exact-count region: 10 samples below 32 us land in unit buckets
  // [i, i+1), and quantile() reports the bucket's upper edge.
  LatencyHistogram small;
  for (int i = 1; i <= 10; ++i) small.record(static_cast<double>(i));
  EXPECT_EQ(small.quantile(0.5), 6.0);
  EXPECT_EQ(small.quantile(0.1), 2.0);

  LatencyHistogram other;
  for (int i = 0; i < 1000; ++i) other.record(4000.0);
  other.merge(h);
  EXPECT_EQ(other.count(), 2000);
  EXPECT_EQ(other.max_micros(), 4000.0);
  // Half the mass sits at 4 ms, so the median jumps there (within bucket).
  EXPECT_NEAR(other.quantile(0.75), 4000.0, 4000.0 * 0.04);

  other.reset();
  EXPECT_EQ(other.count(), 0);
  EXPECT_EQ(other.quantile(0.99), 0.0);
}

TEST(Admission, BoundedQueueAndDispatchRounds) {
  AdmissionQueue queue(3);
  auto push_for = [](std::uint64_t conn, std::int64_t session) {
    PendingPush p;
    p.connection = conn;
    p.session = session;
    p.frame = Tensor(Shape{1, 1});
    return p;
  };
  EXPECT_TRUE(queue.enqueue(push_for(1, 10)));
  EXPECT_TRUE(queue.enqueue(push_for(1, 10)));  // same session, rides along
  EXPECT_TRUE(queue.enqueue(push_for(2, 20)));
  EXPECT_FALSE(queue.enqueue(push_for(2, 30)));  // over capacity
  EXPECT_EQ(queue.depth(), 3);
  EXPECT_EQ(queue.max_depth(), 3);
  EXPECT_EQ(queue.rejected(), 1);

  // Round 1: one push per distinct session, arrival order preserved.
  auto round = queue.next_round();
  ASSERT_EQ(round.size(), 2u);
  EXPECT_EQ(round[0].session, 10);
  EXPECT_EQ(round[1].session, 20);
  EXPECT_EQ(queue.depth(), 1);

  // Round 2: the session-10 push that waited out round 1.
  round = queue.next_round();
  ASSERT_EQ(round.size(), 1u);
  EXPECT_EQ(round[0].session, 10);
  EXPECT_TRUE(queue.next_round().empty());

  // Dropping a connection removes only its pushes.
  EXPECT_TRUE(queue.enqueue(push_for(1, 10)));
  EXPECT_TRUE(queue.enqueue(push_for(2, 20)));
  EXPECT_EQ(queue.drop_connection(1), 1);
  EXPECT_EQ(queue.depth(), 1);
  EXPECT_EQ(queue.drop_session(20), 1);
  EXPECT_EQ(queue.depth(), 0);
}

/// Shared fixture bits: a trained-enough tiny model behind an engine.
struct ServedEngine {
  data::TrafficDataset dataset = small_dataset();
  core::MtsrPipeline pipeline{small_pipeline_config(), dataset};
  serving::Engine engine;

  ServedEngine() {
    engine.register_model(
        "zipnet",
        std::make_shared<serving::ZipNetModel>(pipeline.generator()));
  }
};

/// Runs a blocking client call against a server whose loop the test
/// drives by hand (the single-step seam): a helper thread polls the server
/// while the client blocks.
template <typename Call>
auto polled(Server& server, const Call& call) {
  std::atomic<bool> done{false};
  std::thread step([&] {
    while (!done.load()) server.poll_once(2);
  });
  auto result = call();
  done.store(true);
  step.join();
  return result;
}

TEST(Server, LoopbackServedFramesAreBitwiseIdenticalToInProcess) {
  PoolGuard guard;
  ServedEngine served;
  Server server(served.engine, ServerConfig{});
  ASSERT_GT(server.port(), 0);
  std::thread loop([&] { server.run(); });

  const int kFrames = 6;
  std::vector<Tensor> wire_results;
  {
    Client client("127.0.0.1", server.port());
    const auto open =
        client.open(open_request_for(served.dataset, "zipnet"));
    ASSERT_EQ(open.status, Status::kOk);
    EXPECT_EQ(open.temporal_length, 3);
    EXPECT_EQ(open.frames_until_ready, 3);

    for (int t = 0; t < kFrames; ++t) {
      const auto resp = client.push(open.session, served.dataset.frame(t));
      ASSERT_NE(resp.status, Status::kError) << resp.error;
      if (t + 1 < open.temporal_length) {
        EXPECT_EQ(resp.status, Status::kWarmup);
        EXPECT_EQ(resp.frames_until_ready,
                  open.temporal_length - (t + 1));
      } else {
        ASSERT_EQ(resp.status, Status::kOk);
        wire_results.push_back(resp.frame);
      }
    }
    const auto closed = client.close_session(open.session);
    EXPECT_EQ(closed.status, Status::kOk);

    const auto stats = client.stats();
    EXPECT_EQ(stats.served,
              static_cast<std::int64_t>(wire_results.size()));
    EXPECT_EQ(stats.rejected, 0);
    EXPECT_NE(stats.table.find("front door"), std::string::npos);
  }
  server.stop();
  loop.join();

  // Control: the same frames through a second engine over the SAME model
  // instance, in process. Runs strictly after the server thread exits so
  // the (single-threaded) serving stack is never driven from two threads.
  serving::Engine control;
  control.register_model(
      "zipnet",
      std::make_shared<serving::ZipNetModel>(served.pipeline.generator()));
  serving::SessionConfig cfg = serving::SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, served.dataset, 8, 4);
  const auto id = control.open_session(cfg);
  std::size_t served_ix = 0;
  for (int t = 0; t < kFrames; ++t) {
    const auto out = control.push(id, served.dataset.frame(t));
    if (!out.has_value()) continue;
    ASSERT_LT(served_ix, wire_results.size());
    expect_bitwise(wire_results[served_ix], *out, "wire vs in-process");
    ++served_ix;
  }
  EXPECT_EQ(served_ix, wire_results.size());
}

TEST(Server, BackpressureRejectsWhenAdmissionQueueFloods) {
  PoolGuard guard;
  ServedEngine served;
  ServerConfig config;
  config.max_queue_depth = 2;
  config.retry_after_ms = 25;
  Server server(served.engine, config);
  server.set_auto_drain(false);  // pile pushes up without serving them

  Client client("127.0.0.1", server.port());
  std::vector<std::int64_t> sessions;
  // Interleave poll_once so OPEN responses arrive: the server and the test
  // share this thread (the single-step seam), so open() cannot block.
  for (int i = 0; i < 4; ++i) {
    auto req = open_request_for(served.dataset, "zipnet");
    req.stream = "";  // distinct sessions -> distinct round slots
    std::thread step([&] {
      for (int k = 0; k < 150; ++k) server.poll_once(2);
    });
    const auto open = client.open(req);
    step.join();
    ASSERT_EQ(open.status, Status::kOk);
    sessions.push_back(open.session);
  }

  // Four pushes for four distinct sessions; capacity 2 -> 2 rejections.
  for (const auto id : sessions) {
    client.send_push(id, served.dataset.frame(0));
  }
  for (int k = 0; k < 200 && server.front_door_stats().pushes < 4; ++k) {
    server.poll_once(5);
  }
  auto fd = server.front_door_stats();
  ASSERT_EQ(fd.pushes, 4);
  EXPECT_EQ(fd.rejected, 2);
  EXPECT_EQ(fd.queue_depth, 2);
  EXPECT_EQ(fd.max_queue_depth, 2);
  EXPECT_EQ(fd.queue_cap, 2);

  // The two rejections answered immediately with the retry hint.
  for (int i = 0; i < 2; ++i) {
    std::thread step([&] {
      for (int k = 0; k < 150; ++k) server.poll_once(2);
    });
    const auto resp = client.poll_push(2000);
    step.join();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, Status::kRejected);
    EXPECT_EQ(resp->retry_after_ms, 25.0);
  }

  // Draining serves the two admitted pushes (warm-up responses here).
  server.drain();
  for (int i = 0; i < 2; ++i) {
    std::thread step([&] {
      for (int k = 0; k < 150; ++k) server.poll_once(2);
    });
    const auto resp = client.poll_push(2000);
    step.join();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, Status::kWarmup);
  }
  fd = server.front_door_stats();
  EXPECT_EQ(fd.queue_depth, 0);
  EXPECT_EQ(fd.warmups, 2);
}

TEST(Server, SlowClientExceedingWriteBufferIsEvicted) {
  PoolGuard guard;
  ServedEngine served;
  ServerConfig config;
  config.max_write_buffer = 16 * 1024;  // ~16 served 16x16 frames
  config.send_buffer_bytes = 4096;      // stall the kernel path early
  Server server(served.engine, config);
  std::thread loop([&] { server.run(); });

  {
    ClientConfig ccfg;
    ccfg.recv_buffer_bytes = 4096;
    Client client("127.0.0.1", server.port(), ccfg);
    const auto open =
        client.open(open_request_for(served.dataset, "zipnet"));
    ASSERT_EQ(open.status, Status::kOk);

    // Never read a push response: served frames back up through the
    // kernel buffers into the server's userspace write buffer.
    for (int t = 0; t < 120; ++t) {
      client.send_push(
          open.session,
          served.dataset.frame(t % served.dataset.frame_count()));
      if (server.front_door_stats().evicted > 0) break;
    }
    for (int k = 0; k < 400 && server.front_door_stats().evicted == 0;
         ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  server.stop();
  loop.join();

  const auto fd = server.front_door_stats();
  EXPECT_EQ(fd.evicted, 1);
  EXPECT_EQ(fd.connections_open, 0);
  // Eviction closed the connection's sessions server-side.
  EXPECT_EQ(served.engine.session_count(), 0);
}

TEST(Server, ErrorResponsesLeaveTheConnectionUsable) {
  PoolGuard guard;
  ServedEngine served;
  Server server(served.engine, ServerConfig{});
  std::thread loop([&] { server.run(); });
  {
    Client client("127.0.0.1", server.port());

    // Unknown model.
    auto req = open_request_for(served.dataset, "no-such-model");
    auto open = client.open(req);
    EXPECT_EQ(open.status, Status::kError);
    EXPECT_NE(open.error.find("no-such-model"), std::string::npos);

    // Push to a session that does not exist.
    auto push = client.push(12345, served.dataset.frame(0));
    EXPECT_EQ(push.status, Status::kError);

    // A real session still opens and serves on the same connection.
    open = client.open(open_request_for(served.dataset, "zipnet"));
    ASSERT_EQ(open.status, Status::kOk);

    // Wrong frame geometry is rejected before admission.
    push = client.push(open.session, Tensor(Shape{4, 4}));
    EXPECT_EQ(push.status, Status::kError);
    EXPECT_NE(push.error.find("shape"), std::string::npos);

    // And the session still works after all of the above.
    push = client.push(open.session, served.dataset.frame(0));
    EXPECT_EQ(push.status, Status::kWarmup);

    // Closing someone else's session id fails; closing ours succeeds.
    EXPECT_EQ(client.close_session(999).status, Status::kError);
    EXPECT_EQ(client.close_session(open.session).status, Status::kOk);

    const auto fd = server.front_door_stats();
    EXPECT_EQ(fd.errors, 4);
    EXPECT_EQ(fd.protocol_errors, 0);
  }
  server.stop();
  loop.join();
}

TEST(Server, NonFiniteFrameAnsweredWithErrorAndRoundServed) {
  PoolGuard guard;
  ServedEngine served;
  Server server(served.engine, ServerConfig{});
  server.set_auto_drain(false);  // a round drains only when the test says
  Client client("127.0.0.1", server.port());
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 3; ++i) {
    const auto open = polled(server, [&] {
      return client.open(open_request_for(served.dataset, "zipnet"));
    });
    ASSERT_EQ(open.status, Status::kOk);
    ids.push_back(open.session);
  }
  const std::int64_t a = ids[0], b = ids[1], c = ids[2];
  Tensor poisoned = served.dataset.frame(3);
  poisoned.flat(17) = std::numeric_limits<float>::quiet_NaN();

  // One round per interval for a and b; c's only push, the poisoned one,
  // arrives in round 3 alongside theirs.
  const int kFrames = 5;
  std::vector<Tensor> wire_a, wire_b;
  std::int64_t sent = 0;
  for (int t = 0; t < kFrames; ++t) {
    client.send_push(a, served.dataset.frame(t));
    client.send_push(b, served.dataset.frame(t + 10));
    sent += 2;
    if (t == 3) {
      client.send_push(c, poisoned);
      ++sent;
    }
    for (int k = 0; k < 400 && server.front_door_stats().pushes < sent; ++k) {
      server.poll_once(5);
    }
    ASSERT_EQ(server.front_door_stats().pushes, sent);
    server.drain();
    for (int i = 0; i < (t == 3 ? 3 : 2); ++i) {
      const auto resp = polled(server, [&] { return client.poll_push(2000); });
      ASSERT_TRUE(resp.has_value());
      if (resp->session == c) {
        EXPECT_EQ(resp->status, Status::kError);
        EXPECT_NE(resp->error.find("finite"), std::string::npos);
      } else if (resp->status == Status::kOk) {
        (resp->session == a ? wire_a : wire_b).push_back(resp->frame);
      } else {
        EXPECT_EQ(resp->status, Status::kWarmup);
      }
    }
  }
  const auto fd = server.front_door_stats();
  EXPECT_EQ(fd.errors, 1);
  EXPECT_EQ(fd.served, 2 * (kFrames - 2));
  EXPECT_EQ(served.engine.session(c).frames_until_ready(), 3);

  // Control: the same two-session rounds in process, over the same model.
  serving::Engine control;
  control.register_model(
      "zipnet",
      std::make_shared<serving::ZipNetModel>(served.pipeline.generator()));
  const serving::SessionConfig cfg = serving::SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, served.dataset, 8, 4);
  const auto ca = control.open_session(cfg);
  const auto cb = control.open_session(cfg);
  ASSERT_EQ(wire_a.size(), static_cast<std::size_t>(kFrames - 2));
  ASSERT_EQ(wire_b.size(), wire_a.size());
  for (int t = 0; t < kFrames; ++t) {
    const auto out = control.push_all(
        {ca, cb}, {served.dataset.frame(t), served.dataset.frame(t + 10)});
    if (!out[0].has_value()) continue;
    const auto i = static_cast<std::size_t>(t - 2);
    expect_bitwise(wire_a[i], *out[0], "co-drained session a");
    expect_bitwise(wire_b[i], *out[1], "co-drained session b");
  }
}

TEST(Server, FailedPassAnswersEveryCoDrainedPushWithError) {
  PoolGuard guard;
  ServedEngine served;
  auto flaky = std::make_shared<serving::ThrowingModel>(
      std::make_shared<serving::ZipNetModel>(served.pipeline.generator()));
  served.engine.register_model("flaky", flaky);
  Server server(served.engine, ServerConfig{});
  server.set_auto_drain(false);  // a round drains only when the test says
  Client client("127.0.0.1", server.port());
  constexpr int kSessions = 3;
  std::vector<std::int64_t> ids;
  for (int i = 0; i < kSessions; ++i) {
    const auto open = polled(server, [&] {
      return client.open(open_request_for(served.dataset, "flaky"));
    });
    ASSERT_EQ(open.status, Status::kOk);
    ids.push_back(open.session);
  }

  // One round per interval, every session in it; round 3's pass throws.
  constexpr int kRounds = 5;
  constexpr int kFailing = 3;
  std::int64_t sent = 0;
  for (int t = 0; t < kRounds; ++t) {
    if (t == kFailing) flaky->fail_after(0);
    for (int i = 0; i < kSessions; ++i) {
      client.send_push(ids[static_cast<std::size_t>(i)],
                       served.dataset.frame(t + i));
    }
    sent += kSessions;
    for (int k = 0; k < 400 && server.front_door_stats().pushes < sent; ++k) {
      server.poll_once(5);
    }
    ASSERT_EQ(server.front_door_stats().pushes, sent);
    server.drain();
    for (int i = 0; i < kSessions; ++i) {
      const auto resp = polled(server, [&] { return client.poll_push(2000); });
      ASSERT_TRUE(resp.has_value());
      if (t == kFailing) {
        EXPECT_EQ(resp->status, Status::kError);
        EXPECT_NE(resp->error.find(serving::ThrowingModel::kMessage),
                  std::string::npos)
            << resp->error;
      } else if (t >= 2) {
        EXPECT_EQ(resp->status, Status::kOk) << resp->error;
      } else {
        EXPECT_EQ(resp->status, Status::kWarmup);
      }
    }
  }
  const auto fd = server.front_door_stats();
  EXPECT_EQ(fd.errors, kSessions);
  EXPECT_EQ(fd.served, kSessions * (kRounds - 3));
}

TEST(Server, GarbageFramesCutTheConnection) {
  PoolGuard guard;
  ServedEngine served;
  Server server(served.engine, ServerConfig{});
  std::thread loop([&] { server.run(); });
  {
    Client good("127.0.0.1", server.port());
    const auto open =
        good.open(open_request_for(served.dataset, "zipnet"));
    ASSERT_EQ(open.status, Status::kOk);

    // A raw socket sends a frame with an unknown verb byte: the server
    // counts a protocol error and cuts that connection (EOF client-side),
    // leaving every other connection untouched.
    const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(raw, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    auto wire = encode_close(CloseRequest{1});
    wire[4] = 0x63;  // clobber the verb byte
    ASSERT_EQ(::send(raw, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    char sink[16];
    EXPECT_EQ(::recv(raw, sink, sizeof(sink), 0), 0);  // orderly EOF
    ::close(raw);

    for (int k = 0;
         k < 400 && server.front_door_stats().protocol_errors == 0; ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(server.front_door_stats().protocol_errors, 1);

    // The good connection is unaffected.
    const auto resp = good.push(open.session, served.dataset.frame(0));
    EXPECT_EQ(resp.status, Status::kWarmup);
  }
  server.stop();
  loop.join();
}

}  // namespace
}  // namespace mtsr::net
