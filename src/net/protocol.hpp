// net::protocol — the front door's length-prefixed binary wire format.
//
// The engine serves full-grid traffic frames (a 100x100 city is 40 KB of
// float32 per request and per response), so the wire format is binary and
// zero-ceremony: every message is one frame
//
//   [u32 length][u8 verb][payload ...]
//
// where `length` counts the verb byte plus the payload, little-endian (the
// repo targets x86 gateways; the byte order is part of the protocol, not
// host-dependent). Requests and responses share the framing; a response
// echoes its request's verb and leads its payload with a status byte. Four
// verbs cover the session lifecycle — OPEN binds a stream (model name,
// geometry, normalisation, optional dedup tag), PUSH feeds one snapshot and
// returns the stitched inference (or warm-up / backpressure-reject), CLOSE
// releases the session, STATS returns the engine telemetry.
//
// Robustness contract: a frame longer than `max_frame_bytes` or a payload
// that does not parse throws ProtocolError — the server answers with an
// error frame where it still can and cuts the connection, because framing
// that has lied once cannot be resynchronised. A truncated buffer is NOT an
// error: try_extract_frame returns nullopt until the bytes arrive.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace mtsr::net {

/// Malformed wire data (bad length, unknown verb, short payload).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Verb : std::uint8_t {
  kOpen = 1,
  kPush = 2,
  kClose = 3,
  kStats = 4,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kWarmup = 1,    ///< session not warm yet; frames_until_ready attached
  kRejected = 2,  ///< admission queue full; retry_after_ms attached
  kError = 3,     ///< message attached; the session/connection state is told
};

/// Default cap on one frame's length field. Generous against real traffic
/// (a 1000x1000-cell city frame is 4 MB) while keeping a corrupt length
/// from allocating the connection into the ground.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 64u << 20;

/// One extracted frame: the verb plus its raw payload (status byte
/// included for responses).
struct Frame {
  Verb verb = Verb::kOpen;
  std::vector<std::uint8_t> payload;
};

/// Extracts the first complete frame from `buffer`, advancing `*consumed`
/// past it. Returns nullopt when the buffer holds only a partial frame.
/// Throws ProtocolError when the length field exceeds `max_frame_bytes` or
/// the verb is unknown.
[[nodiscard]] std::optional<Frame> try_extract_frame(
    const std::uint8_t* buffer, std::size_t size, std::size_t* consumed,
    std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

// ---- Requests --------------------------------------------------------------

/// OPEN payload: everything a serving session needs, minus what only the
/// server knows (the probe layout is derived server-side from instance and
/// window; the block stays server policy).
struct OpenRequest {
  std::string model;
  std::string stream;  ///< dedup fan-out tag; empty = independent
  std::uint8_t instance = 0;  ///< data::MtsrInstance as its wire ordinal
  bool log_transform = true;
  std::int64_t rows = 0, cols = 0, window = 0, stitch_stride = 0;
  double mean = 0, stddev = 1;
};

/// PUSH payload: the raw fine snapshot for one interval of one session.
struct PushRequest {
  std::int64_t session = 0;
  Tensor frame;  ///< (rows, cols), raw MB
};

struct CloseRequest {
  std::int64_t session = 0;
};

/// A decoded request (tagged by verb; only the matching member is set).
struct Request {
  Verb verb = Verb::kOpen;
  OpenRequest open;
  PushRequest push;
  CloseRequest close;
};

[[nodiscard]] std::vector<std::uint8_t> encode_open(const OpenRequest& req);
[[nodiscard]] std::vector<std::uint8_t> encode_push(const PushRequest& req);
[[nodiscard]] std::vector<std::uint8_t> encode_close(const CloseRequest& req);
[[nodiscard]] std::vector<std::uint8_t> encode_stats_request();

/// Decodes one request frame's payload. Throws ProtocolError on any
/// structural problem (short payload, trailing garbage, absurd dims).
[[nodiscard]] Request decode_request(const Frame& frame);

// ---- Responses -------------------------------------------------------------

struct OpenResponse {
  Status status = Status::kOk;
  std::int64_t session = 0;
  std::int64_t temporal_length = 0;
  std::int64_t frames_until_ready = 0;
  std::string error;
};

struct PushResponse {
  Status status = Status::kOk;
  std::int64_t session = 0;  ///< echoed: responses of co-served sessions
                             ///< on one connection arrive round-ordered
  Tensor frame;              ///< kOk only: the stitched fine inference
  std::int64_t frames_until_ready = 0;  ///< kWarmup only
  double retry_after_ms = 0;            ///< kRejected only
  std::string error;                    ///< kError only
};

struct CloseResponse {
  Status status = Status::kOk;
  std::int64_t session = 0;
  std::string error;
};

/// STATS response: the headline counters in binary (so load harnesses can
/// diff them without scraping) plus the rendered telemetry table.
struct StatsResponse {
  Status status = Status::kOk;
  std::int64_t requests = 0, served = 0, rejected = 0;
  std::int64_t slo_violations = 0, max_queue_depth = 0;
  double p50_ms = 0, p99_ms = 0, p999_ms = 0;
  // Continuous-learning counters; all zero (staleness -1, nrmse -1) when no
  // online trainer is attached to the serving engine.
  std::int64_t online_steps = 0, online_promoted = 0, online_rejected = 0;
  double online_staleness_s = -1, online_holdout_nrmse = -1;
  std::string table;
  std::string error;
};

/// A decoded response (tagged by verb; only the matching member is set).
struct Response {
  Verb verb = Verb::kOpen;
  OpenResponse open;
  PushResponse push;
  CloseResponse close;
  StatsResponse stats;
};

[[nodiscard]] std::vector<std::uint8_t> encode_response(
    const OpenResponse& resp);
[[nodiscard]] std::vector<std::uint8_t> encode_response(
    const PushResponse& resp);
[[nodiscard]] std::vector<std::uint8_t> encode_response(
    const CloseResponse& resp);
[[nodiscard]] std::vector<std::uint8_t> encode_response(
    const StatsResponse& resp);

/// Decodes one response frame's payload. Throws ProtocolError on any
/// structural problem.
[[nodiscard]] Response decode_response(const Frame& frame);

}  // namespace mtsr::net
