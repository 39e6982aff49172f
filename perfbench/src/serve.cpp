// serve_float and serve_int8_fanout: wire sessions against net::Server.
//
// Load comes from this process over ONE loopback connection, with one
// writer thread and one reader thread. Sessions form groups: a group is one
// untagged session (serve_float) or the consumers of one stream tag
// (serve_int8_fanout), and every send delivers the group's next feed
// interval to all of its sessions. After set-up, the timed part alternates
// two kinds of phase:
//  * capacity: closed loop, one interval outstanding per group; frames per
//    second are taken per phase and reported as the median;
//  * latency: open loop, homogeneous Poisson arrivals at a fixed absolute
//    rate, each push timed from its due time.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "fixture.hpp"
#include "src/common/rng.hpp"
#include "src/metrics/metrics.hpp"
#include "src/net/client.hpp"
#include "src/net/server.hpp"
#include "src/serving/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace net = mtsr::net;
namespace serving = mtsr::serving;

constexpr int kWarmRounds = 3;  ///< inference rounds before anything is timed
constexpr std::int64_t kMinOpenPushes = 1000;  ///< p99 with >= 10 beyond it
constexpr double kOpenShare = 0.6;  ///< open-loop share of --seconds
constexpr double kCapacityShare = 0.2;  ///< closed-loop share of --seconds
constexpr int kCycles = 8;  ///< calm capacity chunk + open segment pairs
constexpr double kKeptPerPhase = 2;  ///< wire frames re-served in process
constexpr double kFloatTolerance = 1e-4;  ///< max-abs error over max-abs ref

std::uint64_t fnv1a(const mtsr::Tensor& t) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.size()) * 4; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

struct Request {
  int session = 0;  ///< index into the load's session list
  std::int64_t interval = 0;
  std::int64_t due_ns = 0, sent_ns = 0, recv_ns = -1;
  net::Status status = net::Status::kOk;
  bool keep = false;  ///< keep the served frame for the reference check
  double nrmse = -1;
  std::uint64_t hash = 0;
  [[nodiscard]] bool ok() const {
    return recv_ns >= 0 && status == net::Status::kOk;
  }
};

struct PhaseLog {
  std::vector<Request> requests;
  std::map<std::size_t, mtsr::Tensor> kept;
  std::int64_t start_ns = 0;
  std::int64_t last_recv_ns = 0;
  std::vector<std::string> errors;

  /// Responses per second from the phase start to its last response.
  [[nodiscard]] double rate() const {
    if (last_recv_ns <= start_ns) return 0;
    return static_cast<double>(requests.size()) /
           ((last_recv_ns - start_ns) * 1e-9);
  }
};

/// The load generator over one client connection.
class WireLoad {
 public:
  WireLoad(net::Client& client, std::vector<std::int64_t> ids, int consumers,
           const mtsr::data::TrafficDataset& city,
           std::vector<std::int64_t> offsets, SpanLog& log)
      : client_(client),
        ids_(std::move(ids)),
        consumers_(consumers),
        groups_(static_cast<int>(ids_.size()) / consumers),
        city_(city),
        range_(serve_range(city)),
        offsets_(std::move(offsets)),
        next_interval_(static_cast<std::size_t>(groups_), 0),
        log_(log) {
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      index_[ids_[s]] = static_cast<int>(s);
    }
  }

  [[nodiscard]] int sessions() const { return static_cast<int>(ids_.size()); }
  [[nodiscard]] int group_of(int session) const {
    return session / consumers_;
  }
  /// Position in the replayed span of a group's interval.
  [[nodiscard]] std::int64_t span_index(int group,
                                        std::int64_t interval) const {
    return (offsets_[static_cast<std::size_t>(group)] + interval) %
           range_.size();
  }
  [[nodiscard]] const mtsr::Tensor& frame(int group,
                                          std::int64_t interval) const {
    return city_.frame(range_.begin + span_index(group, interval));
  }

  /// Closed loop: each group keeps one interval outstanding until every
  /// group has sent `intervals`. With `solo`, groups take turns instead, so
  /// every round serves one group alone.
  PhaseLog closed(std::int64_t intervals, bool solo, std::uint64_t keep_seed) {
    PhaseLog phase;
    const std::int64_t total = intervals * sessions();
    std::vector<std::int64_t> sent(static_cast<std::size_t>(groups_), 0);
    const auto next_ready = [&] {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !ready_.empty() || reader_done_; });
      if (ready_.empty()) return -1;  // the reader gave up
      const int g = ready_.front();
      ready_.pop_front();
      return g;
    };
    if (!solo) {
      std::lock_guard<std::mutex> lock(mu_);
      for (int g = 0; g < groups_; ++g) ready_.push_back(g);
    }
    run_phase(phase, total, 60.0, keep_seed, true,
              [&](const std::function<void(int, std::int64_t)>& send) {
                if (solo) {
                  for (int g = 0; g < groups_; ++g) {
                    for (std::int64_t n = 0; n < intervals; ++n) {
                      send(g, now_ns());
                      if (next_ready() < 0) return;
                    }
                  }
                  return;
                }
                int done = 0;
                while (done < groups_) {
                  const int g = next_ready();
                  if (g < 0) return;
                  auto& n = sent[static_cast<std::size_t>(g)];
                  if (n == intervals) continue;
                  send(g, now_ns());
                  if (++n == intervals) ++done;
                }
              });
    return phase;
  }

  /// Open loop: arrival i delivers the next interval of group
  /// (first + i) % groups at offset at[i] (seconds) from the phase start.
  PhaseLog open(const std::vector<double>& at, std::size_t first,
                std::uint64_t keep_seed) {
    PhaseLog phase;
    const auto total =
        static_cast<std::int64_t>(at.size()) * consumers_;
    const double span_s = at.empty() ? 0 : at.back();
    run_phase(phase, total, span_s + 30.0, keep_seed, false,
              [&](const std::function<void(int, std::int64_t)>& send) {
                const Clock::time_point start = Clock::now();
                for (std::size_t i = 0; i < at.size(); ++i) {
                  const auto due =
                      start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(at[i]));
                  std::this_thread::sleep_until(due);
                  send(static_cast<int>((first + i) %
                                        static_cast<std::size_t>(groups_)),
                       to_ns(due));
                }
              });
    return phase;
  }

 private:
  using Writer =
      std::function<void(const std::function<void(int, std::int64_t)>&)>;

  void run_phase(PhaseLog& phase, std::int64_t total, double timeout_s,
                 std::uint64_t keep_seed, bool closed, const Writer& writer) {
    phase.requests.resize(static_cast<std::size_t>(total));
    pending_.assign(ids_.size(), {});
    answered_.assign(static_cast<std::size_t>(groups_), 0);
    reader_done_ = false;
    writer_done_.store(false);
    issued_.store(0);
    phase.start_ns = now_ns();
    const std::int64_t deadline =
        phase.start_ns + static_cast<std::int64_t>(timeout_s * 1e9);

    std::thread writer_thread([&] {
      mtsr::Rng keep_rng(keep_seed);
      const double p_keep =
          std::min(1.0, kKeptPerPhase / static_cast<double>(total));
      std::size_t next = 0;
      const auto send = [&](int g, std::int64_t due_ns) {
        const std::int64_t j = next_interval_[static_cast<std::size_t>(g)]++;
        for (int c = 0; c < consumers_; ++c) {
          if (next >= phase.requests.size()) return;
          const int s = g * consumers_ + c;
          Request& r = phase.requests[next];
          r.session = s;
          r.interval = j;
          r.due_ns = due_ns;
          r.keep = keep_seed != 0 && keep_rng.bernoulli(p_keep);
          r.sent_ns = now_ns();
          {
            std::lock_guard<std::mutex> lock(mu_);
            pending_[static_cast<std::size_t>(s)].push_back(next);
          }
          ++next;
          issued_.store(static_cast<std::int64_t>(next));
          client_.send_push(ids_[static_cast<std::size_t>(s)], frame(g, j));
        }
      };
      try {
        writer(send);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu_);
        phase.errors.push_back(std::string("writer: ") + e.what());
      }
      writer_done_.store(true);
    });

    std::thread reader_thread([&] {
      try {
        read_responses(phase, deadline, closed);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu_);
        phase.errors.push_back(std::string("reader: ") + e.what());
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        reader_done_ = true;
      }
      cv_.notify_all();
    });
    writer_thread.join();
    reader_thread.join();
    std::lock_guard<std::mutex> lock(mu_);
    ready_.clear();
  }

  void read_responses(PhaseLog& phase, std::int64_t deadline, bool closed) {
    std::int64_t received = 0;
    for (;;) {
      if (writer_done_.load() && received >= issued_.load()) return;
      const auto resp = client_.poll_push(20);
      if (!resp) {
        if (now_ns() > deadline) return;
        continue;
      }
      const std::int64_t t = now_ns();
      const auto it = index_.find(resp->session);
      std::size_t idx = 0;
      bool found = false;
      if (it != index_.end()) {
        std::lock_guard<std::mutex> lock(mu_);
        auto& q = pending_[static_cast<std::size_t>(it->second)];
        if (!q.empty()) {
          idx = q.front();
          q.pop_front();
          found = true;
        }
      }
      if (!found) {
        std::lock_guard<std::mutex> lock(mu_);
        phase.errors.push_back("response for session " +
                               std::to_string(resp->session) +
                               " with no outstanding push");
        continue;
      }
      ++received;
      phase.last_recv_ns = t;
      Request& r = phase.requests[idx];
      r.recv_ns = t;
      r.status = resp->status;
      const int g = group_of(r.session);
      if (r.status == net::Status::kOk) {
        const mtsr::Tensor& truth = frame(g, r.interval);
        if (resp->frame.shape() != truth.shape() ||
            !resp->frame.all_finite()) {
          std::lock_guard<std::mutex> lock(mu_);
          phase.errors.push_back("served frame of session " +
                                 std::to_string(r.session) +
                                 " has the wrong shape or a non-finite cell");
        } else {
          r.nrmse = mtsr::metrics::nrmse(resp->frame, truth);
          if (consumers_ > 1) r.hash = fnv1a(resp->frame);
          if (r.keep) phase.kept.emplace(idx, resp->frame);
        }
      }
      log_.record({"push", r.due_ns, t, static_cast<std::int64_t>(idx),
                   r.sent_ns});
      if (!closed) continue;
      if (++answered_[static_cast<std::size_t>(g)] == consumers_) {
        answered_[static_cast<std::size_t>(g)] = 0;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ready_.push_back(g);
        }
        cv_.notify_one();
      }
    }
  }

  net::Client& client_;
  std::vector<std::int64_t> ids_;
  int consumers_;
  int groups_;
  const mtsr::data::TrafficDataset& city_;
  mtsr::data::SplitRange range_;
  std::vector<std::int64_t> offsets_;
  std::vector<std::int64_t> next_interval_;  ///< writer thread only
  std::unordered_map<std::int64_t, int> index_;  ///< engine id -> session
  SpanLog& log_;

  std::mutex mu_;  ///< guards pending_, ready_, reader_done_, phase.errors
  std::condition_variable cv_;
  std::vector<std::deque<std::size_t>> pending_;
  std::deque<int> ready_;
  bool reader_done_ = false;
  std::vector<int> answered_;  ///< reader thread only
  std::atomic<bool> writer_done_{false};
  std::atomic<std::int64_t> issued_{0};
};

/// One set-up: fixture, engine, server thread, client, open + warm sessions.
/// Members are declared in dependency order, so destruction tears the
/// stack down from the client inwards.
struct ServeStack {
  std::unique_ptr<Fixture> fixture;
  std::unique_ptr<serving::Engine> engine;
  std::unique_ptr<net::Server> server;
  std::string loop_error;
  std::thread loop;
  std::unique_ptr<net::Client> client;
  std::unique_ptr<WireLoad> load;
  double warm_s = 0;

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() { stop(); }

  /// Closes the connection and stops the server; `load` stays usable for
  /// its frame bookkeeping.
  void stop() {
    client.reset();
    if (server) server->stop();
    if (loop.joinable()) loop.join();
  }
};

std::unique_ptr<ServeStack> set_up(const Options& opt, SpanLog& log,
                                   const std::vector<std::int64_t>& offsets) {
  auto st = std::make_unique<ServeStack>();
  st->fixture = build_fixture(opt.model);
  const mtsr::data::TrafficDataset& city = *st->fixture->dataset;
  st->engine = std::make_unique<serving::Engine>();
  st->engine->register_model(
      opt.model, std::make_shared<TimedModel>(st->fixture->model, log));
  st->server = std::make_unique<net::Server>(*st->engine, net::ServerConfig{});
  st->loop = std::thread([s = st.get()] {
    try {
      s->server->run();
    } catch (const std::exception& e) {
      s->loop_error = e.what();
    }
  });

  const std::int64_t t0 = now_ns();
  st->client = std::make_unique<net::Client>("127.0.0.1", st->server->port());
  std::vector<std::int64_t> ids;
  for (int s = 0; s < opt.sessions; ++s) {
    net::OpenRequest req;
    req.model = opt.model;
    if (opt.consumers > 1) {
      req.stream = "feed-" + std::to_string(s / opt.consumers);
    }
    req.instance = static_cast<std::uint8_t>(mtsr::data::MtsrInstance::kUp4);
    req.log_transform = city.log_transform();
    req.rows = city.rows();
    req.cols = city.cols();
    req.window = kWindow;
    req.stitch_stride = kStride;
    req.mean = city.stats().mean;
    req.stddev = city.stats().stddev;
    const net::OpenResponse resp = st->client->open(req);
    if (resp.status != net::Status::kOk) {
      throw std::runtime_error("OPEN failed: " + resp.error);
    }
    ids.push_back(resp.session);
  }
  st->load = std::make_unique<WireLoad>(*st->client, ids, opt.consumers, city,
                                        offsets, log);
  // Warm every arena the timed phases use: fused rounds of all groups (the
  // shard arena) and a round of each group alone (its sessions' arenas).
  for (const bool solo : {false, true}) {
    const PhaseLog warm =
        st->load->closed(solo ? 1 : kTemporal - 1 + kWarmRounds, solo, 0);
    if (!warm.errors.empty()) {
      throw std::runtime_error("warm-up failed: " + warm.errors.front());
    }
  }
  st->warm_s = (now_ns() - t0) * 1e-9;
  return st;
}

}  // namespace

RunResult run_serve(const Options& opt, SpanLog& log) {
  if (opt.sessions < 1 || opt.consumers < 1 ||
      opt.sessions % opt.consumers != 0 || !(opt.rate > 0)) {
    throw std::invalid_argument(
        "serve workloads need sessions divisible by consumers and rate > 0");
  }
  RunResult result;
  const int groups = opt.sessions / opt.consumers;

  // Inputs from the seed: each group's time offset into the replayed span,
  // the arrival schedule, and which responses the reference re-serves.
  std::vector<std::int64_t> offsets;
  {
    const std::unique_ptr<mtsr::data::TrafficDataset> city = make_city();
    mtsr::Rng rng(opt.seed);
    for (int g = 0; g < groups; ++g) {
      offsets.push_back(rng.uniform_int(0, serve_range(*city).size() - 1));
    }
  }
  const double arrival_rate = opt.rate / opt.consumers;
  const std::int64_t arrivals = std::max<std::int64_t>(
      (kMinOpenPushes + opt.consumers - 1) / opt.consumers,
      std::llround(arrival_rate * opt.seconds * kOpenShare));
  const std::vector<double> schedule =
      poisson_schedule(arrival_rate, arrivals, opt.seed);
  // Capacity work is sized at twice the open-loop rate (which is half the
  // reference capacity).
  const std::int64_t chunk_intervals = std::max<std::int64_t>(
      1, std::llround(2 * opt.rate * opt.seconds * kCapacityShare /
                      (kCycles * opt.sessions)));

  // ---- Set-up, repeated; the last stack is measured -------------------------
  std::vector<double> setup_s, pretrain_s, quantize_s, warm_s, train_rate;
  std::unique_ptr<ServeStack> st;
  for (int rep = 0; rep < opt.setups; ++rep) {
    const std::int64_t t0 = rep == 0 ? 0 : now_ns();
    st.reset();
    st = set_up(opt, log, offsets);
    setup_s.push_back((now_ns() - t0) * 1e-9);
    pretrain_s.push_back(st->fixture->pretrain_s);
    quantize_s.push_back(st->fixture->quantize_s);
    warm_s.push_back(st->warm_s);
    train_rate.push_back(st->fixture->pretrain_samples_per_s);
  }
  serving::Engine& engine = *st->engine;
  WireLoad& load = *st->load;

  // ---- Timed phases ----------------------------------------------------------
  // kCycles calm cycles of (closed-loop capacity chunk, open-loop segment),
  // so both the capacity median and the latency percentiles sample the
  // whole run rather than one stretch of it. Each open segment replays its
  // slice of the Poisson schedule. A cycle during which the host's steal
  // share passed opt.steal_bound is disturbed: its pushes still pass the
  // correctness gate, but it is left out of every figure and the next cycle
  // replays its segment (see another_cycle). In a traced run, calm capacity
  // chunks alternate between traced and untraced, which gives the tracing
  // overhead.
  struct Cycle {
    PhaseLog cap, open;
    bool calm = false;
  };
  std::vector<Cycle> cycles;
  std::vector<double> steal;
  int calm = 0;
  EngineSnap cap_counters;
  double open_bytes = 0, open_pushes = 0;
  const EngineSnap s0 = snap(engine);
  for (int c = 0; another_cycle(c, calm, kCycles); ++c) {
    Cycle cycle;
    const CpuTimes cpu0 = read_cpu_times();
    log.set_enabled(opt.trace && calm % 2 == 0);
    const EngineSnap e0 = snap(engine);
    cycle.cap = load.closed(chunk_intervals, false, opt.seed * 64 + c);
    const EngineSnap cap_delta = snap(engine) - e0;

    const std::size_t begin = schedule.size() * calm / kCycles;
    const std::size_t end = schedule.size() * (calm + 1) / kCycles;
    const double t0 = begin == 0 ? 0 : schedule[begin - 1];
    std::vector<double> slice;
    for (std::size_t i = begin; i < end; ++i) slice.push_back(schedule[i] - t0);
    log.set_enabled(opt.trace);
    const serving::FrontDoorStats f0 = st->server->front_door_stats();
    cycle.open = load.open(slice, begin, opt.seed * 64 + 32 + c);
    const serving::FrontDoorStats f1 = st->server->front_door_stats();

    steal.push_back(steal_share(cpu0, read_cpu_times()));
    cycle.calm = steal.back() <= opt.steal_bound;
    if (cycle.calm) {
      ++calm;
      cap_counters = cap_counters + cap_delta;
      open_bytes += static_cast<double>((f1.bytes_in - f0.bytes_in) +
                                        (f1.bytes_out - f0.bytes_out));
      open_pushes += static_cast<double>(f1.pushes - f0.pushes);
    }
    cycles.push_back(std::move(cycle));
  }
  log.set_enabled(false);
  const EngineSnap s1 = snap(engine);
  const serving::FrontDoorStats fd = st->server->front_door_stats();
  st->stop();
  if (!st->loop_error.empty()) result.fail("server loop: " + st->loop_error);

  // ---- Counts and the correctness gate -------------------------------------
  // Every push of every cycle is checked; timings come from calm cycles
  // only. NRMSE does not depend on timing and covers every served frame,
  // averaged per replayed frame first, so every frame of the span weighs the
  // same whatever the seed's offsets and wrap-arounds.
  std::map<std::int64_t, std::pair<double, int>> nrmse_by_frame;
  std::vector<double> open_lat, lateness, segment_p50, wire_lat;
  std::map<std::pair<int, std::int64_t>, std::uint64_t> fanout;
  std::int64_t answered = 0;
  for (const Cycle& cycle : cycles) {
    for (const PhaseLog* phase : {&cycle.cap, &cycle.open}) {
      const bool timed_open = cycle.calm && phase == &cycle.open;
      const std::size_t segment_begin = open_lat.size();
      for (const Request& r : phase->requests) {
        ++result.attempted;
        if (r.recv_ns >= 0) ++answered;
        if (timed_open) lateness.push_back((r.sent_ns - r.due_ns) * 1e-6);
        if (!r.ok()) {
          ++result.failed;
          continue;
        }
        const int g = load.group_of(r.session);
        if (r.nrmse >= 0) {
          auto& [sum, n] = nrmse_by_frame[load.span_index(g, r.interval)];
          sum += r.nrmse;
          ++n;
        }
        if (timed_open) open_lat.push_back((r.recv_ns - r.due_ns) * 1e-6);
        if (cycle.calm) wire_lat.push_back((r.recv_ns - r.sent_ns) * 1e-6);
        if (opt.consumers > 1) {
          const auto [it, inserted] =
              fanout.emplace(std::make_pair(g, r.interval), r.hash);
          if (!inserted && it->second != r.hash) {
            result.fail("consumers of feed-" + std::to_string(g) +
                        " interval " + std::to_string(r.interval) +
                        " received different frames");
          }
        }
      }
      for (const std::string& e : phase->errors) result.fail(e);
      if (timed_open && open_lat.size() > segment_begin) {
        segment_p50.push_back(median(std::vector<double>(
            open_lat.begin() + static_cast<std::ptrdiff_t>(segment_begin),
            open_lat.end())));
      }
    }
  }
  std::vector<double> nrmse;
  for (const auto& [frame, acc] : nrmse_by_frame) {
    nrmse.push_back(acc.first / acc.second);
  }
  if (nrmse.empty()) result.fail("no frame was served");

  // Re-serve sampled wire responses in process, one fresh history each.
  {
    serving::Engine reference;
    reference.register_model(opt.model, st->fixture->model);
    const auto id = reference.open_session(serving::SessionConfig::from_dataset(
        opt.model, mtsr::data::MtsrInstance::kUp4, *st->fixture->dataset,
        kWindow, kStride));
    const bool bitwise = opt.consumers > 1 || opt.model == "zipnet-int8";
    std::int64_t checked = 0;
    for (const Cycle& cycle : cycles) {
      for (const PhaseLog* phase : {&cycle.cap, &cycle.open}) {
        for (const auto& [idx, served] : phase->kept) {
          const Request& r = phase->requests[idx];
          const int g = load.group_of(r.session);
          reference.session(id).reset();
          std::optional<mtsr::Tensor> want;
          for (std::int64_t j = r.interval - kTemporal + 1; j <= r.interval;
               ++j) {
            want = reference.push(id, load.frame(g, j));
          }
          if (!want || want->shape() != served.shape()) {
            result.fail("in-process reference produced no comparable frame");
            continue;
          }
          ++checked;
          const std::string where =
              " (session " + std::to_string(r.session) + ", interval " +
              std::to_string(r.interval) + ")";
          if (bitwise) {
            if (std::memcmp(want->data(), served.data(),
                            static_cast<std::size_t>(served.size()) * 4) !=
                0) {
              result.fail("wire frame differs bitwise from the in-process "
                          "reference" + where);
            }
            continue;
          }
          double err = 0, scale = 0;
          for (std::int64_t i = 0; i < served.size(); ++i) {
            err = std::max<double>(err,
                                   std::fabs(served.flat(i) - want->flat(i)));
            scale = std::max<double>(scale, std::fabs(want->flat(i)));
          }
          if (err > kFloatTolerance * scale) {
            result.fail("wire frame differs from the in-process reference "
                        "by more than 1e-4 relative" + where);
          }
        }
      }
    }
    if (checked == 0) result.fail("no wire frame was checked in process");
    std::printf("reference: %lld wire frames re-served in process\n",
                static_cast<long long>(checked));
  }

  // ---- Metrics ---------------------------------------------------------------
  const auto disturbed = static_cast<long long>(cycles.size()) - calm;
  std::printf("host: %lld of %zu cycles disturbed (steal share above %.3f), "
              "median steal share %.4f\n",
              disturbed, cycles.size(), opt.steal_bound, median(steal));
  if (calm < kCycles) {
    result.valid = false;
    return result;
  }
  std::vector<double> fps, fps_traced, fps_untraced;
  std::vector<const PhaseLog*> traced_caps;
  double traced_wall_s = 0;
  for (const Cycle& cycle : cycles) {
    if (!cycle.calm) continue;
    const double f = cycle.cap.rate();
    const bool traced = fps.size() % 2 == 0;
    fps.push_back(f);
    (traced ? fps_traced : fps_untraced).push_back(f);
    if (traced) {
      traced_caps.push_back(&cycle.cap);
      traced_wall_s += (cycle.cap.last_recv_ns - cycle.cap.start_ns) * 1e-9;
    }
  }
  double late_p99 = 0, push_p99 = 0;
  try {
    late_p99 = percentile(lateness, 0.99);
    if (late_p99 > opt.late_bound_ms) result.valid = false;
    push_p99 = percentile(open_lat, 0.99);
    if (!opt.trace) {
      result.set("setup_s", median(setup_s), "s");
      result.set("serve_fps", median(fps), "frames/s");
      result.set("push_p50_ms", median(segment_p50), "ms");
      result.set("nrmse", mean(nrmse), "ratio");
      result.set("train_samples_per_s", median(train_rate), "samples/s");
      result.set("peak_rss_mb", peak_rss_mib(), "MiB");
    }
  } catch (const std::invalid_argument& e) {
    result.fail(e.what());
    return result;
  }
  std::printf("loadgen: sent %lld, answered %lld, late p99 %.3f ms (bound "
              "%.3f ms)\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(answered), late_p99, opt.late_bound_ms);
  if (!opt.trace) return result;

  set_idle_layers(result, false, true);
  // The front door's histogram is cumulative over the whole run, so the
  // client side is taken over every timed push too, from its send time.
  result.set("net.server_p50_ms", fd.p50_ms, "ms");
  result.set("net.server_p99_ms", fd.p99_ms, "ms");
  result.set("net.wire_p50_ms", median(wire_lat) - fd.p50_ms, "ms");
  result.set("net.max_queue_depth", static_cast<double>(fd.max_queue_depth),
             "count");
  result.set("net.bytes_per_push", ratio(open_bytes, open_pushes), "bytes");

  double cap_pushes = 0;
  for (const Cycle& cycle : cycles) {
    if (cycle.calm) {
      cap_pushes += static_cast<double>(cycle.cap.requests.size());
    }
  }
  set_serving_metrics(result, cap_counters, cap_pushes);
  result.set("serving.arena_growth_events", s1.growth - s0.growth, "count");
  result.set("host.steal_share", median(steal), "ratio");
  result.set("host.disturbed_cycles", static_cast<double>(disturbed), "count");

  std::vector<Span> predicts;
  for (const Span& s : log.spans("predict")) {
    for (const PhaseLog* cap : traced_caps) {
      if (s.start_ns >= cap->start_ns && s.end_ns <= cap->last_recv_ns) {
        predicts.push_back(s);
      }
    }
  }
  set_core_metrics(result, predicts, traced_wall_s,
                   log.spans("load_checkpoint"));

  result.set("setup.pretrain_s", median(pretrain_s), "s");
  result.set("setup.quantize_s", median(quantize_s), "s");
  result.set("setup.warm_s", median(warm_s), "s");
  result.set("loadgen.late_p99_ms", late_p99, "ms");
  result.set("loadgen.push_p99_ms", push_p99, "ms");
  result.set("loadgen.sent", static_cast<double>(result.attempted), "count");
  result.set("loadgen.answered", static_cast<double>(answered), "count");
  result.set("trace.overhead_pct",
             (median(fps_untraced) / median(fps_traced) - 1) * 100, "%");
  log.set_enabled(true);
  set_probe_metrics(result, log);
  log.set_enabled(false);
  return result;
}

}  // namespace perfbench
