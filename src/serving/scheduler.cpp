#include "src/serving/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <utility>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"

namespace mtsr::serving {

// One warm session advancing through its stitch plan this serve() call.
struct Scheduler::Active {
  std::size_t index = 0;  ///< position in the serve() arguments
  Session* session = nullptr;
  int shard = 0;  ///< pool shard serving it (Session::shard_)
  std::int64_t blocks = 0;
  std::uint64_t signature = 0;  ///< history signature at admission
  Tensor acc, weight;           ///< moving-average stitch accumulators
};

// One stitch block enqueued in the current dispatch round.
struct Scheduler::Request {
  Active* act = nullptr;
  std::int64_t b0 = 0, b1 = 0;
  ModelSlot::Ref model;  ///< resolved at the block boundary (hot-reload)
  std::string key;       ///< dedup key; empty = dedup off for this session
  const Tensor* memo = nullptr;  ///< pre-existing memo entry serving this
  std::int64_t pass = -1;        ///< index of the pass that computed it
  std::int64_t row = 0;          ///< first row of this block in its pass
};

std::string Scheduler::block_key(const Session& session, std::uint64_t
                                 generation, std::uint64_t signature,
                                 std::int64_t b0, std::int64_t b1) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "#%p g%llu h%016llx b%lld-%lld",
                static_cast<const void*>(session.slot_.get()),
                static_cast<unsigned long long>(generation),
                static_cast<unsigned long long>(signature),
                static_cast<long long>(b0), static_cast<long long>(b1));
  return session.dedup_prefix_ + buf;
}

Scheduler::~Scheduler() = default;

Scheduler::Shard& Scheduler::shard(int s) {
  if (s >= static_cast<int>(shards_.size())) {
    shards_.resize(static_cast<std::size_t>(s) + 1);
  }
  std::unique_ptr<Shard>& slot = shards_[static_cast<std::size_t>(s)];
  if (!slot) slot = std::make_unique<Shard>();
  return *slot;
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats out;
  for (const std::unique_ptr<Shard>& sh : shards_) {
    if (!sh) continue;
    const SchedulerStats& s = sh->stats;
    out.rounds += s.rounds;
    out.passes += s.passes;
    out.fused_passes += s.fused_passes;
    out.windows += s.windows;
    out.max_queue_depth = std::max(out.max_queue_depth, s.max_queue_depth);
    if (out.fused_histogram.size() < s.fused_histogram.size()) {
      out.fused_histogram.resize(s.fused_histogram.size(), 0);
    }
    for (std::size_t b = 0; b < s.fused_histogram.size(); ++b) {
      out.fused_histogram[b] += s.fused_histogram[b];
    }
    out.dedup_lookups += s.dedup_lookups;
    out.dedup_hits += s.dedup_hits;
    out.memo_entries += static_cast<std::int64_t>(sh->memo.size());
    const Workspace::Stats a = sh->ws.stats();
    out.arena.capacity_bytes += a.capacity_bytes;
    out.arena.live_bytes += a.live_bytes;
    out.arena.peak_bytes += a.peak_bytes;
    out.arena.alloc_count += a.alloc_count;
    out.arena.growth_events += a.growth_events;
  }
  return out;
}

std::vector<SchedulerShardStats> Scheduler::shard_stats() const {
  std::vector<SchedulerShardStats> out;
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]) continue;
    SchedulerShardStats entry;
    entry.shard = static_cast<int>(s);
    entry.workers = static_cast<int>(s) < num_shards()
                        ? shard_size(static_cast<int>(s))
                        : 0;
    entry.stats = shards_[s]->stats;
    entry.stats.memo_entries =
        static_cast<std::int64_t>(shards_[s]->memo.size());
    entry.stats.arena = shards_[s]->ws.stats();
    out.push_back(std::move(entry));
  }
  return out;
}

void Scheduler::evict_stale_memo(Shard& sh, const Session& session,
                                 std::uint64_t signature) {
  Shard::StreamMemo& sm = sh.streams[session.dedup_prefix_];
  if (sm.signature == signature) return;
  for (const std::string& key : sm.keys) sh.memo.erase(key);
  sm.keys.clear();
  sm.signature = signature;
}

void Scheduler::drop_stream_entries(Shard& sh, const std::string& prefix) {
  auto it = sh.streams.find(prefix);
  if (it == sh.streams.end()) return;
  for (const std::string& key : it->second.keys) sh.memo.erase(key);
  sh.streams.erase(it);
}

void Scheduler::retain_stream(const std::string& prefix, int shard_index) {
  ++shard(shard_index).stream_refs[prefix];
}

void Scheduler::release_stream(const std::string& prefix, int shard_index) {
  Shard& sh = shard(shard_index);
  auto it = sh.stream_refs.find(prefix);
  if (it == sh.stream_refs.end()) return;
  if (--it->second > 0) return;
  sh.stream_refs.erase(it);
  drop_stream_entries(sh, prefix);
}

std::vector<std::optional<Tensor>> Scheduler::serve(
    std::span<Session* const> sessions, std::span<const Tensor* const> frames,
    const std::function<void()>& on_accepted) {
  check(sessions.size() == frames.size(),
        "Scheduler::serve: one frame per session");

  // ---- Validation: every frame, before anything is published or admitted --
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    check(sessions[i] != nullptr && frames[i] != nullptr,
          "Scheduler::serve: null session or frame");
    for (std::size_t j = 0; j < i; ++j) {
      check(sessions[i] != sessions[j],
            "Scheduler::serve: duplicate session in one call");
    }
    const std::string error = sessions[i]->frame_error(*frames[i]);
    check(error.empty(), "Session::push: " + error);
  }
  if (on_accepted) on_accepted();
  std::vector<std::optional<Tensor>> outputs(sessions.size());

  // ---- Admission (caller thread: pre-fan-out, serial) ----------------------
  std::vector<Active> acts;
  acts.reserve(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    Session& s = *sessions[i];
    s.admit(*frames[i]);
    if (!s.warm()) continue;
    Active a;
    a.index = i;
    a.session = &s;
    a.shard = s.shard_;
    a.blocks = s.plan_.block_count();
    a.acc = Tensor(Shape{s.config_.rows, s.config_.cols});
    a.weight = Tensor(Shape{s.config_.rows, s.config_.cols});
    if (!s.dedup_prefix_.empty()) {
      a.signature = s.history_signature();
      evict_stale_memo(shard(a.shard), s, a.signature);
    }
    acts.push_back(std::move(a));
  }
  if (acts.empty()) return outputs;

  // ---- Partition by shard and fan the dispatch loops out -------------------
  // acts was reserved above, so Active pointers are stable.
  std::vector<int> shard_ids;
  std::vector<std::vector<Active*>> by_shard;
  for (Active& a : acts) {
    std::size_t g = 0;
    while (g < shard_ids.size() && shard_ids[g] != a.shard) ++g;
    if (g == shard_ids.size()) {
      shard_ids.push_back(a.shard);
      by_shard.emplace_back();
    }
    by_shard[g].push_back(&a);
  }

  // Each shard's loop runs on its runner thread against its own state; the
  // caller's own shard (if it has work — on a single-shard engine, all of
  // it) runs inline in parallel with them.
  std::vector<std::future<void>> futures;
  std::exception_ptr inline_error;
  std::size_t inline_group = shard_ids.size();
  for (std::size_t g = 0; g < shard_ids.size(); ++g) {
    if (shard_ids[g] == current_shard()) {
      inline_group = g;
      continue;
    }
    Shard& sh = shard(shard_ids[g]);
    std::vector<Active*>* group = &by_shard[g];
    futures.push_back(run_on_shard(shard_ids[g], [this, &sh, group, &outputs] {
      serve_shard(sh, *group, outputs);
    }));
  }
  if (inline_group < shard_ids.size()) {
    try {
      serve_shard(shard(shard_ids[inline_group]), by_shard[inline_group],
                  outputs);
    } catch (...) {
      inline_error = std::current_exception();
    }
  }
  // Join every shard before rethrowing anything: no loop may still touch
  // acts/outputs when this frame unwinds.
  std::exception_ptr first_error = inline_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  // Counted only once every shard served: a call that throws moves no
  // session's inference count.
  for (Active& a : acts) a.session->note_inference();
  return outputs;
}

void Scheduler::serve_shard(Shard& sh, std::span<Active* const> acts,
                            std::vector<std::optional<Tensor>>& outputs) {
  std::int64_t total_rounds = 0;
  for (const Active* a : acts) {
    total_rounds = std::max(total_rounds, a->blocks);
  }

  for (std::int64_t r = 0; r < total_rounds; ++r) {
    std::vector<Request> reqs;
    reqs.reserve(acts.size());
    for (Active* ap : acts) {
      Active& a = *ap;
      if (r >= a.blocks) continue;
      const Session& s = *a.session;
      Request q;
      q.act = &a;
      q.b0 = r * s.plan_.block;
      q.b1 = std::min(s.plan_.window_count(), q.b0 + s.plan_.block);
      q.model = s.resolve_model();  // the block-boundary resolution
      if (!s.dedup_prefix_.empty()) {
        q.key = block_key(s, q.model.generation, a.signature, q.b0, q.b1);
      }
      reqs.push_back(std::move(q));
    }
    ++sh.stats.rounds;
    sh.stats.max_queue_depth = std::max(
        sh.stats.max_queue_depth, static_cast<std::int64_t>(reqs.size()));

    // -- Dedup: consult the memo, share duplicates within the round. --------
    std::unordered_map<std::string, std::size_t> first_seen;
    std::vector<std::size_t> compute;
    compute.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      Request& q = reqs[i];
      if (q.key.empty()) {
        compute.push_back(i);
        continue;
      }
      ++sh.stats.dedup_lookups;
      if (auto hit = sh.memo.find(q.key); hit != sh.memo.end()) {
        q.memo = &hit->second;  // references stay stable across inserts
        ++sh.stats.dedup_hits;
        continue;
      }
      if (first_seen.emplace(q.key, i).second) {
        compute.push_back(i);  // first consumer of this epoch computes
      } else {
        ++sh.stats.dedup_hits;  // sibling in this round computes; share below
      }
    }

    // -- Fuse: group compatible blocks, split by the window cap. ------------
    // Compatibility = same resolved model instance, same temporal/window
    // geometry and the same normalisation currency — everything a shared
    // predict() call fixes for all of its rows. The layout only matters to
    // models that re-derive aggregates from fine crops (fine_latest), so
    // only those keys pin the layout identity.
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::string, std::size_t> group_index;
    for (const std::size_t i : compute) {
      const Request& q = reqs[i];
      const Session& s = *q.act->session;
      char buf[192];
      std::snprintf(buf, sizeof(buf), "%p|%lld|%lld|%lld|%d|%c%c|%a,%a,%c|%p",
                    static_cast<const void*>(q.model.model.get()),
                    static_cast<long long>(s.s_),
                    static_cast<long long>(s.layout_->input_side()),
                    static_cast<long long>(s.config_.window),
                    static_cast<int>(s.config_.instance),
                    s.needs_.coarse_history ? 'c' : '-',
                    s.needs_.fine_latest ? 'f' : '-',
                    static_cast<double>(s.config_.stats.mean),
                    static_cast<double>(s.config_.stats.stddev),
                    s.config_.log_transform ? 'L' : '-',
                    s.needs_.fine_latest
                        ? static_cast<const void*>(s.layout_)
                        : nullptr);
      const auto [it, inserted] = group_index.emplace(buf, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(i);
    }

    struct PassPlan {
      std::vector<std::size_t> members;
      std::int64_t windows = 0;
    };
    std::vector<PassPlan> passes;
    for (const std::vector<std::size_t>& group : groups) {
      PassPlan current;
      for (const std::size_t i : group) {
        const std::int64_t n = reqs[i].b1 - reqs[i].b0;
        if (!current.members.empty() &&
            current.windows + n > SchedulerConfig::fuse_cap) {
          passes.push_back(std::move(current));
          current = PassPlan{};
        }
        reqs[i].row = current.windows;
        current.members.push_back(i);
        current.windows += n;
      }
      if (!current.members.empty()) passes.push_back(std::move(current));
    }

    // -- Execute: gather each member into its rows, run in the shard arena. -
    std::vector<Tensor> pass_preds(passes.size());
    for (std::size_t p = 0; p < passes.size(); ++p) {
      const PassPlan& pass = passes[p];
      const Request& lead = reqs[pass.members.front()];
      const Session& ls = *lead.act->session;
      ls.shape_batch(sh.batch, pass.windows);
      for (const std::size_t i : pass.members) {
        Request& q = reqs[i];
        q.act->session->gather_block(q.b0, q.b1, sh.batch, q.row);
        q.pass = static_cast<std::int64_t>(p);
      }
      Tensor preds;
      {
        Workspace::Bind bind(sh.ws);
        Workspace::Scope scope(Workspace::tls());
        std::lock_guard<std::mutex> serialize(lead.model.model->predict_mutex());
        preds = lead.model.model->predict(sh.batch, ls.stream_);
      }
      check(preds.rank() == 3 && preds.dim(0) == pass.windows,
            "Scheduler: model returned wrong prediction shape");
      ++sh.stats.passes;
      if (pass.members.size() > 1) ++sh.stats.fused_passes;
      sh.stats.windows += pass.windows;
      if (static_cast<std::int64_t>(sh.stats.fused_histogram.size()) <=
          pass.windows) {
        sh.stats.fused_histogram.resize(
            static_cast<std::size_t>(pass.windows) + 1, 0);
      }
      ++sh.stats.fused_histogram[static_cast<std::size_t>(pass.windows)];

      // Memoise computed blocks of stream-tagged sessions (row copies, so
      // fan-out consumers scatter the same bytes).
      for (const std::size_t i : pass.members) {
        const Request& q = reqs[i];
        if (q.key.empty()) continue;
        const std::int64_t n = q.b1 - q.b0;
        const std::int64_t w = q.act->session->config_.window;
        Tensor rows(Shape{n, w, w});
        std::memcpy(rows.data(), preds.data() + q.row * w * w,
                    sizeof(float) * static_cast<std::size_t>(n * w * w));
        sh.memo[q.key] = std::move(rows);
        sh.streams[q.act->session->dedup_prefix_].keys.push_back(q.key);
      }
      pass_preds[p] = std::move(preds);
    }

    // -- Scatter: accumulate every request into its session's stitch. -------
    for (const Request& q : reqs) {
      Active& a = *q.act;
      const bool computed = q.pass >= 0;
      // Memo-served: a hit recorded at lookup time, or a within-round
      // sibling's entry stored above.
      const Tensor& rows =
          computed ? pass_preds[static_cast<std::size_t>(q.pass)]
                   : (q.memo != nullptr ? *q.memo : sh.memo.at(q.key));
      data::stitch_accumulate(a.session->plan_, rows, computed ? q.row : 0,
                              q.b1 - q.b0, q.b0, a.acc, a.weight);
      if (r + 1 == a.blocks) {
        data::stitch_finalize(a.acc, a.weight);
        outputs[a.index] = a.session->denormalize(a.acc);
      }
    }
  }
}

}  // namespace mtsr::serving
