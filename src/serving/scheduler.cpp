#include "src/serving/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "src/common/check.hpp"

namespace mtsr::serving {

// One warm session advancing through its stitch plan this serve() call.
struct Scheduler::Active {
  std::size_t index = 0;  ///< position in the serve() arguments
  Session* session = nullptr;
  int shard = 0;  ///< pool shard serving it (Session::shard_)
  std::int64_t blocks = 0;
  std::uint64_t signature = 0;  ///< history signature at admission
  Tensor acc, weight;           ///< moving-average stitch accumulators
  // Staged per round (overlap mode): the dedup key predicted at staging
  // time and whether a gather was actually submitted — requests the memo
  // (or a staged sibling) will serve skip their gather entirely.
  std::string round_key;
  std::uint64_t round_gen = 0;
  bool round_staged = false;
};

// One stitch block enqueued in the current dispatch round.
struct Scheduler::Request {
  Active* act = nullptr;
  std::int64_t b0 = 0, b1 = 0;
  int slot = 0;
  ModelSlot::Ref model;  ///< resolved at the block boundary (hot-reload)
  std::string key;       ///< dedup key; empty = dedup off for this session
  bool gathered = false;         ///< slot batch valid for this block
  const Tensor* memo = nullptr;  ///< pre-existing memo entry serving this
  std::int64_t pass = -1;        ///< index of the pass that computed it
  std::int64_t row = 0;          ///< first row of this block in its pass
};

Scheduler::Scheduler(SchedulerConfig config) : config_(config) {}

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

  if (shard_ids.size() == 1 && shard_ids[0] == current_shard()) {
    // The caller already runs on the only shard involved (the common
    // single-shard engine): dispatch inline, exactly the pre-shard path.
    serve_shard(shard_ids[0], shard(shard_ids[0]), by_shard[0], outputs);
    return outputs;
  }

  // Each shard's loop runs on its runner thread against its own state; the
  // caller's own shard (if it has work) runs inline in parallel with them.
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
    const int shard_index = shard_ids[g];
    futures.push_back(run_on_shard(shard_index, [this, shard_index, &sh,
                                                 group, &outputs] {
      serve_shard(shard_index, sh, *group, outputs);
    }));
  }
  if (inline_group < shard_ids.size()) {
    try {
      serve_shard(shard_ids[inline_group], shard(shard_ids[inline_group]),
                  by_shard[inline_group], outputs);
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
  return outputs;
}

void Scheduler::serve_shard(int shard_index, Shard& sh,
                            std::span<Active* const> acts,
                            std::vector<std::optional<Tensor>>& outputs) {
  std::int64_t total_rounds = 0;
  for (const Active* a : acts) {
    total_rounds = std::max(total_rounds, a->blocks);
  }

  // ---- Overlap staging -----------------------------------------------------
  // kAuto engages the stage thread when THIS shard has more than one worker
  // slot — on a single-slot shard the overlap cannot buy wall-clock time.
  const int pool = shard_size(shard_index);
  bool overlap = false;
  for (const Active* a : acts) {
    const SessionConfig::Overlap mode = a->session->config_.overlap;
    if (mode == SessionConfig::Overlap::kOn ||
        (mode == SessionConfig::Overlap::kAuto && pool > 1)) {
      overlap = true;
      break;
    }
  }
  if (overlap && !sh.stage) {
    sh.stage = std::make_unique<StageExecutor>(shard_index);
  }
  StageExecutor* stage = sh.stage.get();

  // If a predict (or a check after it) throws while gathers or scatters are
  // in flight, those tasks still read session history/slots/accumulators on
  // the stage thread; drain them before unwinding so callers may safely
  // reset() or retry. The primary exception stays the one that propagates.
  struct DrainStage {
    StageExecutor* stage;
    ~DrainStage() {
      if (stage != nullptr) stage->drain();
    }
  } drain_guard{overlap ? stage : nullptr};

  auto block_range = [](const Active& a, std::int64_t r) {
    const std::int64_t b0 = r * a.session->plan_.block;
    const std::int64_t b1 =
        std::min(a.session->plan_.window_count(), b0 + a.session->plan_.block);
    return std::pair<std::int64_t, std::int64_t>(b0, b1);
  };

  std::vector<std::future<void>> pending;
  auto prepare_round = [&](std::int64_t r) {
    // Requests the memo will serve — an entry from an earlier serve, or a
    // sibling in this round that computes the shared block — never need
    // their batch, so their gather is skipped here. A hot-reload landing
    // between staging and dispatch can invalidate the prediction; the
    // dispatch loop then gathers inline (correctness never depends on the
    // staging decision).
    std::unordered_set<std::string> staged_keys;
    for (Active* ap : acts) {
      Active& a = *ap;
      a.round_staged = false;
      a.round_key.clear();
      a.round_gen = 0;
      if (r >= a.blocks) continue;
      const auto [b0, b1] = block_range(a, r);
      bool need_gather = true;
      if (!a.session->dedup_prefix_.empty()) {
        const ModelSlot::Ref ref = a.session->resolve_model();
        a.round_gen = ref.generation;
        a.round_key =
            block_key(*a.session, ref.generation, a.signature, b0, b1);
        if (sh.memo.count(a.round_key) > 0 ||
            !staged_keys.insert(a.round_key).second) {
          need_gather = false;
        }
      }
      if (!need_gather) continue;
      Session* s = a.session;
      const int slot = static_cast<int>(r & 1);
      // Deferred admit-time coarsenings materialise here, on the shard's
      // dispatch thread (the coarsening fans out on the shard's workers),
      // before the stage thread's memcpy-only gather reads them.
      s->ensure_history_coarsened();
      // The stage thread gathers into slot r&1 under that slot's arena, so
      // any scratch the gather path ever takes comes from the arena the
      // model is NOT currently executing in.
      pending.push_back(stage->submit([s, b0 = b0, b1 = b1, slot] {
        Workspace::Bind bind(s->slots_[slot].ws);
        s->gather_block(b0, b1, slot);
      }));
      a.round_staged = true;
    }
  };
  if (overlap) prepare_round(0);

  // The offloaded scatters of earlier rounds; all joined before returning.
  std::vector<std::future<void>> scatter_pending;

  // ---- Dispatch rounds -----------------------------------------------------
  for (std::int64_t r = 0; r < total_rounds; ++r) {
    if (overlap) {
      // Round r's staged gathers become ready.
      for (std::future<void>& f : pending) f.get();
      pending.clear();
    }

    std::vector<Request> reqs;
    reqs.reserve(acts.size());
    for (Active* ap : acts) {
      Active& a = *ap;
      if (r >= a.blocks) continue;
      const auto [b0, b1] = block_range(a, r);
      Request q;
      q.act = &a;
      q.b0 = b0;
      q.b1 = b1;
      q.slot = static_cast<int>(r & 1);
      q.model = a.session->resolve_model();  // the block-boundary resolution
      q.gathered = overlap && a.round_staged;
      if (!a.session->dedup_prefix_.empty()) {
        // Reuse the staged key unless a hot-reload moved the generation
        // since staging.
        q.key = (overlap && q.model.generation == a.round_gen)
                    ? a.round_key
                    : block_key(*a.session, q.model.generation, a.signature,
                                b0, b1);
      }
      reqs.push_back(std::move(q));
    }
    ++sh.stats.rounds;
    sh.stats.max_queue_depth = std::max(
        sh.stats.max_queue_depth, static_cast<std::int64_t>(reqs.size()));

    // Immediately stage round r+1 so its gathers run while this round is
    // inside the model's GEMMs (round r's staging state was consumed into
    // the requests above).
    if (overlap && r + 1 < total_rounds) prepare_round(r + 1);

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

    // -- Gather what will actually be predicted. ----------------------------
    // Covers the non-overlap path, staging mispredictions after a
    // concurrent reload, and nothing else: memo-served requests never pay
    // a gather.
    for (const std::size_t i : compute) {
      Request& q = reqs[i];
      if (q.gathered) continue;
      q.act->session->ensure_history_coarsened();
      q.act->session->gather_block(q.b0, q.b1, q.slot);
      q.gathered = true;
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
        if (!current.members.empty() && config_.fuse_cap > 0 &&
            current.windows + n > config_.fuse_cap) {
          passes.push_back(std::move(current));
          current = PassPlan{};
        }
        reqs[i].row = current.windows;
        current.members.push_back(i);
        current.windows += n;
      }
      if (!current.members.empty()) passes.push_back(std::move(current));
    }

    // -- Execute the round's passes. ----------------------------------------
    auto pass_preds = std::make_shared<std::vector<Tensor>>(passes.size());
    for (std::size_t p = 0; p < passes.size(); ++p) {
      const PassPlan& pass = passes[p];
      Request& lead = reqs[pass.members.front()];
      Session& ls = *lead.act->session;
      Tensor preds;
      if (pass.members.size() == 1) {
        // Exactly the pre-scheduler path: the session's own batch under
        // its own rotating arena — bit-identical to unscheduled serving.
        Workspace::Bind bind(ls.slots_[lead.slot].ws);
        Workspace::Scope scope(Workspace::tls());
        std::lock_guard<std::mutex> serialize(lead.model.model->predict_mutex());
        preds =
            lead.model.model->predict(ls.slots_[lead.slot].batch, ls.stream_);
      } else {
        // Concatenate the member blocks into one shared window batch; the
        // fused pass executes in the shard's arena so no session pays a
        // capacity high-water mark for a batch it did not choose, and the
        // concat buffers first-touch this shard's memory. The buffers
        // persist across passes (resize-on-shape-change, like
        // gather_block's), keeping steady-state fusion allocation free.
        const std::int64_t s_len = ls.s_;
        const std::int64_t ci = ls.layout_->input_side();
        const std::int64_t w = ls.config_.window;
        if (ls.needs_.coarse_history) {
          const Shape shape{pass.windows, s_len, ci, ci};
          if (sh.fused.coarse.shape() != shape) sh.fused.coarse = Tensor(shape);
          const std::int64_t stride = s_len * ci * ci;
          for (const std::size_t i : pass.members) {
            const Request& q = reqs[i];
            std::memcpy(
                sh.fused.coarse.data() + q.row * stride,
                q.act->session->slots_[q.slot].batch.coarse.data(),
                sizeof(float) *
                    static_cast<std::size_t>((q.b1 - q.b0) * stride));
          }
        } else if (!sh.fused.coarse.empty()) {
          sh.fused.coarse = Tensor();
        }
        if (ls.needs_.fine_latest) {
          const Shape shape{pass.windows, w, w};
          if (sh.fused.fine_raw.shape() != shape) {
            sh.fused.fine_raw = Tensor(shape);
          }
          const std::int64_t stride = w * w;
          for (const std::size_t i : pass.members) {
            const Request& q = reqs[i];
            std::memcpy(
                sh.fused.fine_raw.data() + q.row * stride,
                q.act->session->slots_[q.slot].batch.fine_raw.data(),
                sizeof(float) *
                    static_cast<std::size_t>((q.b1 - q.b0) * stride));
          }
        } else if (!sh.fused.fine_raw.empty()) {
          sh.fused.fine_raw = Tensor();
        }
        Workspace::Bind bind(sh.ws);
        Workspace::Scope scope(Workspace::tls());
        std::lock_guard<std::mutex> serialize(lead.model.model->predict_mutex());
        preds = lead.model.model->predict(sh.fused, ls.stream_);
        ++sh.stats.fused_passes;
      }
      check(preds.rank() == 3 && preds.dim(0) == pass.windows,
            "Scheduler: model returned wrong prediction shape");
      ++sh.stats.passes;
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
        Request& q = reqs[i];
        q.pass = static_cast<std::int64_t>(p);
        if (q.key.empty()) continue;
        const std::int64_t n = q.b1 - q.b0;
        const std::int64_t w = q.act->session->config_.window;
        Tensor rows(Shape{n, w, w});
        std::memcpy(rows.data(), preds.data() + q.row * w * w,
                    sizeof(float) * static_cast<std::size_t>(n * w * w));
        sh.memo[q.key] = std::move(rows);
        sh.streams[q.act->session->dedup_prefix_].keys.push_back(q.key);
      }
      (*pass_preds)[p] = std::move(preds);
    }

    // -- Scatter: accumulate every request into its session's stitch. -------
    // Memo rows are resolved HERE, on the dispatch thread — the stage
    // thread must never touch the memo map while later rounds insert into
    // it (node references stay stable, the map itself does not).
    struct ScatterOp {
      Active* act;
      const Tensor* memo_rows;  ///< memo-served; else read pass_preds[pass]
      std::int64_t pass = -1;
      std::int64_t row = 0, n = 0, b0 = 0;
      bool final_round = false;
    };
    auto ops = std::make_shared<std::vector<ScatterOp>>();
    ops->reserve(reqs.size());
    for (Request& q : reqs) {
      ScatterOp op;
      op.act = q.act;
      op.pass = q.pass;
      op.row = q.row;
      op.n = q.b1 - q.b0;
      op.b0 = q.b0;
      op.final_round = r + 1 == q.act->blocks;
      op.memo_rows = nullptr;
      if (q.pass < 0) {
        // Served from the memo: either a hit recorded at lookup time or a
        // within-round sibling's entry stored just above.
        op.memo_rows = q.memo != nullptr ? q.memo : &sh.memo.at(q.key);
      }
      ops->push_back(op);
    }
    auto run_scatter = [ops, pass_preds, &outputs] {
      for (const ScatterOp& op : *ops) {
        Session& s = *op.act->session;
        const Tensor& rows =
            op.memo_rows != nullptr
                ? *op.memo_rows
                : (*pass_preds)[static_cast<std::size_t>(op.pass)];
        data::stitch_accumulate(s.plan_, rows,
                                op.memo_rows != nullptr ? 0 : op.row, op.n,
                                op.b0, op.act->acc, op.act->weight);
        if (op.final_round) {
          data::stitch_finalize(op.act->acc, op.act->weight);
          outputs[op.act->index] = s.denormalize(op.act->acc);
          s.note_inference();
        }
      }
    };
    if (overlap) {
      // Offload the accumulate/denormalise to the stage thread: it runs
      // behind this round's already-queued gathers, overlapping round
      // r+1's GEMMs. Values are unchanged — stitch_accumulate fixes the
      // float-add order at any pool size, including the stage thread's
      // serial one.
      scatter_pending.push_back(stage->submit(std::move(run_scatter)));
    } else {
      run_scatter();
    }
  }
  for (std::future<void>& f : scatter_pending) f.get();
}

}  // namespace mtsr::serving
