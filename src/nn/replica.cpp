#include "src/nn/replica.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <future>
#include <string>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/workspace.hpp"

namespace mtsr::nn {

namespace replica {
namespace {
thread_local int t_slot = -1;
}  // namespace

int slot() { return t_slot; }

int cache_index() { return t_slot < 0 ? 0 : t_slot; }

SlotGuard::SlotGuard(int s) : previous_(t_slot) {
  check(s >= 0 && s < kMaxReplicaSlots, "replica::SlotGuard: slot out of range");
  t_slot = s;
}

SlotGuard::~SlotGuard() { t_slot = previous_; }

}  // namespace replica

int train_slice_count(std::int64_t batch) {
  if (batch < 4) return 1;
  return static_cast<int>(std::min<std::int64_t>(batch / 2, 8));
}

SliceRange train_slice_range(std::int64_t batch, int slices, int slice) {
  check(slices >= 1 && slice >= 0 && slice < slices,
        "train_slice_range: slice out of range");
  SliceRange r;
  r.begin = batch * slice / slices;
  r.end = batch * (slice + 1) / slices;
  return r;
}

TrainSplit resolve_train_split(int configured, std::int64_t batch) {
  if (configured < 0) return {};  // whole batch, one inline slice
  TrainSplit split;
  split.slices = train_slice_count(batch);
  if (configured >= 1) {
    split.workers = configured;
  } else if (const char* env = std::getenv("MTSR_TRAIN_REPLICAS");
             env != nullptr && std::atoi(env) >= 1) {
    split.workers = std::atoi(env);
  } else {
    split.workers = std::max(num_shards(), 1);
  }
  return split;
}

namespace {

struct WorkerOutcome {
  std::exception_ptr error;
  ReplicaArenaStats stats;
};

void run_slice(int slice, const std::function<void(int)>& body) {
  replica::SlotGuard guard(slice);
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  body(slice);
}

ReplicaArenaStats capture_arena(int worker) {
  const Workspace::Stats s = Workspace::tls().stats();
  ReplicaArenaStats out;
  out.worker = worker;
  out.capacity_bytes = s.capacity_bytes;
  out.growth_events = s.growth_events;
  out.peak_bytes = s.peak_bytes;
  return out;
}

}  // namespace

void run_replicated(int slices, int replicas,
                    const std::function<void(int)>& body,
                    std::vector<ReplicaArenaStats>* arena_stats) {
  check(slices >= 1 && slices <= kMaxReplicaSlots,
        "run_replicated: slice count out of range");
  check(replicas >= 1, "run_replicated: replicas must be >= 1");
  const int workers = std::min(replicas, slices);

  if (workers == 1) {
    for (int s = 0; s < slices; ++s) run_slice(s, body);
    if (arena_stats) {
      arena_stats->assign(1, capture_arena(0));
    }
    return;
  }

  // Workers must not be re-topologised out from under in-flight tasks.
  detail::PoolTopologyPin pin;
  const int shards = num_shards();
  std::vector<WorkerOutcome> outcomes(static_cast<std::size_t>(workers));
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    const std::int64_t begin =
        static_cast<std::int64_t>(slices) * w / workers;
    const std::int64_t end =
        static_cast<std::int64_t>(slices) * (w + 1) / workers;
    WorkerOutcome& outcome = outcomes[static_cast<std::size_t>(w)];
    futures.push_back(run_on_shard(w % shards, [&body, &outcome, begin, end,
                                                w]() {
      try {
        for (std::int64_t s = begin; s < end; ++s) {
          run_slice(static_cast<int>(s), body);
        }
      } catch (...) {
        outcome.error = std::current_exception();
      }
      outcome.stats = capture_arena(w);
    }));
  }
  // Join every worker before rethrowing: slice bodies capture caller state
  // by reference and must all be retired first.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  for (const WorkerOutcome& o : outcomes) {
    if (o.error && !first) first = o.error;
  }
  if (arena_stats) {
    arena_stats->clear();
    for (const WorkerOutcome& o : outcomes) arena_stats->push_back(o.stats);
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace mtsr::nn
