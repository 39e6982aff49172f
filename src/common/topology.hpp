// CPU/NUMA topology detection and worker affinity policies.
//
// The serving pool shards its workers across NUMA nodes (one shard per node
// by default) so each shard's GEMM panels stream node-local memory. This
// layer answers two questions for the pool: "what does the machine look
// like?" (Topology) and "where should this worker run?" (AffinityPolicy).
//
// Detection reads /sys/devices/system/{cpu,node} on Linux and degrades to a
// single node spanning hardware_concurrency cpus anywhere that sysfs is
// absent or unparsable. Pinning uses pthread_setaffinity_np and NEVER
// aborts: a host that rejects the mask (cgroup cpuset restrictions,
// non-Linux libc) logs one warning, counts the failure, and serves
// unpinned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mtsr {

/// Worker pinning policy, selected via MTSR_AFFINITY=none|compact|scatter or
/// set_affinity_policy(). Applied when the pool (re)builds its workers.
enum class AffinityPolicy {
  kNone,     ///< no pinning (default) — the OS schedules workers freely
  kCompact,  ///< shard s's workers pinned to consecutive cpus of node
             ///< (s % nodes): one shard per node, node-local panel streams
  kScatter,  ///< shard s's workers round-robined across ALL nodes: trades
             ///< locality for aggregate memory bandwidth
};

/// Immutable machine description, detected once at first use.
class Topology {
 public:
  struct Node {
    int id = 0;                ///< NUMA node id (nodeN in sysfs)
    std::vector<int> cpus;     ///< online cpus of this node, ascending
  };

  /// The detected (or fallback) topology. Thread-safe, detection runs once.
  static const Topology& instance();

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] int node_count() const {
    return static_cast<int>(nodes_.size());
  }
  /// Total online cpus across all nodes (>= 1).
  [[nodiscard]] int cpu_count() const { return cpu_count_; }
  /// True when the layout came from sysfs; false for the fallback guess.
  [[nodiscard]] bool detected_from_sysfs() const { return from_sysfs_; }
  /// e.g. "2 nodes x 8 cpus (sysfs)" — for banners and stats tables.
  [[nodiscard]] std::string summary() const;

  // Exposed for tests: parses a sysfs cpulist like "0-3,8,10-11".
  static std::vector<int> parse_cpu_list(const std::string& text);

 private:
  Topology();

  std::vector<Node> nodes_;
  int cpu_count_ = 1;
  bool from_sysfs_ = false;
};

/// Current affinity policy. Defaults from MTSR_AFFINITY (unset -> kNone).
[[nodiscard]] AffinityPolicy affinity_policy();

/// Replaces the affinity policy and rebuilds the pool's workers so the new
/// pins take effect. Same restrictions as set_num_threads: throws from
/// inside a parallel region or while serving sessions hold the pool
/// topology open.
void set_affinity_policy(AffinityPolicy policy);

/// Parses "none" / "compact" / "scatter" (case-sensitive, as documented for
/// MTSR_AFFINITY). Unknown strings return kNone.
[[nodiscard]] AffinityPolicy parse_affinity_policy(const char* text);
[[nodiscard]] const char* affinity_policy_name(AffinityPolicy policy);

namespace detail {

/// Raw policy store used by set_affinity_policy (which lives with the pool
/// so it can rebuild the workers under the pool's own guards).
void store_affinity_policy(AffinityPolicy policy);

/// Pins the calling thread to a single cpu. Returns false (and counts the
/// failure, warning once per process) when the host rejects the mask.
bool pin_current_thread_to_cpu(int cpu);

/// Pins the calling thread to every cpu of `node` (index into
/// Topology::nodes()). Used for shard runner threads, which should stay on
/// their shard's node without claiming a specific core.
bool pin_current_thread_to_node(int node_index);

/// Number of pin attempts the host rejected since process start. The
/// affinity-fallback contract is "warn once, keep serving unpinned" — tests
/// assert this counter moves instead of the process dying.
[[nodiscard]] std::int64_t pin_failure_count();

/// Test hook: while true, every pin attempt fails as if
/// pthread_setaffinity_np returned EINVAL. Lets the fallback path run on
/// hosts where pinning would otherwise succeed.
void simulate_pin_failure(bool enabled);

/// Cpu for worker `worker_index` of shard `shard` under `policy`, or -1 for
/// "do not pin". Pure function of the detected topology.
[[nodiscard]] int cpu_for_worker(AffinityPolicy policy, int shard,
                                 int shard_count, int worker_index);

}  // namespace detail

}  // namespace mtsr
