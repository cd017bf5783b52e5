#ifndef GRTDB_OBS_HEAT_TRACKER_H_
#define GRTDB_OBS_HEAT_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace grtdb {
namespace obs {

// The access vocabulary for per-node heat accounting. Like FlightEvent and
// SpanName, recording sites must pass an enumerator, never a raw number
// (grtdb_analyze's heat-access rule rejects numeric access codes fed to
// RecordAccess).
enum class HeatAccess : uint8_t {
  kRead = 0,   // node image served to a traversal (ReadNode/ViewNode)
  kWrite = 1,  // node image replaced (WriteNode)
};

// One ranked row of a heat snapshot: a (store, node) pair with its decayed
// heat score and raw tallies. `store` is the label the owning layer chose
// at registration — blades register the index name, so sys_hot_nodes joins
// sys_index_stats on it.
struct HotNode {
  std::string store;
  uint64_t node = 0;
  double heat = 0.0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t pin_wait_ns = 0;
};

// Server-wide per-node access-heat tracker, fed by every NodeCache wired to
// it. Disabled by default: the gate is one relaxed atomic load, so dormant
// instrumentation costs a branch per node access and nothing else — no
// clock reads, no locks, no allocation. When armed (SET HEAT_TRACK = 1)
// each access takes one of kShards striped mutexes and bumps a decaying
// counter keyed by (store, node).
//
// Decay: a global epoch advances every kOpsPerEpoch recorded accesses, and
// a counter touched in epoch E after last being touched in epoch E0 is
// first halved (E - E0) times. Heat therefore ranks *recent* traffic — an
// old bulk load cannot outshout the current hot path — while the raw
// read/write/pin-wait tallies stay cumulative for the bench's assertions.
//
// Bounded: at most max_nodes distinct (store, node) keys are retained
// across all shards. The cap is split evenly over the shards and each
// shard enforces its share under its own mutex, so concurrent admissions
// and Clear() can never push the total past max_nodes; accesses to new
// keys beyond a shard's share are counted in dropped() instead of
// admitted, so a scan over an arbitrarily large index cannot balloon the
// tracker.
class HeatTracker {
 public:
  static constexpr size_t kDefaultMaxNodes = 4096;
  // Read weight 1, write weight kWriteWeight: a written node is hotter
  // than a read node at equal frequency (writers exclude readers).
  static constexpr double kWriteWeight = 4.0;
  static constexpr uint64_t kOpsPerEpoch = 8192;

  explicit HeatTracker(size_t max_nodes = kDefaultMaxNodes);

  HeatTracker(const HeatTracker&) = delete;
  HeatTracker& operator=(const HeatTracker&) = delete;

  // The ~0-cost dormant gate. Recording sites check this themselves before
  // doing any timing work (the pin-wait clock reads are gated too).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Registers a store label (typically the index name) and returns the id
  // RecordAccess wants. Re-registering an existing label returns the same
  // id, so every cache of a reopened index aggregates into one store.
  uint32_t RegisterStore(const std::string& label);

  // Records one node access. `pin_wait_ns` is the time the caller spent
  // blocked acquiring the frame latch (0 when it was free). Safe from any
  // thread; when the tracker is disabled this still works but recording
  // sites skip the call entirely to keep the dormant path free.
  void RecordAccess(uint32_t store, uint64_t node, HeatAccess access,
                    uint64_t pin_wait_ns = 0);

  // Every retained node, decayed to the current epoch and ranked by heat
  // descending (ties broken by store/node for determinism).
  std::vector<HotNode> Snapshot() const;

  // Drops all retained counters (store registrations survive).
  void Clear();

  // Accesses not admitted because the node cap was reached.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  size_t max_nodes() const { return max_nodes_; }

  static constexpr size_t kShards = 16;

  // Shard a (store, node) key lands in: nodes i, i + kShards, i + 2 *
  // kShards, ... of every store share a shard (exposed for tests).
  static size_t ShardOf(uint32_t store, uint64_t node) {
    return KeyFor(store, node) % kShards;
  }

 private:
  struct NodeHeat {
    double heat = 0.0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t pin_wait_ns = 0;
    uint64_t epoch = 0;  // epoch `heat` was last decayed to
  };

  struct Shard {
    mutable std::mutex mu;
    // Key packs (store, node); see KeyFor.
    std::unordered_map<uint64_t, NodeHeat> nodes;
    size_t cap = 0;  // this shard's share of max_nodes
  };

  static uint64_t KeyFor(uint32_t store, uint64_t node) {
    // 16 bits of store id over 48 bits of node id: node ids are frame/page
    // ordinals, nowhere near 2^48, and a server has nowhere near 2^16
    // indexes.
    return (static_cast<uint64_t>(store) << 48) | (node & ((1ull << 48) - 1));
  }

  static double Decayed(const NodeHeat& entry, uint64_t epoch);

  const size_t max_nodes_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> dropped_{0};
  Shard shards_[kShards];

  mutable std::mutex stores_mu_;
  std::vector<std::string> store_labels_;
  std::unordered_map<std::string, uint32_t> store_ids_;
};

}  // namespace obs
}  // namespace grtdb

#endif  // GRTDB_OBS_HEAT_TRACKER_H_
