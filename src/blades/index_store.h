#ifndef GRTDB_BLADES_INDEX_STORE_H_
#define GRTDB_BLADES_INDEX_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "blades/locking_store.h"
#include "common/status.h"
#include "server/server.h"
#include "storage/node_store.h"

namespace grtdb {

class IndexStoreHandle;

// The §5.3 options for where a tree DataBlade keeps its nodes.
enum class IndexStorage { kSingleLo, kLoPerNode, kLoPerSubtree, kExternalFile };

// Where a tree DataBlade keeps its nodes; GRTreeBladeOptions extends it.
struct IndexStoreOptions {
  using Storage = IndexStorage;
  Storage storage = Storage::kSingleLo;
  uint64_t nodes_per_lo = 16;          // kLoPerSubtree cluster size
  std::string external_dir = "/tmp";   // kExternalFile directory
  // Informix's automatic LO-granularity two-phase locking; irrelevant (and
  // absent, as §5.3 laments) for kExternalFile.
  bool lock_large_objects = true;
  // Frames in the index's buffer-managed node cache, placed directly above
  // the layout's base store (below locking and the WAL) and shared by every
  // statement that opens the index. At least 1: the cache latches the
  // shared base store against concurrent sessions.
  size_t node_cache_pages = 64;
};

// One am_open's use of an index's storage — the store stack the GR-tree and
// R*-tree blades share. Below sits the index handle the server owns (§5.4
// PER_SYSTEM state): the layout's base store, one NodeCache above it and,
// on an external file, the blade's WAL above the cache, with the recovery
// an OS file needs (§5.3) run once, when the handle is built. Above sits
// what belongs to this open alone: the LockingNodeStore that takes this
// statement's LO locks.
//
// am_create builds a private stack for the CREATE INDEX build pass, which
// am_close records in the catalog, makes durable and drops. The first am_open after CREATE INDEX or
// server start builds the handle from the catalog record; later opens
// attach to it. DROP INDEX (Drop) and server shutdown release it.
class IndexStore {
 public:
  // Use Create or Attach.
  IndexStore(const std::string& am_name, const IndexDef* index,
             const IndexStoreOptions& options);
  ~IndexStore();

  IndexStore(const IndexStore&) = delete;
  IndexStore& operator=(const IndexStore&) = delete;

  // am_create: fresh storage for `index` (an old external file of the same
  // name is removed). SaveRecord stores the catalog record once the tree
  // has its anchor.
  static StatusOr<std::unique_ptr<IndexStore>> Create(
      MiCallContext& ctx, const std::string& am_name, const IndexDef* index,
      const IndexStoreOptions& options);
  Status SaveRecord(MiCallContext& ctx, NodeId anchor);

  // am_open: attaches to the index's handle, building it on first use.
  static StatusOr<std::unique_ptr<IndexStore>> Attach(
      MiCallContext& ctx, const std::string& am_name, const IndexDef* index,
      const IndexStoreOptions& options);

  // What the tree runs on, and its anchor node.
  NodeStore* store() const { return store_; }
  NodeId anchor() const;

  // Runs one index mutation; on an external file it is one WAL
  // transaction, so a crash never tears the tree. Every write to the tree
  // goes through here.
  Status Mutate(const std::function<Status()>& body);

  // am_close. After a mutation, LO layouts write dirty cached nodes back
  // while this statement's exclusive LO locks are still held; an open that
  // only read left nothing dirty (writers are serialized by the table X
  // lock, and each flushes at its own close). An external file is not
  // forced, since the WAL already made every committed change durable.
  // Shared LO locks are dropped when the isolation level allows it.
  Status Close(MiCallContext& ctx);

  // am_drop, after the tree freed its nodes: releases the handle, then
  // destroys the storage and the catalog record. The store is unusable
  // afterwards.
  Status Drop(MiCallContext& ctx);

 private:
  // Puts the per-open LockingNodeStore above the handle's stack.
  void StackLocks(MiCallContext& ctx);
  // Stores the handle's record, with the clustered layouts' current LO
  // map, in the AM catalog.
  Status PutRecord(MiCallContext& ctx);

  std::string am_name_;
  const IndexDef* index_;
  IndexStorage storage_;
  bool lock_large_objects_;
  std::unique_ptr<IndexStoreHandle> owned_;  // am_create's private stack
  IndexStoreHandle* handle_ = nullptr;
  std::unique_ptr<LockingNodeStore> locking_;
  NodeStore* store_ = nullptr;
  bool mutated_ = false;
};

}  // namespace grtdb

#endif  // GRTDB_BLADES_INDEX_STORE_H_
