#include "blades/index_store.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/strings.h"
#include "storage/layout.h"
#include "storage/node_cache.h"
#include "storage/wal_store.h"

namespace grtdb {

namespace {

// The record am_create stores "in the table associated with the access
// method" (Table 5): which layout, the anchor node, and the layout's
// handles.
struct StorageRecord {
  IndexStorage kind = IndexStorage::kSingleLo;
  NodeId anchor = kInvalidNodeId;
  uint64_t lo = 0;                 // kSingleLo
  std::vector<LoHandle> clusters;  // kLoPerNode / kLoPerSubtree
  uint64_t node_count = 0;         // ditto
  std::string path;                // kExternalFile
};

std::vector<uint8_t> EncodeRecord(const StorageRecord& record) {
  std::vector<uint8_t> out(1 + 8 + 8 + 8 + 4 + record.clusters.size() * 8 +
                           4 + record.path.size());
  uint8_t* p = out.data();
  *p++ = static_cast<uint8_t>(record.kind);
  StoreU64(p, record.anchor);
  p += 8;
  StoreU64(p, record.lo);
  p += 8;
  StoreU64(p, record.node_count);
  p += 8;
  StoreU32(p, static_cast<uint32_t>(record.clusters.size()));
  p += 4;
  for (const LoHandle& handle : record.clusters) {
    StoreU64(p, handle.id);
    p += 8;
  }
  StoreU32(p, static_cast<uint32_t>(record.path.size()));
  p += 4;
  std::memcpy(p, record.path.data(), record.path.size());
  return out;
}

Status DecodeRecord(const std::vector<uint8_t>& bytes,
                    StorageRecord* record) {
  if (bytes.size() < 29) {
    return Status::Corruption("short storage record in the AM catalog");
  }
  const uint8_t* p = bytes.data();
  record->kind = static_cast<IndexStorage>(*p++);
  record->anchor = LoadU64(p);
  p += 8;
  record->lo = LoadU64(p);
  p += 8;
  record->node_count = LoadU64(p);
  p += 8;
  const uint32_t clusters = LoadU32(p);
  p += 4;
  record->clusters.clear();
  for (uint32_t i = 0; i < clusters; ++i) {
    record->clusters.push_back(LoHandle{LoadU64(p)});
    p += 8;
  }
  const uint32_t path_len = LoadU32(p);
  p += 4;
  record->path.assign(reinterpret_cast<const char*>(p), path_len);
  return Status::OK();
}

// Only the GR-tree blade offers the external-file layout; its file is
// <external_dir>/grtree_<index>.dat, its log the same name plus ".wal".
constexpr char kExternalFilePrefix[] = "grtree_";

}  // namespace

// The server-owned part of an index's storage. Declaration order makes
// destruction tear down WAL → cache → base, so the cache's write-back
// lands in a live base store.
class IndexStoreHandle final : public IndexHandle {
 public:
  // On an external file a WAL checkpoint: the cache is written back into
  // the file, the file forced, the log truncated. On the LO layouts the
  // cache's write-back.
  Status Release() override {
    if (wal != nullptr) return wal->Checkpoint();
    return cache->Flush();
  }

  // The record with the clustered layouts' current LO map.
  StorageRecord CurrentRecord() const {
    StorageRecord current = record;
    if (auto* clustered = dynamic_cast<ClusteredLoNodeStore*>(base.get())) {
      current.clusters = clustered->cluster_handles();
      current.node_count = clustered->node_count();
    }
    return current;
  }

  // Fixed once the handle is shared; the clustered layouts' growing LO map
  // is read from the base store instead (CurrentRecord).
  StorageRecord record;
  std::unique_ptr<NodeStore> base;
  std::unique_ptr<NodeCache> cache;
  // kExternalFile only: the developer-built recovery layer of §5.3 — the
  // server's own logging covers sbspace LOs, an OS file gets nothing.
  std::unique_ptr<WalNodeStore> wal;
  NodeStore* top = nullptr;
};

namespace {

// The one place the store stack is assembled: the §5.3 layout's base
// store, the node cache, and on an external file the WAL with its
// recovery. When `creating`, fresh storage is allocated and `record`
// filled in; otherwise the storage `record` names is reattached.
StatusOr<std::unique_ptr<IndexStoreHandle>> BuildHandle(
    MiCallContext& ctx, const IndexDef* index,
    const IndexStoreOptions& options, bool creating, StorageRecord record) {
  Server* server = ctx.server;
  if (options.node_cache_pages == 0) {
    return Status::InvalidArgument(
        "node_cache_pages must be at least 1: the node cache latches the "
        "index's shared store");
  }
  auto handle = std::make_unique<IndexStoreHandle>();
  if (creating) record.kind = options.storage;
  if (options.storage == IndexStorage::kExternalFile) {
    if (creating) {
      record.path = options.external_dir + "/" + kExternalFilePrefix +
                    ToLower(index->name) + ".dat";
      std::remove(record.path.c_str());
      std::remove((record.path + ".wal").c_str());
    }
    auto store_or = ExternalFileNodeStore::Open(record.path);
    if (!store_or.ok()) return store_or.status();
    handle->base = std::move(store_or).value();
  } else {
    Sbspace* sbspace = server->FindSbspace(index->space);
    if (sbspace == nullptr) {
      return Status::NotFound("sbspace '" + index->space + "'");
    }
    if (options.storage == IndexStorage::kSingleLo) {
      LoHandle lo;
      if (!creating) lo.id = record.lo;
      auto store_or = SingleLoNodeStore::Open(sbspace, lo);
      if (!store_or.ok()) return store_or.status();
      record.lo = store_or.value()->handle().id;
      handle->base = std::move(store_or).value();
    } else {
      const uint64_t nodes_per_lo =
          options.storage == IndexStorage::kLoPerNode ? 1
                                                      : options.nodes_per_lo;
      auto store =
          std::make_unique<ClusteredLoNodeStore>(sbspace, nodes_per_lo);
      if (!creating) store->RestoreState(record.clusters, record.node_count);
      handle->base = std::move(store);
    }
  }
  handle->cache =
      std::make_unique<NodeCache>(handle->base.get(), options.node_cache_pages);
  handle->cache->set_trace(&server->trace());
  handle->cache->set_heat(&server->heat_tracker(), index->name);
  if (server->observability_enabled()) {
    handle->cache->set_metrics(&server->metrics());
  }
  handle->top = handle->cache.get();
  if (options.storage == IndexStorage::kExternalFile) {
    // Cache below the WAL: safe because the WAL flushes its inner store
    // (here: the cache, which writes back) before every log truncation.
    auto wal_or = WalNodeStore::Open(handle->top, record.path + ".wal");
    if (!wal_or.ok()) return wal_or.status();
    handle->wal = std::move(wal_or).value();
    handle->wal->set_trace(&server->trace());
    if (server->observability_enabled()) {
      handle->wal->set_metrics(&server->metrics());
    }
    // §5.3: with an OS file the DataBlade must provide all recovery
    // itself — replay whatever a crash left in the log. A new index has
    // no log to replay.
    if (!creating) GRTDB_RETURN_IF_ERROR(handle->wal->Recover());
    handle->top = handle->wal.get();
  }
  handle->record = std::move(record);
  return handle;
}

}  // namespace

IndexStore::IndexStore(const std::string& am_name, const IndexDef* index,
                       const IndexStoreOptions& options)
    : am_name_(am_name),
      index_(index),
      storage_(options.storage),
      lock_large_objects_(options.lock_large_objects) {}

IndexStore::~IndexStore() = default;

StatusOr<std::unique_ptr<IndexStore>> IndexStore::Create(
    MiCallContext& ctx, const std::string& am_name, const IndexDef* index,
    const IndexStoreOptions& options) {
  auto store = std::make_unique<IndexStore>(am_name, index, options);
  auto handle_or =
      BuildHandle(ctx, index, options, /*creating=*/true, StorageRecord());
  if (!handle_or.ok()) return handle_or.status();
  store->owned_ = std::move(handle_or).value();
  store->handle_ = store->owned_.get();
  store->StackLocks(ctx);
  return store;
}

Status IndexStore::SaveRecord(MiCallContext& ctx, NodeId anchor) {
  handle_->record.anchor = anchor;
  return PutRecord(ctx);
}

Status IndexStore::PutRecord(MiCallContext& ctx) {
  return ctx.server->AmCatalogPut(am_name_, index_->name,
                                  EncodeRecord(handle_->CurrentRecord()));
}

StatusOr<std::unique_ptr<IndexStore>> IndexStore::Attach(
    MiCallContext& ctx, const std::string& am_name, const IndexDef* index,
    const IndexStoreOptions& options) {
  auto store = std::make_unique<IndexStore>(am_name, index, options);
  auto handle_or = ctx.server->AttachIndexHandle(
      index->name, [&]() -> StatusOr<std::unique_ptr<IndexHandle>> {
        std::vector<uint8_t> bytes;
        GRTDB_RETURN_IF_ERROR(
            ctx.server->AmCatalogGet(am_name, index->name, &bytes));
        StorageRecord record;
        GRTDB_RETURN_IF_ERROR(DecodeRecord(bytes, &record));
        auto built = BuildHandle(ctx, index, options, /*creating=*/false,
                                 std::move(record));
        if (!built.ok()) return built.status();
        return std::unique_ptr<IndexHandle>(std::move(built).value());
      });
  if (!handle_or.ok()) return handle_or.status();
  // Only BuildHandle registers handles, under the index's unique name.
  store->handle_ = static_cast<IndexStoreHandle*>(handle_or.value());
  store->StackLocks(ctx);
  return store;
}

void IndexStore::StackLocks(MiCallContext& ctx) {
  store_ = handle_->top;
  if (lock_large_objects_ && storage_ != IndexStorage::kExternalFile) {
    locking_ = std::make_unique<LockingNodeStore>(
        store_, &ctx.server->lock_manager(), ctx.session);
    store_ = locking_.get();
  }
}

NodeId IndexStore::anchor() const { return handle_->record.anchor; }

Status IndexStore::Mutate(const std::function<Status()>& body) {
  mutated_ = true;
  WalNodeStore* wal = handle_->wal.get();
  if (wal == nullptr) return body();
  GRTDB_RETURN_IF_ERROR(wal->Begin());
  Status status = body();
  if (!status.ok()) {
    (void)wal->Rollback();
    return status;
  }
  return wal->Commit();
}

Status IndexStore::Close(MiCallContext& ctx) {
  Status status;
  if (owned_ != nullptr) {
    // am_create's build pass: record the clustered layouts' final LO map,
    // which the first am_open builds the shared handle from, then make the
    // private stack durable and drop it with this open.
    status = PutRecord(ctx);
    Status released = owned_->Release();
    if (status.ok()) status = released;
  } else if (mutated_ && handle_->wal == nullptr) {
    status = handle_->cache->Flush();
  }
  if (locking_ != nullptr) locking_->ReleaseSharedOnClose();
  return status;
}

Status IndexStore::Drop(MiCallContext& ctx) {
  const StorageRecord record = handle_->CurrentRecord();
  locking_.reset();
  store_ = nullptr;
  handle_ = nullptr;
  // The handle goes first: its cache and log must not outlive the storage
  // they write to. am_drop runs on an attached open, never on am_create's.
  Status status = ctx.server->ReleaseIndexHandle(index_->name);
  Sbspace* sbspace = ctx.server->FindSbspace(index_->space);
  switch (record.kind) {
    case IndexStorage::kSingleLo:
      if (sbspace != nullptr) {
        Status drop = sbspace->DropLo(LoHandle{record.lo});
        if (status.ok()) status = drop;
      }
      break;
    case IndexStorage::kLoPerNode:
    case IndexStorage::kLoPerSubtree:
      if (sbspace != nullptr) {
        for (const LoHandle& lo : record.clusters) {
          if (lo.valid()) {
            Status drop = sbspace->DropLo(lo);
            if (status.ok()) status = drop;
          }
        }
      }
      break;
    case IndexStorage::kExternalFile:
      std::remove(record.path.c_str());
      std::remove((record.path + ".wal").c_str());
      break;
  }
  Status forget = ctx.server->AmCatalogDelete(am_name_, index_->name);
  if (status.ok()) status = forget;
  return status;
}

}  // namespace grtdb
