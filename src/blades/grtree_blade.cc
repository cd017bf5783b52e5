#include "blades/grtree_blade.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "blades/timeextent.h"
#include "common/strings.h"
#include "temporal/predicates.h"

namespace grtdb {

namespace {

// ------------------------------------------------------------ scan state --

struct GrtScanState {
  std::unique_ptr<GRTree::Cursor> cursor;
  PredicateOp first_op = PredicateOp::kOverlaps;
  TimeExtent first_query;
  // Hard-coded residual checks for AND terms beyond the first (§5.2).
  std::vector<std::pair<PredicateOp, TimeExtent>> residual;
  // Dynamic-dispatch mode re-evaluates the registered strategy UDRs on
  // every candidate instead.
  const MiAmQualDesc* qual = nullptr;
  bool dynamic = false;
  int64_t ct = 0;
};

// The Tree object of Table 5, stashed in the index descriptor's user data:
// this open's tree over its use of the index's storage.
struct GrtTreeState {
  GRTreeBladeOptions options;
  std::unique_ptr<IndexStore> storage;
  std::unique_ptr<GRTree> tree;
  GrtScanState* active_scan = nullptr;
};

// Re-balances what kPostponeReinsert deletions left underfull, as one
// logged mutation.
Status FlushPending(GrtTreeState* state, int64_t ct) {
  if (!state->tree->has_pending_condense()) return Status::OK();
  return state->storage->Mutate([&] { return state->tree->FlushPending(ct); });
}

StatusOr<PredicateOp> OpFromStrategyName(const std::string& name,
                                         bool column_first) {
  PredicateOp op;
  if (EqualsIgnoreCase(name, "Overlaps")) {
    op = PredicateOp::kOverlaps;
  } else if (EqualsIgnoreCase(name, "Contains")) {
    op = PredicateOp::kContains;
  } else if (EqualsIgnoreCase(name, "ContainedIn")) {
    op = PredicateOp::kContainedIn;
  } else if (EqualsIgnoreCase(name, "Equal")) {
    op = PredicateOp::kEqual;
  } else {
    return Status::NotSupported("strategy function '" + name +
                                "' is not known to the GR-tree");
  }
  if (!column_first) {
    // f(const, column): the data extent is the *second* argument, so the
    // containment predicates flip.
    if (op == PredicateOp::kContains) {
      op = PredicateOp::kContainedIn;
    } else if (op == PredicateOp::kContainedIn) {
      op = PredicateOp::kContains;
    }
  }
  return op;
}

// Breaks the qualification into simple (op, query) predicates (§6.3: "how
// to break a complex qualification into simple ones"). Supported shapes:
// one term, or a conjunction of terms; disjunctions never reach a virtual
// index in this server's optimizer.
Status TranslateQual(const MiAmQualDesc& qual,
                     std::vector<std::pair<PredicateOp, TimeExtent>>* terms) {
  if (qual.op == MiAmQualDesc::Op::kTerm) {
    if (qual.term.unary) {
      return Status::NotSupported("GR-tree has no unary strategy functions");
    }
    auto op_or = OpFromStrategyName(qual.term.func->name,
                                    qual.term.column_first);
    if (!op_or.ok()) return op_or.status();
    TimeExtent query;
    GRTDB_RETURN_IF_ERROR(ExtentFromValue(qual.term.constant, &query));
    terms->emplace_back(op_or.value(), query);
    return Status::OK();
  }
  if (qual.op == MiAmQualDesc::Op::kAnd) {
    for (const MiAmQualDesc& child : qual.children) {
      GRTDB_RETURN_IF_ERROR(TranslateQual(child, terms));
    }
    return Status::OK();
  }
  return Status::NotSupported(
      "GR-tree scans do not accept disjunctive qualifications");
}

GrtTreeState* StateOf(MiAmTableDesc* desc) {
  return static_cast<GrtTreeState*>(desc->user_data);
}

int64_t ScanTime(MiCallContext& ctx) { return BladeCurrentTime(ctx); }

// -------------------------------------------------------- purpose bodies --
// Each purpose function is a closure over the blade options; the factory
// below exports them under the registration prefix.

struct BladeFns {
  AmSimpleFn create, drop, open, close, stats, check;
  AmScanFn beginscan, endscan, rescan;
  AmGetNextFn getnext;
  AmModifyFn insert, remove;
  AmUpdateFn update;
  AmScanCostFn scancost;
};

BladeFns MakeBladeFns(const GRTreeBladeOptions& options) {
  BladeFns fns;
  const std::string am_name = options.am_name;
  const IndexStoreOptions store_options = options;

  auto open_tree = [options, am_name, store_options](
                       MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    auto state = std::make_unique<GrtTreeState>();
    state->options = options;
    auto storage_or =
        IndexStore::Attach(ctx, am_name, desc->index, store_options);
    if (!storage_or.ok()) return storage_or.status();
    state->storage = std::move(storage_or).value();
    auto tree_or = GRTree::Open(state->storage->store(),
                                state->storage->anchor(), options.tree);
    if (!tree_or.ok()) return tree_or.status();
    state->tree = std::move(tree_or).value();
    desc->user_data = state.release();
    return Status::OK();
  };

  fns.create = [options, am_name, store_options](
                   MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    const IndexDef* index = desc->index;
    // Table 5, grt_create steps 2-4: column type, operator class, and
    // duplicate-index checks.
    if (desc->key_types.size() != 1 ||
        desc->key_types[0].base != TypeDesc::Base::kOpaque ||
        desc->key_types[0].opaque_id != TimeExtentTypeId(ctx.server)) {
      return Status::InvalidArgument(
          am_name + " indexes exactly one grt_timeextent column");
    }
    const OpClassDef* opclass =
        ctx.server->catalog().FindOpClass(index->opclasses[0]);
    if (opclass == nullptr ||
        !EqualsIgnoreCase(opclass->access_method, index->access_method)) {
      return Status::InvalidArgument("operator class '" +
                                     index->opclasses[0] +
                                     "' cannot be used with " + am_name);
    }
    for (IndexDef* other :
         ctx.server->catalog().IndexesOnTable(index->table)) {
      if (!EqualsIgnoreCase(other->name, index->name) &&
          EqualsIgnoreCase(other->access_method, index->access_method) &&
          other->key_columns == index->key_columns) {
        return Status::AlreadyExists(
            "an index using " + am_name +
            " already exists on the same column(s): " + other->name);
      }
    }
    // Steps 5-7: create the BLOB(s), record them in the AM's table, open.
    auto state = std::make_unique<GrtTreeState>();
    state->options = options;
    auto storage_or = IndexStore::Create(ctx, am_name, index, store_options);
    if (!storage_or.ok()) return storage_or.status();
    state->storage = std::move(storage_or).value();
    NodeId anchor;
    auto tree_or =
        GRTree::Create(state->storage->store(), options.tree, &anchor);
    if (!tree_or.ok()) return tree_or.status();
    state->tree = std::move(tree_or).value();
    GRTDB_RETURN_IF_ERROR(state->storage->SaveRecord(ctx, anchor));
    desc->user_data = state.release();
    ctx.server->trace().Tprintf("grtree", 1, "created index %s",
                                index->name.c_str());
    return Status::OK();
  };

  fns.open = [open_tree](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    // Table 5, grt_open step 1: invoked right after grt_create -> exit
    // (the descriptor already carries the Tree object).
    if (desc->just_created) return Status::OK();
    if (desc->user_data != nullptr) return Status::OK();
    return open_tree(ctx, desc);
  };

  fns.close = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GrtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::OK();
    Status status = FlushPending(state, ScanTime(ctx));
    Status closed = state->storage->Close(ctx);
    if (status.ok()) status = closed;
    delete state;
    desc->user_data = nullptr;
    return status;
  };

  fns.drop = [open_tree](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    if (desc->user_data == nullptr) {
      GRTDB_RETURN_IF_ERROR(open_tree(ctx, desc));
    }
    GrtTreeState* state = StateOf(desc);
    Status status = state->tree->Drop();
    // Release the storage: the single LO, the cluster LOs, or the file.
    Status dropped = state->storage->Drop(ctx);
    if (status.ok()) status = dropped;
    delete state;
    desc->user_data = nullptr;
    return status;
  };

  fns.beginscan = [](MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    GrtTreeState* state = StateOf(sd->table_desc);
    if (state == nullptr || state->tree == nullptr) {
      return Status::Internal("grt_beginscan on unopened index");
    }
    auto scan = std::make_unique<GrtScanState>();
    scan->ct = ScanTime(ctx);
    scan->qual = sd->qual;
    scan->dynamic = state->options.dynamic_dispatch;
    std::vector<std::pair<PredicateOp, TimeExtent>> terms;
    GRTDB_RETURN_IF_ERROR(TranslateQual(*sd->qual, &terms));
    if (terms.empty()) {
      return Status::InvalidArgument("empty qualification");
    }
    scan->first_op = terms[0].first;
    scan->first_query = terms[0].second;
    scan->residual.assign(terms.begin() + 1, terms.end());
    auto cursor_or =
        state->tree->Search(scan->first_op, scan->first_query, scan->ct);
    if (!cursor_or.ok()) return cursor_or.status();
    scan->cursor = std::move(cursor_or).value();
    state->active_scan = scan.get();
    sd->user_data = scan.release();
    return Status::OK();
  };

  fns.getnext = [](MiCallContext& ctx, MiAmScanDesc* sd, bool* has,
                   uint64_t* retrowid, Row* retrow) -> Status {
    GrtTreeState* state = StateOf(sd->table_desc);
    auto* scan = static_cast<GrtScanState*>(sd->user_data);
    if (scan == nullptr) {
      return Status::Internal("grt_getnext without grt_beginscan");
    }
    *has = false;
    while (true) {
      bool cursor_has = false;
      GRTree::Entry entry;
      GRTDB_RETURN_IF_ERROR(scan->cursor->Next(&cursor_has, &entry));
      if (!cursor_has) return Status::OK();
      bool matches = true;
      if (scan->dynamic) {
        // §5.2 extensible variant: resolve and invoke the registered
        // strategy UDRs on the candidate (costing dynamic dispatch).
        Value key = ValueFromExtent(ctx.server, entry.extent);
        GRTDB_RETURN_IF_ERROR(
            EvaluateQualOnValue(ctx, *scan->qual, key, &matches));
      } else {
        // Hard-coded residual checks (the paper's choice).
        const Region data = ResolveExtent(entry.extent, scan->ct);
        for (const auto& [op, query] : scan->residual) {
          if (!GRTree::LeafTest(op, data,
                                ResolveExtent(query, scan->ct))) {
            matches = false;
            break;
          }
        }
      }
      if (!matches) continue;
      *retrowid = entry.payload;
      retrow->clear();
      retrow->push_back(ValueFromExtent(ctx.server, entry.extent));
      *has = true;
      (void)state;
      return Status::OK();
    }
  };

  fns.rescan = [](MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    GrtTreeState* state = StateOf(sd->table_desc);
    auto* scan = static_cast<GrtScanState*>(sd->user_data);
    if (scan == nullptr || state == nullptr) {
      return Status::Internal("grt_rescan without grt_beginscan");
    }
    // A rescan restarts the scan from scratch (fresh cursor, fresh
    // duplicate filter).
    auto cursor_or =
        state->tree->Search(scan->first_op, scan->first_query, scan->ct);
    if (!cursor_or.ok()) return cursor_or.status();
    scan->cursor = std::move(cursor_or).value();
    (void)ctx;
    return Status::OK();
  };

  fns.endscan = [](MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    GrtTreeState* state = StateOf(sd->table_desc);
    auto* scan = static_cast<GrtScanState*>(sd->user_data);
    Status status = Status::OK();
    if (state != nullptr && state->tree != nullptr) {
      // Deferred re-insertions happen once the scan no longer needs a
      // stable tree (§5.5).
      status = FlushPending(state, ScanTime(ctx));
    }
    if (state != nullptr) state->active_scan = nullptr;
    delete scan;
    sd->user_data = nullptr;
    return status;
  };

  fns.insert = [](MiCallContext& ctx, MiAmTableDesc* desc, const Row& keyrow,
                  uint64_t rowid) -> Status {
    GrtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    TimeExtent extent;
    GRTDB_RETURN_IF_ERROR(ExtentFromValue(keyrow.at(0), &extent));
    return state->storage->Mutate([&] {
      return state->tree->Insert(extent, rowid, BladeCurrentTime(ctx));
    });
  };

  fns.remove = [](MiCallContext& ctx, MiAmTableDesc* desc, const Row& keyrow,
                  uint64_t rowid) -> Status {
    GrtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    TimeExtent extent;
    GRTDB_RETURN_IF_ERROR(ExtentFromValue(keyrow.at(0), &extent));
    bool found = false;
    const uint64_t epoch_before = state->tree->condense_epoch();
    GRTDB_RETURN_IF_ERROR(state->storage->Mutate([&] {
      return state->tree->Delete(extent, rowid, BladeCurrentTime(ctx), &found);
    }));
    if (!found) {
      return Status::NotFound("index entry to delete was not found");
    }
    if (state->active_scan != nullptr) {
      // §5.5 deletion policies: restart the open scan always, or only when
      // the tree actually condensed (the cursor detects epoch changes
      // itself, so only kRestartAlways needs a push here).
      if (state->options.tree.deletion_policy ==
              DeletionPolicy::kRestartAlways &&
          epoch_before == state->tree->condense_epoch()) {
        state->active_scan->cursor->Reset();
      }
    }
    return Status::OK();
  };

  fns.update = [fns](MiCallContext& ctx, MiAmTableDesc* desc,
                     const Row& oldrow, uint64_t oldrowid, const Row& newrow,
                     uint64_t newrowid) -> Status {
    // Table 5: grt_update = grt_delete + grt_insert.
    GRTDB_RETURN_IF_ERROR(fns.remove(ctx, desc, oldrow, oldrowid));
    return fns.insert(ctx, desc, newrow, newrowid);
  };

  fns.scancost = [](MiCallContext& ctx, MiAmTableDesc* desc,
                    const MiAmQualDesc* qual, double* cost) -> Status {
    GrtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    std::vector<std::pair<PredicateOp, TimeExtent>> terms;
    GRTDB_RETURN_IF_ERROR(TranslateQual(*qual, &terms));
    if (terms.empty()) {
      return Status::InvalidArgument("empty qualification");
    }
    auto cost_or = state->tree->EstimateScanCost(terms[0].first,
                                                 terms[0].second,
                                                 BladeCurrentTime(ctx));
    if (!cost_or.ok()) return cost_or.status();
    *cost = cost_or.value();
    // A scan never reads more nodes than the tree holds; the measured count
    // from the last UPDATE STATISTICS caps the estimate.
    IndexStatsReport measured;
    if (ctx.server->GetIndexStats(desc->index->name, &measured)) {
      *cost = std::min(*cost, static_cast<double>(measured.nodes));
    }
    return Status::OK();
  };

  fns.check = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GrtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    return state->tree->CheckConsistency(BladeCurrentTime(ctx));
  };

  fns.stats = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GrtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    const int64_t ct = BladeCurrentTime(ctx);
    GRTreeStats stats;
    GRTDB_RETURN_IF_ERROR(
        state->tree->ComputeStats(ct, /*dead_space_samples=*/0, &stats));
    IndexStatsReport report;
    report.index = desc->index->name;
    report.access_method = desc->index->access_method;
    report.size = stats.size;
    report.height = stats.height;
    report.nodes = stats.nodes;
    report.free_list = state->storage->store()->FreeListLength();
    report.computed_at = ct;
    const size_t max_entries = state->tree->max_entries();
    uint64_t total_entries = 0;
    for (const GRTreeLevelStats& level : stats.levels) {
      total_entries += level.entries;
      IndexLevelStats out;
      out.level = level.level;
      out.nodes = level.nodes;
      out.entries = level.entries;
      if (level.nodes > 0 && max_entries > 0) {
        out.occupancy = static_cast<double>(level.entries) /
                        static_cast<double>(level.nodes * max_entries);
      }
      out.total_area = level.total_area;
      out.overlap_area = level.overlap_area;
      report.levels.push_back(out);
      if (level.level == 0) {
        report.entries = level.entries;
        report.dead_entries = level.dead_entries;
        report.growing_regions = level.growing_entries;
        report.growing_area = level.growing_area;
      }
    }
    if (stats.nodes > 0 && max_entries > 0) {
      report.occupancy = static_cast<double>(total_entries) /
                         static_cast<double>(stats.nodes * max_entries);
    }
    ctx.server->ReportIndexStats(report);
    ctx.server->trace().Tprintf(
        "grtree", 1, "stats %s: size=%llu height=%u nodes=%llu growing=%llu",
        desc->index->name.c_str(),
        static_cast<unsigned long long>(stats.size), stats.height,
        static_cast<unsigned long long>(stats.nodes),
        static_cast<unsigned long long>(report.growing_regions));
    return Status::OK();
  };

  return fns;
}

}  // namespace

Status RegisterGRTreeBlade(Server* server,
                           const GRTreeBladeOptions& options) {
  GRTDB_RETURN_IF_ERROR(RegisterTimeExtentType(server));
  if (server->catalog().FindAccessMethod(options.am_name) != nullptr) {
    return Status::AlreadyExists("access method '" + options.am_name + "'");
  }

  BladeFns fns = MakeBladeFns(options);
  BladeLibrary* library = server->blade_libraries().Load(kGrtBladeLibrary);
  const std::string& p = options.prefix;
  library->Export(p + "_create", std::any(AmSimpleFn(fns.create)));
  library->Export(p + "_drop", std::any(AmSimpleFn(fns.drop)));
  library->Export(p + "_open", std::any(AmSimpleFn(fns.open)));
  library->Export(p + "_close", std::any(AmSimpleFn(fns.close)));
  library->Export(p + "_beginscan", std::any(AmScanFn(fns.beginscan)));
  library->Export(p + "_endscan", std::any(AmScanFn(fns.endscan)));
  library->Export(p + "_rescan", std::any(AmScanFn(fns.rescan)));
  library->Export(p + "_getnext", std::any(AmGetNextFn(fns.getnext)));
  library->Export(p + "_insert", std::any(AmModifyFn(fns.insert)));
  library->Export(p + "_delete", std::any(AmModifyFn(fns.remove)));
  library->Export(p + "_update", std::any(AmUpdateFn(fns.update)));
  library->Export(p + "_scancost", std::any(AmScanCostFn(fns.scancost)));
  library->Export(p + "_stats", std::any(AmSimpleFn(fns.stats)));
  library->Export(p + "_check", std::any(AmSimpleFn(fns.check)));

  // Registration SQL — the script BladeManager runs (paper §4 Steps 2-4).
  // The support functions grt_union/grt_size/grt_intersection are shared
  // routines registered with the opaque type: the tree hard-codes their
  // logic internally (§5.2 decision), but they are declared in the
  // operator class exactly as the paper's CREATE OPCLASS example shows.
  auto fn = [&](const std::string& name, const std::string& args,
                const std::string& ret, const std::string& symbol) {
    return "CREATE FUNCTION " + name + "(" + args + ") RETURNING " + ret +
           " EXTERNAL NAME '" + std::string(kGrtBladeLibrary) + "(" + symbol +
           ")' LANGUAGE c;\n";
  };
  std::string script;
  script += fn(p + "_create", "pointer", "int", p + "_create");
  script += fn(p + "_drop", "pointer", "int", p + "_drop");
  script += fn(p + "_open", "pointer", "int", p + "_open");
  script += fn(p + "_close", "pointer", "int", p + "_close");
  script += fn(p + "_beginscan", "pointer", "int", p + "_beginscan");
  script += fn(p + "_endscan", "pointer", "int", p + "_endscan");
  script += fn(p + "_rescan", "pointer", "int", p + "_rescan");
  script += fn(p + "_getnext", "pointer", "int", p + "_getnext");
  script += fn(p + "_insert", "pointer", "int", p + "_insert");
  script += fn(p + "_delete", "pointer", "int", p + "_delete");
  script += fn(p + "_update", "pointer", "int", p + "_update");
  script += fn(p + "_scancost", "pointer", "float", p + "_scancost");
  script += fn(p + "_stats", "pointer", "int", p + "_stats");
  script += fn(p + "_check", "pointer", "int", p + "_check");
  script += "CREATE SECONDARY ACCESS_METHOD " + options.am_name + " (\n";
  script += "  am_create = " + p + "_create,\n";
  script += "  am_drop = " + p + "_drop,\n";
  script += "  am_open = " + p + "_open,\n";
  script += "  am_close = " + p + "_close,\n";
  script += "  am_beginscan = " + p + "_beginscan,\n";
  script += "  am_endscan = " + p + "_endscan,\n";
  script += "  am_rescan = " + p + "_rescan,\n";
  script += "  am_getnext = " + p + "_getnext,\n";
  script += "  am_insert = " + p + "_insert,\n";
  script += "  am_delete = " + p + "_delete,\n";
  script += "  am_update = " + p + "_update,\n";
  script += "  am_scancost = " + p + "_scancost,\n";
  script += "  am_stats = " + p + "_stats,\n";
  script += "  am_check = " + p + "_check,\n";
  script += "  am_sptype = 'S'\n);\n";
  script += "CREATE DEFAULT OPCLASS " + p + "_opclass FOR " +
            options.am_name +
            " STRATEGIES(Overlaps, Contains, ContainedIn, Equal)"
            " SUPPORT(grt_union, grt_size, grt_intersection);\n";

  ServerSession* session = server->CreateSession();
  ResultSet result;
  Status status = server->ExecuteScript(session, script, &result);
  Status close = server->CloseSession(session);
  if (status.ok()) status = close;
  return status;
}

}  // namespace grtdb
