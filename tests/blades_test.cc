#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "blades/grtree_blade.h"
#include "blades/rstar_blade.h"
#include "blades/timeextent.h"
#include "common/random.h"
#include "obs/fast_clock.h"
#include "obs/flight_recorder.h"
#include "server/server.h"
#include "storage/layout.h"
#include "storage/wal_store.h"
#include "workload/workload.h"

namespace grtdb {
namespace {

class BladeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterGRTreeBlade(&server_).ok());
    RStarBladeOptions rstar;
    ASSERT_TRUE(RegisterRStarBlade(&server_, rstar).ok());
    session_ = server_.CreateSession();
  }

  Status Exec(const std::string& sql) {
    return server_.Execute(session_, sql, &result_);
  }

  void MustExec(const std::string& sql) {
    Status status = Exec(sql);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  }

  std::set<std::string> Column0() {
    std::set<std::string> out;
    for (const auto& row : result_.rows) out.insert(row[0]);
    return out;
  }

  Server server_;
  ServerSession* session_ = nullptr;
  ResultSet result_;
};

TEST_F(BladeTest, OpaqueTypeTextIO) {
  MustExec("CREATE TABLE t (e grt_timeextent)");
  MustExec("INSERT INTO t VALUES ('05/01/1997, UC, 05/01/1997, NOW')");
  MustExec("SELECT e FROM t");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "05/01/1997, UC, 05/01/1997, NOW");
  // The input support function enforces the §2 constraints.
  EXPECT_TRUE(
      Exec("INSERT INTO t VALUES ('05/01/1997, UC, 06/01/1997, NOW')")
          .IsInvalidArgument());
  EXPECT_TRUE(Exec("INSERT INTO t VALUES ('garbage')").IsInvalidArgument());
}

TEST_F(BladeTest, SupportFunctionsAreSqlCallable) {
  MustExec("CREATE TABLE t (e grt_timeextent)");
  MustExec("SET CURRENT_TIME TO 10000");
  MustExec("INSERT INTO t VALUES ('9000, 9999, 9000, 9500')");
  // grt_size is a registered UDR usable in WHERE even without an index.
  MustExec("SELECT e FROM t WHERE grt_size(e) > 100.0");
  EXPECT_EQ(result_.rows.size(), 1u);
  MustExec("SELECT e FROM t WHERE grt_size(e) > 1000000.0");
  EXPECT_EQ(result_.rows.size(), 0u);
  MustExec(
      "SELECT e FROM t WHERE grt_intersection(e, '9000, 9999, 9000, 9500') "
      "> 0.0");
  EXPECT_EQ(result_.rows.size(), 1u);
}

// Table 1: the EmpDep relation, with the month granularity scaled onto day
// chronons via mm/01/1997 dates. Current time 9/97.
class EmpDepTest : public BladeTest {
 protected:
  void SetUp() override {
    BladeTest::SetUp();
    MustExec("CREATE TABLE EmpDep (Employee text, Department text, "
             "TimeExtent grt_timeextent)");
    MustExec("CREATE INDEX empdep_idx ON EmpDep(TimeExtent grt_opclass) "
             "USING grtree_am");
    // Tuples (1)-(6) of Table 1. TTbegin must equal the insertion-time
    // current time, so the clock advances as the history is recorded.
    MustExec("SET CURRENT_TIME TO '03/01/1997'");
    MustExec("INSERT INTO EmpDep VALUES ('Tom', 'Management', "
             "'03/01/1997, UC, 06/01/1997, 08/01/1997')");     // (2) at 3/97
    MustExec("INSERT INTO EmpDep VALUES ('Julie', 'Sales', "
             "'03/01/1997, UC, 03/01/1997, NOW')");             // (4) at 3/97
    MustExec("SET CURRENT_TIME TO '04/01/1997'");
    MustExec("INSERT INTO EmpDep VALUES ('John', 'Advertising', "
             "'04/01/1997, UC, 03/01/1997, 05/01/1997')");      // (1)
    MustExec("SET CURRENT_TIME TO '05/01/1997'");
    MustExec("INSERT INTO EmpDep VALUES ('Jane', 'Sales', "
             "'05/01/1997, UC, 05/01/1997, NOW')");             // (3)
    MustExec("INSERT INTO EmpDep VALUES ('Michelle', 'Management', "
             "'05/01/1997, UC, 03/01/1997, NOW')");             // (6)
    // 7/97: Tom's tuple is logically deleted; Julie's is frozen and
    // superseded (the update that led to tuples (4) and (5)).
    MustExec("SET CURRENT_TIME TO '07/01/1997'");
    MustExec("UPDATE EmpDep SET TimeExtent = "
             "'03/01/1997, 07/01/1997, 06/01/1997, 08/01/1997' "
             "WHERE Employee = 'Tom'");
    MustExec("UPDATE EmpDep SET TimeExtent = "
             "'03/01/1997, 07/01/1997, 03/01/1997, NOW' "
             "WHERE Employee = 'Julie'");
    MustExec("SET CURRENT_TIME TO '08/01/1997'");
    MustExec("INSERT INTO EmpDep VALUES ('Julie', 'Sales', "
             "'08/01/1997, UC, 03/01/1997, 07/01/1997')");      // (5)
    MustExec("SET CURRENT_TIME TO '09/01/1997'");
  }
};

TEST_F(EmpDepTest, CurrentStateQuery) {
  // Who is in the current database state and valid now?
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, '09/01/1997, UC, 09/01/1997, NOW')");
  EXPECT_EQ(Column0(), (std::set<std::string>{"Jane", "Michelle"}));
}

TEST_F(EmpDepTest, JulieQueryTable3) {
  // §5.1: "Who worked in the Sales department during 7/97 according to the
  // knowledge we had during 5/97?", issued at current time 9/97. Julie's
  // stair does NOT overlap the query point — the one-column bitemporal
  // predicate answers correctly.
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, "
           "'05/01/1997, 05/01/1997, 07/01/1997, 07/01/1997') "
           "AND Department = 'Sales'");
  EXPECT_EQ(Column0(), std::set<std::string>{});
  // The decomposed (incorrect) version would have answered Julie: her
  // transaction interval covers 5/97 and her resolved valid interval
  // covers 7/97.
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, "
           "'05/01/1997, 05/01/1997, 03/01/1997, 03/01/1997') "
           "AND Department = 'Sales'");
  EXPECT_EQ(Column0(), std::set<std::string>{"Julie"});  // sanity: stair hit
}

TEST_F(EmpDepTest, TransactionTimeTravel) {
  // What did the database believe on 4/15/1997? Tom's and Julie's first
  // versions plus John's tuple (recorded 4/97) were current then; Jane and
  // Michelle were not recorded until 5/97.
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, "
           "'04/15/1997, 04/15/1997, 01/01/1990, 01/01/2010')");
  EXPECT_EQ(Column0(), (std::set<std::string>{"Tom", "Julie", "John"}));
}

TEST_F(EmpDepTest, IndexAgreesWithSequentialScan) {
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, '06/01/1997, UC, 01/01/1997, NOW')");
  const std::set<std::string> with_index = Column0();
  MustExec("DROP INDEX empdep_idx");
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, '06/01/1997, UC, 01/01/1997, NOW')");
  EXPECT_EQ(Column0(), with_index);
}

TEST_F(EmpDepTest, CheckAndStatistics) {
  MustExec("CHECK INDEX empdep_idx");
  MustExec("SET TRACE grtree TO 2");
  MustExec("UPDATE STATISTICS FOR INDEX empdep_idx");
  const auto log = server_.trace().log();
  ASSERT_FALSE(log.empty());
  EXPECT_NE(log.back().find("stats empdep_idx"), std::string::npos);
}

// Differential test through SQL: GR-tree answers == R*-tree answers ==
// sequential-scan answers on a random evolving history.
class DifferentialTest : public BladeTest,
                         public ::testing::WithParamInterface<uint64_t> {};

TEST_P(DifferentialTest, ThreeWayAgreement) {
  MustExec("CREATE TABLE h (id int, e grt_timeextent)");
  MustExec("CREATE INDEX h_grt ON h(e grt_opclass) USING grtree_am");
  MustExec("CREATE TABLE h2 (id int, e grt_timeextent)");
  MustExec("CREATE INDEX h2_rst ON h2(e rst_opclass) USING rstar_am");
  MustExec("CREATE TABLE h3 (id int, e grt_timeextent)");

  WorkloadOptions wopts;
  wopts.seed = GetParam();
  BitemporalWorkload workload(wopts);
  int64_t last_ct = -1;
  for (int action = 0; action < 250; ++action) {
    for (const IndexOp& op : workload.NextAction()) {
      if (op.ct != last_ct) {
        MustExec("SET CURRENT_TIME TO " + std::to_string(op.ct));
        last_ct = op.ct;
      }
      const std::string extent = "'" + op.extent.ToString() + "'";
      const std::string id = std::to_string(op.payload);
      if (op.kind == IndexOp::Kind::kInsert) {
        for (const char* table : {"h", "h2", "h3"}) {
          MustExec(std::string("INSERT INTO ") + table + " VALUES (" + id +
                   ", " + extent + ")");
        }
      } else {
        for (const char* table : {"h", "h2", "h3"}) {
          MustExec(std::string("DELETE FROM ") + table + " WHERE id = " + id +
                   " AND Equal(e, " + extent + ")");
          ASSERT_EQ(result_.affected, 1u)
              << table << " id=" << id << " extent=" << extent;
        }
      }
    }
  }

  Random rng(GetParam() ^ 0xBEEF);
  for (int q = 0; q < 12; ++q) {
    TimeExtent query = workload.GroundRectQuery(150);
    const char* pred = (q % 3 == 0)   ? "Overlaps"
                       : (q % 3 == 1) ? "ContainedIn"
                                      : "Contains";
    const std::string where =
        std::string(pred) + "(e, '" + query.ToString() + "')";
    MustExec("SELECT id FROM h WHERE " + where);
    const std::set<std::string> grt = Column0();
    MustExec("SELECT id FROM h2 WHERE " + where);
    const std::set<std::string> rst = Column0();
    MustExec("SELECT id FROM h3 WHERE " + where);
    const std::set<std::string> seq = Column0();
    EXPECT_EQ(grt, seq) << pred << " '" << query.ToString() << "'";
    EXPECT_EQ(rst, seq) << pred << " '" << query.ToString() << "'";
  }
  MustExec("CHECK INDEX h_grt");
  MustExec("CHECK INDEX h2_rst");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1001, 2002));

// §5.3 storage options: the same workload runs on each layout.
class StorageVariantTest
    : public ::testing::TestWithParam<GRTreeBladeOptions::Storage> {};

TEST_P(StorageVariantTest, EndToEnd) {
  Server server;
  GRTreeBladeOptions options;
  options.storage = GetParam();
  options.nodes_per_lo = 4;
  // Per-process directory: a concurrent ctest case with the same index
  // name must not share grtree_t_idx.dat (see ObsSqlTest::SetUp).
  options.external_dir =
      ::testing::TempDir() + "blades_" + std::to_string(::getpid());
  std::filesystem::create_directories(options.external_dir);
  ASSERT_TRUE(RegisterGRTreeBlade(&server, options).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  auto exec = [&](const std::string& sql) {
    Status status = server.Execute(session, sql, &result);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  };
  exec("CREATE TABLE t (id int, e grt_timeextent)");
  exec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  exec("SET CURRENT_TIME TO 20000");
  for (int i = 0; i < 120; ++i) {
    const int64_t vt1 = 19000 + i * 7;
    exec("INSERT INTO t VALUES (" + std::to_string(i) + ", '20000, UC, " +
         std::to_string(std::min<int64_t>(vt1, 20000)) + ", NOW')");
  }
  exec("SELECT COUNT(*) FROM t WHERE Overlaps(e, '20000, UC, 19000, NOW')");
  EXPECT_EQ(result.rows[0][0], "120");
  exec("CHECK INDEX t_idx");
  exec("DELETE FROM t WHERE id < 60 AND Overlaps(e, '0, UC, 0, NOW')");
  EXPECT_EQ(result.affected, 60u);
  exec("SELECT COUNT(*) FROM t WHERE Overlaps(e, '20000, UC, 19000, NOW')");
  EXPECT_EQ(result.rows[0][0], "60");
  exec("CHECK INDEX t_idx");
  exec("DROP INDEX t_idx");
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, StorageVariantTest,
    ::testing::Values(GRTreeBladeOptions::Storage::kSingleLo,
                      GRTreeBladeOptions::Storage::kLoPerNode,
                      GRTreeBladeOptions::Storage::kLoPerSubtree,
                      GRTreeBladeOptions::Storage::kExternalFile));

// ---- index handles: one store stack per index, shared by statements ----

std::string HandleTestDir(const std::string& name) {
  // Per-process directory, as in StorageVariantTest.
  const std::string dir = ::testing::TempDir() + "handle_" + name + "_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  return dir;
}

// The kRecoveryBegin flight events recorded since `*since`; advances it.
// Called after every few statements, so the per-thread ring cannot wrap
// past an event before it is counted.
int RecoveriesSince(uint64_t* since) {
  int count = 0;
  for (const obs::FlightEventRecord& record :
       obs::FlightRecorder::Global().Dump()) {
    if (record.event == obs::FlightEvent::kRecoveryBegin &&
        record.ticks > *since) {
      ++count;
    }
  }
  *since = obs::Ticks();
  return count;
}

class IndexHandleTest
    : public ::testing::TestWithParam<GRTreeBladeOptions::Storage> {
 protected:
  void SetUp() override { Boot(&server_); }

  bool external() const {
    return GetParam() == GRTreeBladeOptions::Storage::kExternalFile;
  }

  // `max_entries` 0 keeps the tree's page-sized nodes.
  void Boot(std::unique_ptr<Server>* server, const std::string& dir = "",
            size_t max_entries = 0) {
    *server = std::make_unique<Server>();
    GRTreeBladeOptions options;
    options.storage = GetParam();
    options.nodes_per_lo = 4;
    options.tree.max_entries = max_entries;
    options.external_dir = dir.empty() ? HandleTestDir("t") : dir;
    dir_ = options.external_dir;
    ASSERT_TRUE(RegisterGRTreeBlade(server->get(), options).ok());
    session_ = (*server)->CreateSession();
  }

  void MustExec(const std::string& sql) {
    Status status = server_->Execute(session_, sql, &result_);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  }

  // `rows` current versions valid over [19000 + i, 19004 + i], ids from
  // `first_id`.
  void InsertRows(int first_id, int rows) {
    for (int i = 0; i < rows; ++i) {
      MustExec("INSERT INTO t VALUES (" + std::to_string(first_id + i) +
               ", '20000, UC, " + std::to_string(19000 + i) + ", " +
               std::to_string(19004 + i) + "')");
    }
  }

  void CreateIndexedTable(int rows) {
    MustExec("CREATE TABLE t (id int, e grt_timeextent)");
    MustExec("SET CURRENT_TIME TO 20000");
    InsertRows(0, rows);
    MustExec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  }

  uint64_t Counter(const char* name) {
    return server_->metrics().GetCounter(name)->value();
  }

  std::unique_ptr<Server> server_;
  ServerSession* session_ = nullptr;
  ResultSet result_;
  std::string dir_;
};

// The cache survives the statement: a repeated selective SELECT is served
// from the index's one NodeCache.
TEST_P(IndexHandleTest, RepeatedSelectHitsTheSharedCache) {
  CreateIndexedTable(300);
  const std::string query =
      "SELECT id FROM t WHERE Overlaps(e, '20000, 20000, 19100, 19120')";
  for (int i = 0; i < 5; ++i) MustExec(query);  // warm-up
  const uint64_t hits = Counter("cache.hits");
  const uint64_t misses = Counter("cache.misses");
  for (int i = 0; i < 50; ++i) {
    MustExec(query);
    ASSERT_EQ(result_.rows.size(), 25u);  // i in [96, 120]
  }
  const double hit = static_cast<double>(Counter("cache.hits") - hits);
  const double miss = static_cast<double>(Counter("cache.misses") - misses);
  ASSERT_GT(hit + miss, 0.0);
  EXPECT_GE(hit / (hit + miss), 0.9) << hit << " hits, " << miss << " misses";
}

// Recovery is the handle's job, done once when it is built — not on every
// am_open. A handle that outlives DROP INDEX would replay nothing, so the
// recreated index must recover once more.
TEST_P(IndexHandleTest, RecoverRunsOncePerHandle) {
  const int per_handle = external() ? 1 : 0;
  uint64_t since = obs::Ticks();
  CreateIndexedTable(40);
  int recoveries = RecoveriesSince(&since);
  for (int i = 0; i < 12; ++i) {
    InsertRows(100 + i, 1);
    MustExec("SELECT id FROM t WHERE Overlaps(e, '20000, 20000, 19000, "
             "19005')");
    recoveries += RecoveriesSince(&since);
  }
  EXPECT_EQ(recoveries, per_handle);
  MustExec("DROP INDEX t_idx");
  MustExec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  recoveries = RecoveriesSince(&since);
  for (int i = 0; i < 6; ++i) {
    MustExec("SELECT id FROM t WHERE Overlaps(e, '20000, 20000, 19000, "
             "19005')");
    recoveries += RecoveriesSince(&since);
  }
  EXPECT_EQ(recoveries, per_handle);
  MustExec("CHECK INDEX t_idx");
}

// DROP INDEX releases the handle: the index recreated under the same name
// builds a new one over its new storage, so no frame of the old tree (whose
// node ids the new tree reuses) can answer a query.
TEST_P(IndexHandleTest, DropAndRecreateGetsAFreshHandle) {
  CreateIndexedTable(60);
  const std::string query =
      "SELECT id FROM t WHERE Overlaps(e, '20000, UC, 19000, NOW')";
  MustExec(query);
  ASSERT_EQ(result_.rows.size(), 60u);
  MustExec("DROP INDEX t_idx");
  MustExec("DELETE FROM t WHERE id < 1000");
  ASSERT_EQ(result_.affected, 60u);
  InsertRows(1000, 25);
  MustExec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  MustExec(query);
  std::set<std::string> ids;
  for (const auto& row : result_.rows) ids.insert(row[0]);
  ASSERT_EQ(ids.size(), 25u);
  EXPECT_EQ(*ids.begin(), "1000");
  MustExec("CHECK INDEX t_idx");
}

// The blade WAL and the file's page accounting exist on the external file
// only.
class ExternalFileHandleTest : public IndexHandleTest {};

// A "restart": a second Server adopts the first one's external index file
// and a log holding a committed transaction the file never saw. The first
// open of the index replays it.
TEST_P(ExternalFileHandleTest, SecondServerReplaysACommittedFrameOnFirstOpen) {
  CreateIndexedTable(120);
  MustExec("SELECT COUNT(*) FROM t WHERE Overlaps(e, '20000, UC, 19000, "
           "NOW')");
  ASSERT_EQ(result_.rows[0][0], "120");
  std::vector<uint8_t> record;
  ASSERT_TRUE(server_->AmCatalogGet("grtree_am", "t_idx", &record).ok());
  const NodeId anchor = LoadU64(record.data() + 1);
  const std::string data_path = dir_ + "/grtree_t_idx.dat";
  server_.reset();  // releases the handle: file complete, log empty
  ASSERT_EQ(std::filesystem::file_size(data_path + ".wal"), 0u);

  // The committed-but-unapplied transaction: every tree node's image in
  // the log, every tree node zeroed in the file.
  const uint64_t pages = std::filesystem::file_size(data_path) / kPageSize;
  std::vector<uint8_t> payload = {wal::kRecBegin};
  {
    std::fstream file(data_path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    std::vector<char> image(kPageSize);
    const std::vector<char> zeros(kPageSize, 0);
    for (NodeId page = 0; page < pages; ++page) {
      if (page == anchor) continue;
      file.seekg(static_cast<std::streamoff>(page * kPageSize));
      file.read(image.data(), kPageSize);
      payload.push_back(wal::kRecWrite);
      uint8_t id[8];
      StoreU64(id, page);
      payload.insert(payload.end(), id, id + 8);
      payload.insert(payload.end(), image.begin(), image.end());
      file.seekp(static_cast<std::streamoff>(page * kPageSize));
      file.write(zeros.data(), kPageSize);
    }
  }
  payload.push_back(wal::kRecCommit);
  {
    uint8_t header[wal::kFrameHeaderSize];
    StoreU32(header, static_cast<uint32_t>(payload.size()));
    StoreU32(header + 4, Crc32(payload.data(), payload.size()));
    std::ofstream log(data_path + ".wal", std::ios::binary | std::ios::app);
    log.write(reinterpret_cast<const char*>(header), sizeof(header));
    log.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  }

  // The second server holds the same rows (same heap row ids); its own
  // CREATE INDEX builds elsewhere, then its catalog record is pointed at
  // the first server's file.
  const std::string first_dir = dir_;
  Boot(&server_, HandleTestDir("second"));
  CreateIndexedTable(120);
  ASSERT_TRUE(server_->AmCatalogPut("grtree_am", "t_idx", record).ok());
  uint64_t since = obs::Ticks();
  MustExec("SELECT COUNT(*) FROM t WHERE Overlaps(e, '20000, UC, 19000, "
           "NOW')");
  EXPECT_EQ(result_.rows[0][0], "120");
  bool replayed = false;
  for (const obs::FlightEventRecord& event :
       obs::FlightRecorder::Global().Dump()) {
    if (event.event == obs::FlightEvent::kRecoveryEnd && event.ticks > since) {
      EXPECT_EQ(event.a, 1u) << "transactions replayed";
      replayed = true;
    }
  }
  EXPECT_TRUE(replayed);
  MustExec("CHECK INDEX t_idx");
  MustExec("DROP INDEX t_idx");
  std::filesystem::remove_all(first_dir);
}

// Freed pages go back to the handle's free list and the next statement's
// splits take them, so an update loop on the external file leaks no page:
// the file holds the tree's nodes, the anchor and the free list.
TEST_P(ExternalFileHandleTest, UpdateLoopReusesFreedPages) {
  // Many small nodes: the updates split and condense all the time.
  Boot(&server_, HandleTestDir("update"), /*max_entries=*/4);
  CreateIndexedTable(64);
  Random rng(7);
  for (int i = 0; i < 300; ++i) {
    const int id = static_cast<int>(rng.Uniform(64));
    MustExec("UPDATE t SET e = '20000, UC, " +
             std::to_string(19000 + rng.Uniform(400)) + ", NOW' WHERE id = " +
             std::to_string(id));
    ASSERT_EQ(result_.affected, 1u);
  }
  MustExec("CHECK INDEX t_idx");
  MustExec("UPDATE STATISTICS FOR INDEX t_idx");
  MustExec("SELECT nodes, free_list FROM sys_index_stats WHERE idxname = "
           "'t_idx' AND level = 'all'");
  ASSERT_EQ(result_.rows.size(), 1u);
  const uint64_t nodes = std::stoull(result_.rows[0][0]);
  const uint64_t free_list = std::stoull(result_.rows[0][1]);
  const uint64_t pages =
      std::filesystem::file_size(dir_ + "/grtree_t_idx.dat") / kPageSize;
  EXPECT_EQ(pages, nodes + 1 + free_list)
      << nodes << " nodes, " << free_list << " free";
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, IndexHandleTest,
    ::testing::Values(GRTreeBladeOptions::Storage::kSingleLo,
                      GRTreeBladeOptions::Storage::kLoPerNode,
                      GRTreeBladeOptions::Storage::kLoPerSubtree,
                      GRTreeBladeOptions::Storage::kExternalFile));
INSTANTIATE_TEST_SUITE_P(
    ExternalFile, ExternalFileHandleTest,
    ::testing::Values(GRTreeBladeOptions::Storage::kExternalFile));

// The shared handle needs its cache: it latches the base store against
// concurrent sessions, so a cacheless index is refused.
TEST(IndexHandleCache, ZeroPagesIsRejected) {
  Server server;
  GRTreeBladeOptions options;
  options.node_cache_pages = 0;
  ASSERT_TRUE(RegisterGRTreeBlade(&server, options).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  ASSERT_TRUE(server
                  .Execute(session,
                           "CREATE TABLE t (id int, e grt_timeextent)",
                           &result)
                  .ok());
  Status status = server.Execute(
      session, "CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am",
      &result);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

// Sessions share the index's handle: 3 readers query while 1 writer inserts
// and deletes, on the single-LO layout (LO locks above the shared cache)
// and on the external file (the shared WAL). The small tree and cache keep
// splits, condenses and evictions going under the readers. Afterwards the
// index agrees with an unindexed copy of the table and CHECK INDEX passes.
class SharedHandleConcurrencyTest
    : public ::testing::TestWithParam<GRTreeBladeOptions::Storage> {};

TEST_P(SharedHandleConcurrencyTest, ReadersAndAWriterMatchASequentialScan) {
  ServerOptions server_options;
  server_options.lock_timeout = std::chrono::milliseconds(20000);
  Server server(server_options);
  GRTreeBladeOptions options;
  options.storage = GetParam();
  options.external_dir = HandleTestDir("concurrent");
  options.tree.max_entries = 8;
  options.node_cache_pages = 16;
  ASSERT_TRUE(RegisterGRTreeBlade(&server, options).ok());

  std::mutex errors_mu;
  std::vector<std::string> errors;
  auto exec = [&](ServerSession* session, const std::string& sql,
                  ResultSet* out) {
    Status status = server.Execute(session, sql, out);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(errors_mu);
      errors.push_back(sql + " -> " + status.ToString());
    }
    return status.ok();
  };
  auto row = [](int id) {
    return "(" + std::to_string(id) + ", '20000, UC, " +
           std::to_string(19000 + id % 300) + ", " +
           std::to_string(19010 + id % 300) + "')";
  };
  ServerSession* admin = server.CreateSession();
  ResultSet result;
  for (const char* sql :
       {"CREATE TABLE t (id int, e grt_timeextent)",
        "CREATE TABLE seq (id int, e grt_timeextent)",
        "CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am",
        "SET CURRENT_TIME TO 20000"}) {
    ASSERT_TRUE(exec(admin, sql, &result));
  }
  for (int id = 0; id < 120; ++id) {
    ASSERT_TRUE(exec(admin, "INSERT INTO t VALUES " + row(id), &result));
    ASSERT_TRUE(exec(admin, "INSERT INTO seq VALUES " + row(id), &result));
  }

  std::vector<std::thread> threads;
  ServerSession* writer = server.CreateSession();
  threads.emplace_back([&, writer] {
    ResultSet out;
    Random rng(11);
    for (int i = 0; i < 150; ++i) {
      const int id = 120 + i;
      exec(writer, "INSERT INTO t VALUES " + row(id), &out);
      exec(writer, "INSERT INTO seq VALUES " + row(id), &out);
      if (i % 2 == 0) {
        const std::string victim = std::to_string(rng.Uniform(id));
        exec(writer, "DELETE FROM t WHERE id = " + victim, &out);
        exec(writer, "DELETE FROM seq WHERE id = " + victim, &out);
      }
    }
  });
  for (int r = 0; r < 3; ++r) {
    ServerSession* reader = server.CreateSession();
    threads.emplace_back([&, reader, r] {
      ResultSet out;
      for (int i = 0; i < 150; ++i) {
        const int v = 19000 + (i * 7 + r * 50) % 300;
        exec(reader,
             "SELECT id FROM t WHERE Overlaps(e, '20000, 20000, " +
                 std::to_string(v) + ", " + std::to_string(v + 3) + "')",
             &out);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(errors.empty()) << errors.front();

  auto ids = [&](const std::string& table, const std::string& where) {
    std::set<std::string> out;
    EXPECT_TRUE(exec(admin, "SELECT id FROM " + table + " WHERE " + where,
                     &result));
    for (const auto& r : result.rows) out.insert(r[0]);
    return out;
  };
  for (int v = 18990; v < 19320; v += 11) {
    const std::string where = "Overlaps(e, '20000, 20000, " +
                              std::to_string(v) + ", " +
                              std::to_string(v + 5) + "')";
    EXPECT_EQ(ids("t", where), ids("seq", where)) << where;
  }
  EXPECT_TRUE(exec(admin, "CHECK INDEX t_idx", &result));
  EXPECT_TRUE(exec(admin, "DROP INDEX t_idx", &result));
  ASSERT_TRUE(errors.empty()) << errors.front();
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SharedHandleConcurrencyTest,
    ::testing::Values(GRTreeBladeOptions::Storage::kSingleLo,
                      GRTreeBladeOptions::Storage::kExternalFile));

// §5.2: dynamic strategy-function dispatch returns the same answers as the
// hard-coded prototype.
TEST(DynamicDispatch, SameAnswersAsHardCoded) {
  Server server;
  GRTreeBladeOptions dynamic_options;
  dynamic_options.dynamic_dispatch = true;
  ASSERT_TRUE(RegisterGRTreeBlade(&server, dynamic_options).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  auto exec = [&](const std::string& sql) {
    Status status = server.Execute(session, sql, &result);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  };
  exec("CREATE TABLE t (id int, e grt_timeextent)");
  exec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  exec("SET CURRENT_TIME TO 20000");
  for (int i = 0; i < 60; ++i) {
    exec("INSERT INTO t VALUES (" + std::to_string(i) + ", '20000, UC, " +
         std::to_string(19900 + i) + ", NOW')");
  }
  exec("SELECT COUNT(*) FROM t WHERE "
       "Overlaps(e, '20000, 20000, 19950, 19950')");
  EXPECT_EQ(result.rows[0][0], "51");  // vt1 in [19900, 19950]
}

// §5.4: per-transaction current time is captured once per transaction in
// named memory and released by the transaction-end callback.
TEST(CurrentTimeMode, TransactionModeFreezesTime) {
  Server server;
  ASSERT_TRUE(RegisterGRTreeBlade(&server).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  auto exec = [&](const std::string& sql) {
    Status status = server.Execute(session, sql, &result);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  };
  exec("CREATE TABLE t (e grt_timeextent)");
  exec("SET CURRENT_TIME TO 10000");
  exec("INSERT INTO t VALUES ('10000, UC, 10000, NOW')");

  // Statement mode: the growing stair reaches (10050, 10050) once the
  // clock moves there.
  exec("SET CURRENT_TIME TO 10050");
  exec("SELECT COUNT(*) FROM t WHERE "
       "Overlaps(e, '10050, 10050, 10050, 10050')");
  EXPECT_EQ(result.rows[0][0], "1");

  // Transaction mode: the first statement of the transaction pins the
  // current time; later clock movement is invisible until COMMIT.
  exec("SET TIME MODE TRANSACTION");
  exec("BEGIN WORK");
  exec("SELECT COUNT(*) FROM t WHERE "
       "Overlaps(e, '10050, 10050, 10050, 10050')");
  EXPECT_EQ(result.rows[0][0], "1");
  EXPECT_EQ(server.named_memory().count(), 1u);  // pinned time lives
  exec("SET CURRENT_TIME TO 10100");
  exec("SELECT COUNT(*) FROM t WHERE "
       "Overlaps(e, '10100, 10100, 10100, 10100')");
  EXPECT_EQ(result.rows[0][0], "0");  // still evaluated at 10050
  exec("COMMIT WORK");
  EXPECT_EQ(server.named_memory().count(), 0u);  // callback freed it
  exec("BEGIN WORK");
  exec("SELECT COUNT(*) FROM t WHERE "
       "Overlaps(e, '10100, 10100, 10100, 10100')");
  EXPECT_EQ(result.rows[0][0], "1");  // new transaction sees the new time
  exec("COMMIT WORK");
}

// The maximum-timestamp transform (baseline) in isolation.
TEST(MaxTimestampTransform, CoversTrueRegions) {
  TimeExtent stair(Timestamp::FromChronon(100), Timestamp::UC(),
                   Timestamp::FromChronon(80), Timestamp::NOW());
  const Rect rect = TransformExtent(stair, 5000);
  EXPECT_EQ(rect.x1, 100);
  EXPECT_EQ(rect.x2, 5000);
  EXPECT_EQ(rect.y1, 80);
  EXPECT_EQ(rect.y2, 5000);
  TimeExtent ground = TimeExtent::Ground(100, 200, 80, 90);
  const Rect grect = TransformExtent(ground, 5000);
  EXPECT_EQ(grect.x2, 200);
  EXPECT_EQ(grect.y2, 90);
}

}  // namespace
}  // namespace grtdb
