// grtdb_perfbench: the repository benchmark. One process boots a Server
// with the GR-tree DataBlade behind a NetServer on loopback, loads a
// seeded bitemporal relation with LOAD + CREATE INDEX, then drives one of
// three workloads with closed-loop NetClient connections for a fixed time,
// checks every answer and the end state against an independent model, and
// prints one JSON line of metrics. Usage:
//   grtdb_perfbench --workload scan_hot|write_txn|mixed_concurrent
//                   --seed N --seconds S --trace 0|1 --dir DIR
// --trace 0 runs with all tracing off and reports the end-to-end metrics;
// --trace 1 traces every request and reports the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "blades/grtree_blade.h"
#include "calibrate.h"
#include "layers.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "reference.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using grtdb::ResultSet;
using grtdb::Status;
using Storage = grtdb::GRTreeBladeOptions::Storage;

// Process start, as near as the program can take it: set during static
// initialization, before main runs.
const Clock::time_point g_process_start = Clock::now();

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ------------------------------------------------------------- the runs --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  bool describe = false;
};

// A workload: the table's storage layout, the relation it preloads, the
// queries it asks, and how many closed-loop clients drive it.
struct Spec {
  std::string name;
  Storage storage = Storage::kSingleLo;
  HistoryShape history;
  QueryShape queries;
  int clients = 1;
  // SELECTs go through a prepared statement (else as SQL text).
  bool prepared = false;
  // write_txn: inserts of new current versions per transaction. It makes
  // no logical updates: on the external-file layout a node that one
  // UPDATE frees and reallocates is freed again by the WAL replay of the
  // next index open, so later splits overwrite a live node and some seeds
  // lose index entries.
  int txn_inserts = 20;
  // mixed_concurrent: percent of operations that are SELECTs; the rest
  // are logical updates. Client 0 advances the current time every
  // tick_ops of its operations.
  int select_pct = 89;
  int tick_ops = 64;
};

bool MakeSpec(const std::string& name, Spec* spec) {
  spec->name = name;
  if (name == "scan_hot") {
    spec->storage = Storage::kSingleLo;
    spec->history.rows = 20000;
    spec->prepared = true;
    return true;
  }
  if (name == "write_txn") {
    spec->storage = Storage::kExternalFile;
    spec->history.rows = 5000;
    return true;
  }
  if (name == "mixed_concurrent") {
    spec->storage = Storage::kSingleLo;
    spec->history.rows = 45000;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    spec->clients = static_cast<int>(std::min(3u, cores));
    return true;
  }
  return false;
}

enum class Kind : uint8_t { kSelect, kWrite, kControl };

// One SELECT's answer as its row count and the digest of its ids, kept
// for the check after the run with what the reference needs to know.
struct SelectRecord {
  Extent query;
  // The server's current time when the SELECT ran lies in [ct_lo, ct_hi].
  int64_t ct_lo = 0;
  int64_t ct_hi = 0;
  uint64_t acked_before = 0;
  uint64_t sent_before_reply = 0;
  uint32_t count = 0;
  uint64_t digest = 0;
};

// The reference answer to a SELECT, as (row count, digest of the ids).
struct Answer {
  uint32_t count = 0;
  uint64_t digest = 0;
  bool operator==(const Answer&) const = default;
};

// One traced request: its trace id, kind, round trip and reply size.
struct Call {
  uint64_t trace_id = 0;
  Kind kind = Kind::kControl;
  double us = 0;
  uint32_t reply_bytes = 0;
};

struct ClientLog {
  // Completion times (seconds into the timed phase) of every request and,
  // in step with select_us, of every SELECT.
  std::vector<float> done_s;
  std::vector<float> select_done_s;
  std::vector<double> select_us;
  std::vector<double> write_us;
  std::vector<double> txn_us;
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t txns = 0;
  uint64_t rows_written = 0;
  uint64_t rows_returned = 0;
  // SELECTs recorded for CheckSelects; on scan_hot, which neither writes
  // nor moves the clock, each SELECT is instead compared as it runs with
  // the reference's answer computed before the run.
  std::vector<SelectRecord> selects;
  uint64_t checked_at_once = 0;
  uint64_t wrong_answers = 0;
  std::string first_wrong;
  std::vector<Call> calls;
  Clock::time_point last_done;
};

// Counter and gauge values of the metrics registry by name.
using MetricMap = std::map<std::string, double>;

MetricMap ReadMetrics(grtdb::Server& server) {
  MetricMap out;
  for (const grtdb::obs::MetricSample& s : server.metrics().Snapshot()) {
    out[s.name] = static_cast<double>(s.value);
  }
  return out;
}

double Delta(const MetricMap& before, const MetricMap& after,
             const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

// Timings are taken per half-second window of the timed phase, each scaled
// by how much slower than the reference the calibration kernel ran in that
// window (calibrate.h), and the run reports the median over the windows.
// slowdown(w, n) is that factor for window w of n.
using SlowdownFn = std::function<double(int, int)>;

// Windows of half a second, or fewer and longer ones when a percentile
// needs at least `min_samples` samples in each.
int Windows(double seconds, size_t samples, size_t min_samples) {
  const size_t by_time = static_cast<size_t>(std::max(1.0, 2 * seconds));
  const size_t by_samples = std::max<size_t>(1, samples / min_samples);
  return static_cast<int>(std::min(by_time, by_samples));
}

// Requests completed per second: in each window, the completions after
// its first one over the time from the first to the last.
double WindowedRate(const std::vector<float>& done_s, double seconds,
                    const SlowdownFn& slowdown) {
  const int n = Windows(seconds, done_s.size(), 2);
  std::vector<double> first(n, seconds), last(n, 0), count(n, 0);
  const double width = seconds / n;
  for (float t : done_s) {
    const int w = static_cast<int>(t / width);
    if (w < 0 || w >= n) continue;
    first[w] = std::min<double>(first[w], t);
    last[w] = std::max<double>(last[w], t);
    count[w] += 1;
  }
  std::vector<double> rates;
  for (int w = 0; w < n; ++w) {
    if (count[w] < 2 || last[w] <= first[w]) continue;
    rates.push_back((count[w] - 1) / (last[w] - first[w]) * slowdown(w, n));
  }
  return Percentile(rates, 0.5);
}

// The p-th latency percentile.
double WindowedPercentile(const std::vector<float>& done_s,
                          const std::vector<double>& us, double seconds,
                          double p, const SlowdownFn& slowdown) {
  const size_t min_samples = static_cast<size_t>(std::ceil(5 / (1 - p)));
  const int n = Windows(seconds, us.size(), min_samples);
  std::vector<std::vector<double>> windows(n);
  const double width = seconds / n;
  for (size_t i = 0; i < us.size(); ++i) {
    const int w = static_cast<int>(done_s[i] / width);
    if (w >= 0 && w < n) windows[w].push_back(us[i]);
  }
  std::vector<double> per_window;
  for (int w = 0; w < n; ++w) {
    if (windows[w].empty()) continue;
    per_window.push_back(Percentile(std::move(windows[w]), p) /
                         slowdown(w, n));
  }
  return Percentile(per_window, 0.5);
}

class Bench {
 public:
  Bench(const Args& args, const Spec& spec, const Calibrator* calibrator)
      : args_(args), spec_(spec), rng_(args.seed), calibrator_(calibrator) {}

  // Returns false when the benchmark could not run at all.
  bool Run();
  // Prints the make-up of the workload's generated inputs.
  void Describe();

 private:
  // ---- setup, run, check -------------------------------------------------
  bool Setup();
  void RunPhase(bool timed);
  void ClientLoop(int index, bool timed, Clock::time_point deadline,
                  int warmup_ops);
  void CheckSelects();
  void CheckEndState();
  void ProfilePass();
  void Report();
  void Fail(const std::string& what);

  // ---- one client's requests ----------------------------------------------
  struct Conn {
    grtdb::net::NetClient net;
    ClientLog* log = nullptr;
    bool timed = false;
    uint64_t next_trace = 0;
    Rng rng{0};
    // The client's rows with TTend = UC, which it alone may freeze.
    std::vector<std::pair<uint64_t, Extent>> current;
  };
  bool Request(Conn& c, Kind kind, ResultSet* rs, double* us,
               const std::function<Status(ResultSet*)>& send);
  bool Exec(Conn& c, Kind kind, const std::string& sql, ResultSet* rs,
            double* us = nullptr);
  void DoSelect(Conn& c, const Extent& query,
                const Answer* expected = nullptr);
  void DoInsert(Conn& c);
  void DoUpdate(Conn& c, size_t pick);
  int PickUpdatable(Conn& c);
  void Tick(Conn& c);
  void DoTxn(Conn& c);
  Extent HotQuery(Rng& rng) const;
  Extent UniformQuery(Rng& rng) const;

  std::string IndexFile() const {
    return dir_ + "/grtree_hist_e.dat";
  }
  uint64_t IndexBytes();
  bool IndexNodes(uint64_t* nodes);

  Args args_;
  Spec spec_;
  Rng rng_;
  const Calibrator* calibrator_;
  std::string dir_;
  std::unique_ptr<grtdb::Server> server_;
  std::unique_ptr<grtdb::net::NetServer> net_;
  std::unique_ptr<Conn> admin_;
  Model model_;
  // The server's current time: SET CURRENT_TIME to clock_pending_ is sent
  // after clock_pending_ is raised and clock_done_ follows once it is
  // acknowledged, so a request sent and answered while both read the same
  // value ran at exactly that time.
  std::atomic<int64_t> clock_pending_{0};
  std::atomic<int64_t> clock_done_{0};
  std::vector<Extent> hot_pool_;
  // The reference's answers to hot_pool_ (scan_hot: no writes, no ticks).
  std::vector<Answer> hot_answers_;
  std::vector<ClientLog> logs_;
  std::vector<std::unique_ptr<Conn>> conns_;

  double setup_s_ = 0;
  double setup_slowdown_ = 1;
  // The process's peak resident set at the end of the timed phase.
  double peak_rss_mb_ = 0;
  double phase_s_ = 0;
  Clock::time_point phase_start_;
  MetricMap before_;
  MetricMap after_;
  SpanLedger ledger_;
  // Profile-pass sums over the probe SELECTs and writes.
  struct ProfileSums {
    double statements = 0, node_reads = 0, cache_hits = 0;
    double rows_scanned = 0, rows_returned = 0;
  } profile_select_, profile_write_;
  uint64_t index_bytes_ = 0;
  uint64_t index_rows_ = 0;
  bool correct_ = true;
  int failures_reported_ = 0;
};

void Bench::Fail(const std::string& what) {
  correct_ = false;
  if (failures_reported_++ < 20) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

bool Bench::Request(Conn& c, Kind kind, ResultSet* rs, double* us,
                    const std::function<Status(ResultSet*)>& send) {
  uint64_t trace_id = 0;
  if (c.timed && args_.trace) trace_id = ++c.next_trace;
  c.net.set_trace_id(trace_id);
  const Clock::time_point start = Clock::now();
  const Status status = send(rs);
  const Clock::time_point end = Clock::now();
  const double elapsed = std::chrono::duration<double, std::micro>(end - start).count();
  if (us != nullptr) *us = elapsed;
  if (c.timed) {
    ++c.log->requests;
    c.log->last_done = end;
    c.log->done_s.push_back(
        std::chrono::duration<float>(end - phase_start_).count());
    if (!status.ok()) ++c.log->failed;
    if (trace_id != 0) {
      Call call;
      call.trace_id = trace_id;
      call.kind = kind;
      call.us = elapsed;
      if (kind == Kind::kSelect) {
        grtdb::net::Response response;
        response.status = status;
        response.result = *rs;
        call.reply_bytes = static_cast<uint32_t>(
            4 + grtdb::net::EncodeResponse(response).size());
      }
      c.log->calls.push_back(call);
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: request failed: %s\n",
                 status.ToString().c_str());
  }
  return status.ok();
}

bool Bench::Exec(Conn& c, Kind kind, const std::string& sql, ResultSet* rs,
                 double* us) {
  return Request(c, kind, rs, us, [&](ResultSet* out) {
    return c.net.Execute(sql, out);
  });
}

// Sends one SELECT. With `expected` its answer is checked at once;
// otherwise it is recorded for CheckSelects.
void Bench::DoSelect(Conn& c, const Extent& query, const Answer* expected) {
  SelectRecord rec;
  rec.query = query;
  rec.ct_lo = clock_done_.load();
  rec.acked_before = model_.acked();
  ResultSet rs;
  double us = 0;
  bool ok;
  if (spec_.prepared) {
    grtdb::sql::Literal param;
    param.kind = grtdb::sql::Literal::Kind::kString;
    param.text = FormatExtent(query);
    ok = Request(c, Kind::kSelect, &rs, &us, [&](ResultSet* out) {
      return c.net.ExecutePrepared("sel", {param}, out);
    });
  } else {
    ok = Exec(c, Kind::kSelect,
              "SELECT id, e FROM hist WHERE Overlaps(e, '" +
                  FormatExtent(query) + "')",
              &rs, &us);
  }
  rec.sent_before_reply = model_.sent();
  rec.ct_hi = clock_pending_.load();
  if (!ok) return;
  for (const std::vector<std::string>& row : rs.rows) {
    ++rec.count;
    rec.digest += IdDigest(std::strtoull(row[0].c_str(), nullptr, 10));
  }
  if (c.timed) {
    c.log->select_done_s.push_back(c.log->done_s.back());
    c.log->select_us.push_back(us);
    c.log->rows_returned += rec.count;
  }
  if (expected == nullptr) {
    c.log->selects.push_back(rec);
    return;
  }
  ++c.log->checked_at_once;
  if (Answer{rec.count, rec.digest} != *expected &&
      c.log->wrong_answers++ == 0) {
    c.log->first_wrong = "SELECT Overlaps(e, '" + FormatExtent(query) +
                         "'): returned " + std::to_string(rec.count) +
                         " rows, the reference " +
                         std::to_string(expected->count);
  }
}

// Inserts a new current version (TTbegin = now).
void Bench::DoInsert(Conn& c) {
  const Extent extent = NewVersion(c.rng, spec_.history, clock_done_.load());
  const uint64_t id = model_.BeginInsert(extent);
  ResultSet rs;
  double us = 0;
  if (!Exec(c, Kind::kWrite,
            "INSERT INTO hist VALUES (" + std::to_string(id) + ", '" +
                FormatExtent(extent) + "')",
            &rs, &us)) {
    return;
  }
  model_.AckInsert(id);
  c.current.emplace_back(id, extent);
  if (c.timed) {
    c.log->write_us.push_back(us);
    ++c.log->rows_written;
  }
}

// A logical update (§2) of the client's current row c.current[pick]:
// UPDATE freezes it at now - 1, then its successor is inserted at now.
void Bench::DoUpdate(Conn& c, size_t pick) {
  const uint64_t id = c.current[pick].first;
  Extent frozen = c.current[pick].second;
  frozen.tt_end = clock_done_.load() - 1;
  c.current[pick] = c.current.back();
  c.current.pop_back();
  model_.BeginFreeze(id, frozen.tt_end);
  ResultSet rs;
  double us = 0;
  if (Exec(c, Kind::kWrite,
           "UPDATE hist SET e = '" + FormatExtent(frozen) + "' WHERE id = " +
               std::to_string(id),
           &rs, &us)) {
    if (rs.affected != 1) {
      Fail("UPDATE of row " + std::to_string(id) + " changed " +
           std::to_string(rs.affected) + " rows");
    } else {
      model_.AckFreeze(id);
      if (c.timed) {
        c.log->write_us.push_back(us);
        ++c.log->rows_written;
      }
    }
  }
  DoInsert(c);
}

// A random current row of the client that began before now (a version
// inserted at now cannot be frozen at now - 1), or -1 after a few misses.
int Bench::PickUpdatable(Conn& c) {
  const int64_t now = clock_done_.load();
  for (int attempt = 0; attempt < 4 && !c.current.empty(); ++attempt) {
    const size_t pick = c.rng.Range(0, c.current.size() - 1);
    if (c.current[pick].second.tt_begin < now) return static_cast<int>(pick);
  }
  return -1;
}

// Advances the server's current time by one day.
void Bench::Tick(Conn& c) {
  const int64_t next = clock_pending_.load() + 1;
  clock_pending_.store(next);
  ResultSet rs;
  if (Exec(c, Kind::kControl, "SET CURRENT_TIME TO " + std::to_string(next),
           &rs)) {
    clock_done_.store(next);
  }
}

// A recent query: a time slice or a current-state stair near now.
Extent Bench::HotQuery(Rng& rng) const {
  const int64_t now = clock_done_.load();
  if (rng.Chance(0.5)) {
    return TimeSliceQuery(rng, spec_.queries,
                          now - rng.Range(1, 3 * spec_.queries.recent_days));
  }
  return CurrentStairQuery(rng, spec_.queries, now);
}

// A query anywhere in the history: a time slice or a frozen stair.
Extent Bench::UniformQuery(Rng& rng) const {
  const int64_t tt = rng.Range(spec_.history.start, clock_done_.load() - 1);
  return rng.Chance(0.5) ? TimeSliceQuery(rng, spec_.queries, tt)
                         : FrozenStairQuery(rng, spec_.queries, tt);
}

// One write_txn transaction: advance the clock, BEGIN, read a time slice
// of the preloaded history, insert txn_inserts new current versions,
// COMMIT.
void Bench::DoTxn(Conn& c) {
  Tick(c);
  ResultSet rs;
  const Clock::time_point begin = Clock::now();
  Exec(c, Kind::kControl, "BEGIN WORK", &rs);
  DoSelect(c, TimeSliceQuery(c.rng, spec_.queries,
                             model_.ct() - c.rng.Range(1, 200)));
  for (int i = 0; i < spec_.txn_inserts; ++i) DoInsert(c);
  Exec(c, Kind::kControl, "COMMIT WORK", &rs);
  if (c.timed) {
    c.log->txn_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - begin)
            .count());
    ++c.log->txns;
  }
}

void Bench::ClientLoop(int index, bool timed, Clock::time_point deadline,
                       int warmup_ops) {
  Conn& c = *conns_[index];
  c.timed = timed;
  c.log = &logs_[index];
  int done = 0;
  auto more = [&] {
    return timed ? Clock::now() < deadline : done < warmup_ops;
  };
  while (more()) {
    ++done;
    if (spec_.name == "scan_hot") {
      const size_t pick = c.rng.Range(0, hot_pool_.size() - 1);
      DoSelect(c, hot_pool_[pick], &hot_answers_[pick]);
    } else if (spec_.name == "write_txn") {
      DoTxn(c);
    } else {
      if (index == 0 && done % spec_.tick_ops == 0) Tick(c);
      const int pick = c.rng.Range(0, 99) < spec_.select_pct
                           ? -1
                           : PickUpdatable(c);
      if (pick >= 0) {
        DoUpdate(c, static_cast<size_t>(pick));
      } else {
        DoSelect(c, UniformQuery(c.rng));
      }
    }
  }
}

bool Bench::Setup() {
  dir_ = std::filesystem::absolute(args_.dir).string();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir_.c_str());
    return false;
  }
  model_.Generate(rng_, spec_.history);
  clock_pending_ = clock_done_ = model_.ct();
  const std::string load_path = dir_ + "/hist.unl";
  {
    std::ofstream out(load_path);
    out << model_.LoadFile();
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", load_path.c_str());
      return false;
    }
  }
  const double inputs_s = SecondsSince(g_process_start);

  // Blade defaults (64-frame node cache, 512-page pool, 500 ms lock
  // timeout); only the layout and where an external file lives are set.
  grtdb::ServerOptions options;
  // The drain thread copies the whole ring every 50 ms, so the ring is
  // sized to hold several times what a run admits in that time and no
  // more: copying a larger one would slow the traced run for nothing.
  if (args_.trace) options.span_capacity = 1u << 16;
  server_ = std::make_unique<grtdb::Server>(options);
  grtdb::GRTreeBladeOptions blade;
  blade.storage = spec_.storage;
  blade.external_dir = dir_;
  Status status = grtdb::RegisterGRTreeBlade(server_.get(), blade);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: blade: %s\n", status.ToString().c_str());
    return false;
  }
  grtdb::net::NetServerOptions net_options;
  net_options.num_workers = spec_.clients + 1;
  net_ = std::make_unique<grtdb::net::NetServer>(server_.get(), net_options);
  status = net_->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: listen: %s\n", status.ToString().c_str());
    return false;
  }
  admin_ = std::make_unique<Conn>();
  status = admin_->net.Connect("127.0.0.1", net_->port());
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: connect: %s\n", status.ToString().c_str());
    return false;
  }
  ResultSet rs;
  const double boot_s = SecondsSince(g_process_start);
  double load_s = 0;
  for (const std::string& sql :
       {std::string("SET TRACE_SAMPLE TO 0"), std::string("SET HEAT_TRACK TO 0"),
        std::string("SET SLOW_QUERY_NS TO 0"),
        std::string("CREATE TABLE hist (id int, e grt_timeextent)"),
        "SET CURRENT_TIME TO " + std::to_string(model_.ct()),
        "LOAD FROM '" + load_path + "' INSERT INTO hist",
        std::string("CREATE INDEX hist_e ON hist(e grt_opclass) USING "
                    "grtree_am")}) {
    if (!Exec(*admin_, Kind::kControl, sql, &rs)) {
      std::fprintf(stderr, "perfbench: setup failed at: %s\n", sql.c_str());
      return false;
    }
    if (sql.rfind("LOAD", 0) == 0) load_s = SecondsSince(g_process_start);
  }
  setup_s_ = SecondsSince(g_process_start);
  setup_slowdown_ = calibrator_->Slowdown(g_process_start, Clock::now());
  std::fprintf(stderr,
               "perfbench: set-up %.3f s: inputs generated and written "
               "%.3f, server up %.3f, LOAD %.3f, CREATE INDEX %.3f\n",
               setup_s_, inputs_s, boot_s - inputs_s, load_s - boot_s,
               setup_s_ - load_s);
  std::filesystem::remove(load_path, ec);
  // Statistics after the bulk load, as an administrator would gather them.
  // Nothing has been freed yet, so an external index file holds exactly
  // the tree's nodes and its anchor page.
  uint64_t nodes = 0;
  if (!IndexNodes(&nodes)) return false;
  if (spec_.storage == Storage::kExternalFile &&
      IndexBytes() != (nodes + 1) * grtdb::kPageSize) {
    Fail("after set-up the index file holds " + std::to_string(IndexBytes()) +
         " bytes for " + std::to_string(nodes) + " nodes + anchor of " +
         std::to_string(grtdb::kPageSize) + " bytes");
  }

  if (spec_.name == "scan_hot") {
    Rng pool_rng(args_.seed ^ 0x5ca1ab1eull);
    std::vector<uint32_t> required;
    std::vector<uint32_t> allowed;
    for (int i = 0; i < 1024; ++i) {
      hot_pool_.push_back(HotQuery(pool_rng));
      model_.Answer(hot_pool_.back(), model_.ct(), model_.acked(),
                    model_.sent(), &required, &allowed);
      Answer answer;
      answer.count = static_cast<uint32_t>(required.size());
      for (uint32_t id : required) answer.digest += IdDigest(id);
      hot_answers_.push_back(answer);
    }
  }

  logs_.resize(spec_.clients);
  const std::vector<uint64_t> updatable = model_.Updatable(model_.ct());
  for (int i = 0; i < spec_.clients; ++i) {
    auto c = std::make_unique<Conn>();
    c->rng = Rng(args_.seed * 1000003ull + static_cast<uint64_t>(i) + 1);
    c->next_trace = static_cast<uint64_t>(i + 1) << 40;
    // Each client updates only its own rows, so no two clients race to
    // freeze the same version.
    for (uint64_t id : updatable) {
      if (static_cast<int>(id % spec_.clients) == i) {
        c->current.emplace_back(id, model_.row(id).extent);
      }
    }
    status = c->net.Connect("127.0.0.1", net_->port());
    if (status.ok()) {
      status = c->net.Prepare("sel",
                              "SELECT id, e FROM hist WHERE Overlaps(e, ?)",
                              &rs);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: client: %s\n",
                   status.ToString().c_str());
      return false;
    }
    conns_.push_back(std::move(c));
  }
  return true;
}

void Bench::RunPhase(bool timed) {
  const int warmup_ops = spec_.name == "write_txn" ? 2 : 100;
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (int i = 0; i < spec_.clients; ++i) {
    threads.emplace_back([&, i] {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      ClientLoop(i, timed, deadline, warmup_ops);
    });
  }
  std::atomic<bool> draining{timed && args_.trace};
  std::thread drainer;
  if (draining) {
    drainer = std::thread([&] {
      while (draining.load()) {
        ledger_.Drain(server_->span_tracer());
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }
  const Clock::time_point start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu);
    phase_start_ = start;
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args_.seconds));
    go = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  if (drainer.joinable()) {
    draining = false;
    drainer.join();
  }

  if (timed) {
    Clock::time_point end = start;
    for (const ClientLog& log : logs_) end = std::max(end, log.last_done);
    phase_s_ = std::chrono::duration<double>(end - start).count();
  }
}

// Whether `required` plus some rows of `optional` make an answer of
// `count` rows whose id digests sum to `digest`, that is whether a SELECT
// with that answer returned every required row, only rows of the two sets
// and none twice. Sets *tried to false, and accepts, when `optional` holds
// too many rows to try every subset of them.
bool SomeOutcomeMatches(const std::vector<uint32_t>& required,
                        const std::vector<uint32_t>& optional, uint32_t count,
                        uint64_t digest, bool* tried) {
  constexpr size_t kMaxOptional = 20;
  *tried = optional.size() <= kMaxOptional;
  if (count < required.size() || count > required.size() + optional.size()) {
    return false;
  }
  if (!*tried) return true;
  uint64_t rest = digest;
  for (uint32_t id : required) rest -= IdDigest(id);
  const int extra = static_cast<int>(count - required.size());
  for (uint32_t mask = 0; mask < (1u << optional.size()); ++mask) {
    if (std::popcount(mask) != extra) continue;
    uint64_t sum = 0;
    for (size_t i = 0; i < optional.size(); ++i) {
      if ((mask >> i) & 1) sum += IdDigest(optional[i]);
    }
    if (sum == rest) return true;
  }
  return false;
}

// Every recorded SELECT's answer against the reference: exactly the
// matching rows when no write was unfinished while it ran, otherwise every
// row that matches whatever the unfinished writes did and only rows that
// match in some outcome. SELECTs checked as they ran (scan_hot) are
// counted here.
void Bench::CheckSelects() {
  std::vector<uint32_t> required;
  std::vector<uint32_t> allowed;
  std::vector<uint32_t> optional;
  uint64_t checked = 0;
  uint64_t in_doubt = 0;
  uint64_t untried = 0;
  size_t most_in_doubt = 0;
  for (const ClientLog& log : logs_) {
    if (log.wrong_answers != 0) {
      Fail(log.first_wrong + " (" + std::to_string(log.wrong_answers) +
           " SELECTs answered wrong)");
    }
    checked += log.checked_at_once + log.selects.size();
    for (const SelectRecord& rec : log.selects) {
      model_.Answer(rec.query, rec.ct_lo, rec.acked_before,
                    rec.sent_before_reply, &required, &allowed);
      if (rec.ct_hi != rec.ct_lo) {
        // The clock moved while the SELECT ran: it may have seen either.
        std::vector<uint32_t> required_hi;
        std::vector<uint32_t> allowed_hi;
        std::vector<uint32_t> merged;
        model_.Answer(rec.query, rec.ct_hi, rec.acked_before,
                      rec.sent_before_reply, &required_hi, &allowed_hi);
        std::set_intersection(required.begin(), required.end(),
                              required_hi.begin(), required_hi.end(),
                              std::back_inserter(merged));
        required.swap(merged);
        merged.clear();
        std::set_union(allowed.begin(), allowed.end(), allowed_hi.begin(),
                       allowed_hi.end(), std::back_inserter(merged));
        allowed.swap(merged);
      }
      optional.clear();
      std::set_difference(allowed.begin(), allowed.end(), required.begin(),
                          required.end(), std::back_inserter(optional));
      in_doubt += !optional.empty();
      most_in_doubt = std::max(most_in_doubt, optional.size());
      bool tried = true;
      if (!SomeOutcomeMatches(required, optional, rec.count, rec.digest,
                              &tried)) {
        Fail("SELECT Overlaps(e, '" + FormatExtent(rec.query) + "') at ct " +
             std::to_string(rec.ct_lo) + ": returned " +
             std::to_string(rec.count) + " rows, the reference " +
             std::to_string(required.size()) + " required and " +
             std::to_string(optional.size()) + " allowed more");
      }
      untried += !tried;
    }
  }
  std::fprintf(stderr,
               "perfbench: %llu SELECTs checked; %llu had rows in doubt (at "
               "most %zu), %llu of them too many to try every outcome\n",
               static_cast<unsigned long long>(checked),
               static_cast<unsigned long long>(in_doubt), most_in_doubt,
               static_cast<unsigned long long>(untried));
  if (checked == 0) Fail("no SELECT was checked");
}

// A fixed probe set after the run, each SELECT under EXPLAIN PROFILE: the
// answers must equal the reference and the decoded row count the profile's
// rows_returned. On the workloads that write, a few profiled writes give
// the per-write profile.
void Bench::ProfilePass() {
  Conn& a = *admin_;
  a.log = nullptr;
  a.timed = false;
  a.rng = Rng(args_.seed ^ 0x9f0be11ull);
  const int64_t now = clock_done_.load();
  ResultSet rs;
  if (!Exec(a, Kind::kControl,
            "PREPARE sel AS SELECT id, e FROM hist WHERE Overlaps(e, ?)",
            &rs)) {
    Fail("PREPARE on the probe connection");
    return;
  }
  auto profile_field = [](const ResultSet& r, const char* key, double* out) {
    for (const std::string& m : r.messages) {
      const size_t at = m.find(key);
      if (m.rfind("PROFILE ", 0) == 0 && at != std::string::npos) {
        *out += std::strtod(m.c_str() + at + std::strlen(key), nullptr);
        return true;
      }
    }
    return false;
  };
  std::vector<uint32_t> required;
  std::vector<uint32_t> allowed;
  for (int i = 0; i < 64; ++i) {
    const Extent q = (spec_.name == "mixed_concurrent" || i % 4 == 3)
                         ? UniformQuery(a.rng)
                         : HotQuery(a.rng);
    ResultSet r;
    if (!Exec(a, Kind::kControl,
              "EXPLAIN PROFILE EXECUTE sel ('" + FormatExtent(q) + "')", &r)) {
      Fail("probe " + FormatExtent(q) + " failed");
      continue;
    }
    model_.Answer(q, now, model_.acked(), model_.sent(), &required, &allowed);
    std::vector<uint32_t> ids;
    for (const auto& row : r.rows) {
      ids.push_back(static_cast<uint32_t>(std::strtoul(row[0].c_str(), nullptr, 10)));
      Extent got;
      if (!ParseExtent(row[1], &got)) Fail("unparsable extent " + row[1]);
    }
    std::sort(ids.begin(), ids.end());
    if (ids != required) {
      Fail("probe " + FormatExtent(q) + ": " + std::to_string(ids.size()) +
           " rows, the reference " + std::to_string(required.size()));
    }
    double returned = 0;
    ProfileSums& p = profile_select_;
    if (!profile_field(r, "rows_returned=", &returned) ||
        returned != static_cast<double>(r.rows.size())) {
      Fail("probe " + FormatExtent(q) + ": profile rows_returned " +
           std::to_string(returned) + " vs " +
           std::to_string(r.rows.size()) + " rows decoded");
    }
    p.statements += 1;
    p.rows_returned += returned;
    profile_field(r, "rows_scanned=", &p.rows_scanned);
    profile_field(r, "node_reads=", &p.node_reads);
    profile_field(r, "cache_hits=", &p.cache_hits);
  }
  if (spec_.name == "scan_hot") return;
  // Profiled writes, autocommitted: inserts of new current versions and,
  // except on write_txn, which only inserts, freezes of current ones.
  std::vector<uint64_t> updatable;
  if (spec_.name != "write_txn") updatable = model_.Updatable(now);
  for (int i = 0; i < 16; ++i) {
    ResultSet r;
    bool ok;
    if (i % 2 == 1 && !updatable.empty()) {
      const uint64_t id = updatable[a.rng.Range(0, updatable.size() - 1)];
      updatable.erase(std::find(updatable.begin(), updatable.end(), id));
      model_.BeginFreeze(id, now - 1);
      ok = Exec(a, Kind::kControl,
                "EXPLAIN PROFILE UPDATE hist SET e = '" +
                    FormatExtent(model_.row(id).Frozen()) +
                    "' WHERE id = " + std::to_string(id),
                &r);
      if (ok) model_.AckFreeze(id);
    } else {
      const Extent e = NewVersion(a.rng, spec_.history, now);
      const uint64_t id = model_.BeginInsert(e);
      ok = Exec(a, Kind::kControl,
                "EXPLAIN PROFILE INSERT INTO hist VALUES (" +
                    std::to_string(id) + ", '" + FormatExtent(e) + "')",
                &r);
      if (ok) model_.AckInsert(id);
    }
    if (!ok) {
      Fail("profiled write failed");
      continue;
    }
    profile_write_.statements += 1;
    profile_field(r, "node_reads=", &profile_write_.node_reads);
    profile_field(r, "cache_hits=", &profile_write_.cache_hits);
  }
}

// End-of-run invariants: row conservation, CHECK INDEX, the whole table
// against the model, and on the external-file layout the index file size
// against the node count UPDATE STATISTICS reports.
void Bench::CheckEndState() {
  Conn& a = *admin_;
  ResultSet rs;
  if (!Exec(a, Kind::kControl, "SELECT COUNT(*) FROM hist", &rs) ||
      rs.rows.size() != 1) {
    Fail("SELECT COUNT(*)");
  } else if (std::strtoull(rs.rows[0][0].c_str(), nullptr, 10) !=
             model_.RowCount()) {
    Fail("COUNT(*) " + rs.rows[0][0] + " != preloaded + acknowledged " +
         std::to_string(model_.RowCount()));
  }
  if (!Exec(a, Kind::kControl, "CHECK INDEX hist_e", &rs)) {
    Fail("CHECK INDEX hist_e");
  }
  if (!Exec(a, Kind::kControl, "SELECT id, e FROM hist", &rs)) {
    Fail("SELECT of the whole table");
  } else {
    std::vector<uint8_t> seen(model_.size(), 0);
    for (const auto& row : rs.rows) {
      const uint64_t id = std::strtoull(row[0].c_str(), nullptr, 10);
      Extent got;
      if (id >= model_.size() || seen[id]++ || !ParseExtent(row[1], &got)) {
        Fail("unexpected row " + row[0] + " | " + row[1]);
        continue;
      }
      const Model::Row& m = model_.row(id);
      const Extent want = m.freeze_ack != Model::kNever ? m.Frozen() : m.extent;
      if (got.tt_begin != want.tt_begin || got.tt_end != want.tt_end ||
          got.vt_begin != want.vt_begin || got.vt_end != want.vt_end) {
        Fail("row " + row[0] + " holds '" + FormatExtent(got) +
             "', the model '" + FormatExtent(want) + "'");
      }
    }
    if (rs.rows.size() != model_.RowCount()) {
      Fail("the table holds " + std::to_string(rs.rows.size()) +
           " rows, the model " + std::to_string(model_.RowCount()));
    }
  }
  index_rows_ = model_.RowCount();
  index_bytes_ = IndexBytes();
  uint64_t nodes = 0;
  if (!IndexNodes(&nodes)) return;
  std::fprintf(stderr, "perfbench: index %llu nodes, %llu bytes, %llu rows\n",
               static_cast<unsigned long long>(nodes),
               static_cast<unsigned long long>(index_bytes_),
               static_cast<unsigned long long>(index_rows_));
  // write_txn only inserts, so the tree has freed no node and the file
  // holds exactly its nodes and the anchor page.
  if (spec_.storage == Storage::kExternalFile &&
      index_bytes_ != (nodes + 1) * grtdb::kPageSize) {
    Fail("at run end the index file holds " + std::to_string(index_bytes_) +
         " bytes for " + std::to_string(nodes) + " nodes + anchor of " +
         std::to_string(grtdb::kPageSize) + " bytes");
  }
}

// The node count am_stats reports, through UPDATE STATISTICS and
// sys_index_stats.
bool Bench::IndexNodes(uint64_t* nodes) {
  ResultSet rs;
  if (!Exec(*admin_, Kind::kControl, "UPDATE STATISTICS FOR INDEX hist_e",
            &rs) ||
      !Exec(*admin_, Kind::kControl,
            "SELECT nodes FROM sys_index_stats WHERE idxname = 'hist_e' AND "
            "level = 'all'",
            &rs) ||
      rs.rows.size() != 1) {
    Fail("UPDATE STATISTICS / sys_index_stats");
    return false;
  }
  *nodes = std::strtoull(rs.rows[0][0].c_str(), nullptr, 10);
  return true;
}

// Bytes of storage the index occupies: the external file, or the single
// large object the blade's catalog record names.
uint64_t Bench::IndexBytes() {
  if (spec_.storage == Storage::kExternalFile) {
    std::error_code ec;
    const uint64_t size = std::filesystem::file_size(IndexFile(), ec);
    return ec ? 0 : size;
  }
  std::vector<uint8_t> record;
  if (!server_->AmCatalogGet("grtree_am", "hist_e", &record).ok() ||
      record.size() < 17) {
    Fail("grtree_am catalog record of hist_e");
    return 0;
  }
  // Record layout: u8 layout kind, u64 anchor node, u64 large object id.
  grtdb::LoHandle handle;
  std::memcpy(&handle.id, record.data() + 9, sizeof(handle.id));
  uint64_t size = 0;
  grtdb::Sbspace* space = server_->FindSbspace("default");
  if (space == nullptr || !space->LoSize(handle, &size).ok()) {
    Fail("size of the index's large object");
  }
  return size;
}

void Bench::Report() {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t txns = 0;
  uint64_t rows_written = 0;
  uint64_t rows_returned = 0;
  std::vector<double> select_us;
  std::vector<double> write_us;
  std::vector<double> txn_us;
  std::vector<float> done_s;
  std::vector<float> select_done_s;
  for (const ClientLog& log : logs_) {
    done_s.insert(done_s.end(), log.done_s.begin(), log.done_s.end());
    select_done_s.insert(select_done_s.end(), log.select_done_s.begin(),
                         log.select_done_s.end());
    attempted += log.requests;
    failed += log.failed;
    txns += log.txns;
    rows_written += log.rows_written;
    rows_returned += log.rows_returned;
    select_us.insert(select_us.end(), log.select_us.begin(), log.select_us.end());
    write_us.insert(write_us.end(), log.write_us.begin(), log.write_us.end());
    txn_us.insert(txn_us.end(), log.txn_us.begin(), log.txn_us.end());
  }
  // An autocommitted write is a transaction of its own.
  if (spec_.name == "mixed_concurrent") txns = write_us.size();
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  const SlowdownFn slowdown = [&](int w, int n) {
    const Clock::duration width = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(args_.seconds / n));
    return calibrator_->Slowdown(phase_start_ + w * width,
                                 phase_start_ + (w + 1) * width);
  };
  const SlowdownFn unscaled = [](int, int) { return 1.0; };
  std::fprintf(stderr,
               "perfbench: unscaled %.1f requests/s, SELECT p50 %.1f us; "
               "kernel slowdown %.3f in set-up, %.3f in the timed phase\n",
               WindowedRate(done_s, args_.seconds, unscaled),
               WindowedPercentile(select_done_s, select_us, args_.seconds,
                                  0.50, unscaled),
               setup_slowdown_, slowdown(0, 1));
  auto add = [&](const std::string& name, double value, const char* unit) {
    metrics.emplace_back(name, value, unit);
  };
  if (!args_.trace) {
    add("setup_s", setup_s_, "s");
    add("ops_per_s", WindowedRate(done_s, args_.seconds, slowdown),
        "requests/s");
    add("select_p50_us",
        WindowedPercentile(select_done_s, select_us, args_.seconds, 0.50,
                           slowdown),
        "us");
    add("index_bytes_per_row",
        Ratio(static_cast<double>(index_bytes_), static_cast<double>(index_rows_)),
        "bytes");
    add("peak_rss_mb", peak_rss_mb_, "MB");
  } else {
    using grtdb::obs::PurposeFn;
    using grtdb::obs::SpanName;
    const auto& traces = ledger_.traces();
    double n_all = 0, n_select = 0;
    double wire = 0, respond = 0, parse = 0, gate = 0, plan = 0, exec = 0;
    double unattributed = 0, node_io = 0, wal_wait = 0, lock_wait = 0;
    double reply_bytes = 0, getnext_calls = 0, select_opens = 0;
    double purpose_us[grtdb::obs::kPurposeFnCount] = {};
    double purpose_calls[grtdb::obs::kPurposeFnCount] = {};
    uint64_t missing = 0;
    auto self = [](const RequestCost& c, SpanName n) {
      return c.self_us[static_cast<size_t>(n)];
    };
    auto total = [](const RequestCost& c, SpanName n) {
      return c.total_us[static_cast<size_t>(n)];
    };
    for (const ClientLog& log : logs_) {
      for (const Call& call : log.calls) {
        auto it = traces.find(call.trace_id);
        if (it == traces.end()) {
          ++missing;
          continue;
        }
        const RequestCost& c = it->second;
        n_all += 1;
        wire += call.us - c.request_us;
        respond += self(c, SpanName::kRespond);
        parse += total(c, SpanName::kParse);
        gate += total(c, SpanName::kGateWait);
        plan += self(c, SpanName::kPlan);
        exec += self(c, SpanName::kExec);
        unattributed += self(c, SpanName::kRequest);
        wal_wait += total(c, SpanName::kWalWait);
        lock_wait += total(c, SpanName::kLockWait);
        for (size_t f = 0; f < grtdb::obs::kPurposeFnCount; ++f) {
          purpose_us[f] += c.purpose_us[f];
          purpose_calls[f] += c.purpose_calls[f];
        }
        if (call.kind == Kind::kSelect) {
          n_select += 1;
          reply_bytes += call.reply_bytes;
          node_io += total(c, SpanName::kNodeIo);
          getnext_calls +=
              c.purpose_calls[static_cast<size_t>(PurposeFn::kAmGetNext)];
          select_opens +=
              c.purpose_calls[static_cast<size_t>(PurposeFn::kAmOpen)];
        }
      }
    }
    std::fprintf(stderr,
                 "perfbench: traced %.0f requests, %llu without a trace, "
                 "%llu spans lost, %zu pending\n",
                 n_all, static_cast<unsigned long long>(missing),
                 static_cast<unsigned long long>(ledger_.lost()),
                 ledger_.pending());
    if (missing != 0 || ledger_.lost() != 0) {
      Fail("the span ledger misses traced requests");
    }
    auto per_call = [&](PurposeFn f) {
      const size_t i = static_cast<size_t>(f);
      return Ratio(purpose_us[i], purpose_calls[i]);
    };
    auto d = [&](const char* name) { return Delta(before_, after_, name); };
    const double requests = static_cast<double>(attempted);
    add("net.wire_us", Ratio(wire, n_all), "us");
    add("net.respond_us", Ratio(respond, n_all), "us");
    add("net.bytes_out_per_select", Ratio(reply_bytes, n_select), "bytes");
    add("sql.parse_us", Ratio(parse, n_all), "us");
    add("server.gate_wait_us", Ratio(gate, n_all), "us");
    add("server.plan_us", Ratio(plan, n_all), "us");
    add("server.plan_cache_hit_ratio",
        Ratio(d("plan_cache.hits"), d("plan_cache.hits") + d("plan_cache.misses")),
        "ratio");
    add("server.exec_self_us", Ratio(exec, n_all), "us");
    add("server.rows_examined_per_row_returned",
        Ratio(profile_select_.rows_scanned, profile_select_.rows_returned),
        "ratio");
    add("server.unattributed_us", Ratio(unattributed, n_all), "us");
    add("vii.open_us", per_call(PurposeFn::kAmOpen), "us");
    add("vii.close_us", per_call(PurposeFn::kAmClose), "us");
    add("vii.opens_per_select", Ratio(select_opens, n_select), "calls");
    add("vii.scancost_us", per_call(PurposeFn::kAmScanCost), "us");
    add("vii.getnext_us", per_call(PurposeFn::kAmGetNext), "us");
    add("vii.getnext_calls_per_select", Ratio(getnext_calls, n_select), "calls");
    add("vii.insert_us", per_call(PurposeFn::kAmInsert), "us");
    add("vii.update_us", per_call(PurposeFn::kAmUpdate), "us");
    add("core.node_reads_per_select",
        Ratio(profile_select_.node_reads, profile_select_.statements), "reads");
    add("core.node_reads_per_write",
        Ratio(profile_write_.node_reads, profile_write_.statements), "reads");
    // Hits and misses count every frame lookup, reads and writes alike.
    add("storage.cache_hit_ratio",
        Ratio(d("cache.hits"), d("cache.hits") + d("cache.misses")), "ratio");
    add("storage.cache_misses_per_select",
        Ratio(profile_select_.node_reads - profile_select_.cache_hits,
              profile_select_.statements),
        "misses");
    add("storage.node_io_us", Ratio(node_io, n_select), "us");
    add("storage.pager_hit_ratio",
        Ratio(d("pager.hits"), d("pager.logical_reads")), "ratio");
    add("storage.pager_physical_reads_per_op",
        Ratio(d("pager.physical_reads"), requests), "reads");
    add("storage.wal_syncs_per_txn", Ratio(d("wal.syncs"), txns), "syncs");
    add("storage.wal_wait_us", Ratio(wal_wait, txns), "us");
    add("storage.wal_bytes_per_row", Ratio(d("wal.log_bytes"), rows_written),
        "bytes");
    add("storage.node_writes_per_row", Ratio(d("cache.writes"), rows_written),
        "writes");
    add("txn.lock_acquisitions_per_op", Ratio(d("lock.acquisitions"), requests),
        "locks");
    add("txn.lock_waits_per_op", Ratio(d("lock.waits"), requests), "waits");
    add("txn.lock_wait_us", Ratio(lock_wait, requests), "us");
    add("client.ops_per_s", WindowedRate(done_s, args_.seconds, slowdown),
        "requests/s");
    add("client.select_p50_us",
        WindowedPercentile(select_done_s, select_us, args_.seconds, 0.50,
                           slowdown),
        "us");
    add("client.write_p50_us", Percentile(write_us, 0.50), "us");
    add("client.txn_p50_us", Percentile(txn_us, 0.50), "us");
  }

  std::fprintf(stderr,
               "perfbench: %s seed %llu: %llu requests in %.3f s, %zu "
               "SELECTs (%.1f rows each), %zu writes, %llu transactions, "
               "%llu failed; probe SELECTs read %.1f nodes\n",
               spec_.name.c_str(), static_cast<unsigned long long>(args_.seed),
               static_cast<unsigned long long>(attempted), phase_s_,
               select_us.size(),
               Ratio(static_cast<double>(rows_returned),
                     static_cast<double>(select_us.size())),
               write_us.size(), static_cast<unsigned long long>(txns),
               static_cast<unsigned long long>(failed),
               Ratio(profile_select_.node_reads, profile_select_.statements));
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value, unit] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0, unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool Bench::Run() {
  if (!Setup()) return false;
  RunPhase(/*timed=*/false);
  // Peak resident set through set-up and warm-up: the loaded table, the
  // built index and warm caches. Not later: the workloads that write grow
  // the table by however many rows a run manages, so a faster program
  // would read as a bigger one.
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
  ResultSet rs;
  if (args_.trace) {
    Exec(*admin_, Kind::kControl, "SET TRACE_SAMPLE TO 1", &rs);
    // Later drains read only spans admitted after this one's, so whatever
    // the ring holds now stays out of the timed phase's figures.
    ledger_.Drain(server_->span_tracer());
  }
  before_ = ReadMetrics(*server_);
  RunPhase(/*timed=*/true);
  after_ = ReadMetrics(*server_);
  if (args_.trace) {
    // The root span of a request closes after its reply is written: wait
    // until every traced request has been folded.
    size_t want = 0;
    for (const ClientLog& log : logs_) want += log.calls.size();
    for (int i = 0; i < 500 && ledger_.traces().size() < want; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ledger_.Drain(server_->span_tracer());
    }
    Exec(*admin_, Kind::kControl, "SET TRACE_SAMPLE TO 0", &rs);
  }
  for (auto& c : conns_) c->net.Close();
  CheckSelects();
  ProfilePass();
  CheckEndState();
  Report();
  admin_->net.Close();
  net_->Stop();
  server_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  // The calibration kernel with nothing else running, against its time
  // beside the set-up and the timed phase: how far the workload itself
  // moves the kernel, and with it the scale of the timings.
  const Clock::time_point idle_from = Clock::now();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const Clock::time_point phase_end =
      phase_start_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args_.seconds));
  std::fprintf(stderr,
               "perfbench: calibration kernel %.1f us alone after the run, "
               "%.1f us in set-up, %.1f us in the timed phase\n",
               calibrator_->KernelUs(idle_from, Clock::now()),
               setup_slowdown_ * Calibrator::kReferenceUs,
               calibrator_->KernelUs(phase_start_, phase_end));
  return true;
}

void Bench::Describe() {
  model_.Generate(rng_, spec_.history);
  clock_pending_ = clock_done_ = model_.ct();
  const size_t n = model_.size();
  size_t current = 0;
  size_t now_relative = 0;
  size_t cases[7] = {};
  for (size_t id = 0; id < n; ++id) {
    const Extent& e = model_.row(id).extent;
    current += e.current();
    now_relative += e.now_relative();
    ++cases[Fig2Case(e)];
  }
  std::printf("%s seed %llu: %zu rows, current time %lld\n", spec_.name.c_str(),
              static_cast<unsigned long long>(args_.seed), n,
              static_cast<long long>(model_.ct()));
  std::printf("  TTend = UC %.1f%%, VTend = NOW %.1f%%\n", 100.0 * current / n,
              100.0 * now_relative / n);
  std::printf("  Fig. 2 cases 1-6:");
  for (int c = 1; c <= 6; ++c) std::printf(" %.1f%%", 100.0 * cases[c] / n);
  std::printf("\n");
  Rng rng(args_.seed ^ 0x5ca1ab1eull);
  std::vector<double> sizes;
  std::vector<uint32_t> required;
  std::vector<uint32_t> allowed;
  for (int i = 0; i < 1000; ++i) {
    Extent q;
    if (spec_.name == "scan_hot") {
      q = HotQuery(rng);
    } else if (spec_.name == "write_txn") {
      q = TimeSliceQuery(rng, spec_.queries, model_.ct() - rng.Range(1, 200));
    } else {
      q = UniformQuery(rng);
    }
    model_.Answer(q, model_.ct(), 0, 0, &required, &allowed);
    sizes.push_back(static_cast<double>(required.size()));
  }
  double sum = 0;
  for (double v : sizes) sum += v;
  std::printf("  SELECT answers over 1000 queries: mean %.1f rows, p10 %.0f, "
              "p50 %.0f, p90 %.0f (%.2f%% of the table at the median)\n",
              sum / sizes.size(), Percentile(sizes, 0.1),
              Percentile(sizes, 0.5), Percentile(sizes, 0.9),
              100.0 * Percentile(sizes, 0.5) / n);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--dir") {
      args->dir = value;
    } else if (key == "--describe") {
      args->describe = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->describe || !args->dir.empty());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  perfbench::Spec spec;
  if (!perfbench::ParseArgs(argc, argv, &args) ||
      !perfbench::MakeSpec(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: grtdb_perfbench --workload "
                 "scan_hot|write_txn|mixed_concurrent --seed N --seconds S "
                 "--trace 0|1 --dir DIR\n"
                 "       grtdb_perfbench --workload W --seed N --describe 1\n");
    return 2;
  }
  perfbench::Calibrator calibrator;
  perfbench::Bench bench(args, spec, &calibrator);
  if (args.describe) {
    bench.Describe();
    return 0;
  }
  return bench.Run() ? 0 : 1;
}
