// Stored-table workloads: no Web calls, so the async, net and search
// layers are bypassed. stored_scan reads a table larger than the buffer
// pool under a tight memory budget; stored_write mixes point writes and
// reads on a file-backed, checkpointed database.

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "probes.h"
#include "storage/page.h"
#include "storage/serde.h"
#include "workloads.h"

namespace wsqperf {
namespace {

constexpr size_t kMB = 1024 * 1024;

// ---------------------------------------------------------------------
// stored_scan

/// bench_memory's query shapes; the full sort is the Zipf head.
const char* const kScanShapes[] = {
    "SELECT K, V FROM Big ORDER BY K, V",
    "SELECT K, COUNT(*), SUM(V), MIN(V), MAX(V) FROM Big "
    "GROUP BY K ORDER BY K",
    "SELECT G, V FROM Big ORDER BY G DESC, V",
    "SELECT DISTINCT K FROM Big ORDER BY K",
    "SELECT G, COUNT(*) FROM Big GROUP BY G ORDER BY G",
};
/// Copies of each shape per deck pass: Zipf-like weights (1.1 skew
/// rounded to a 20-statement pass).
const int kScanDeck[] = {9, 4, 3, 2, 2};

wsq::Status LoadBigTable(wsq::WsqDatabase* db, uint64_t seed, size_t rows) {
  wsq::Schema schema({wsq::Column("K", wsq::TypeId::kString),
                      wsq::Column("G", wsq::TypeId::kInt64),
                      wsq::Column("V", wsq::TypeId::kInt64)});
  auto table = db->catalog()->CreateTable("Big", schema);
  if (!table.ok()) return table.status();
  wsq::Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    wsq::Status s = (*table)->Insert(wsq::Row(
        {wsq::Value::Str("row-" + std::to_string(rng.Uniform(509))),
         wsq::Value::Int(static_cast<int64_t>(rng.Uniform(61))),
         wsq::Value::Int(static_cast<int64_t>(i))}));
    if (!s.ok()) return s;
  }
  return wsq::Status::OK();
}

class StoredScanWorkload : public Workload {
 public:
  explicit StoredScanWorkload(const RunConfig& config)
      : config_(config), stream_(Deck(), config.seed * 1000003) {}

  std::string why() const override {
    return wsq::StrFormat(
        "sort/group/distinct over a table larger than the buffer pool "
        "under a %zu MB budget; no Web calls, so async/net/search are "
        "bypassed",
        kBudgetBytes / kMB);
  }
  int clients() const override { return 1; }
  std::vector<std::string> op_names() const override {
    return {"sort", "group_k", "sort_desc", "distinct", "group_g"};
  }
  /// Ten deck passes: each round's p95 has ten statements beyond it.
  size_t round_statements() const override { return 10 * stream_.size(); }

  void Setup() override {
    db_.reset();
    db_ = std::make_unique<wsq::WsqDatabase>(Options(kBudgetBytes));
    Load(db_.get());
  }

  Outcome Next(int /*client*/, bool traced) override {
    const int shape = stream_.Next();
    const std::string sql = kScanShapes[shape];
    Outcome out;
    out.op = shape;
    if (traced) {
      out.has_sql = true;
      out.parse_ns = TimeParse(sql);
    }
    wsq::WsqDatabase::ExecOptions options;
    options.trace = traced;
    options.trace_max_spans = size_t{1} << 20;
    int64_t start = NowNanos();
    auto r = db_->Execute(sql, options);
    out.latency_ns = NowNanos() - start;
    if (!r.ok()) {
      out.ok = false;
      out.error = r.status().ToString();
      return out;
    }
    out.select = true;
    out.spilled_bytes = r->stats.spilled_bytes;
    out.spill_runs = r->stats.spill_runs;
    out.peak_memory_bytes = r->stats.peak_memory_bytes;
    out.pressure_released_bytes = r->stats.pressure_released_bytes;
    out.reqsync_peak_rows = r->stats.peak_buffered_rows;
    if (traced && r->trace.has_value()) AbsorbTrace(*r->trace, &out);
    observed_[shape].insert(OrderedHash(r->result));
    return out;
  }

  Counters Snapshot() override {
    Counters c;
    c.pump = db_->pump()->stats();
    c.pool = db_->buffer_pool()->stats();
    return c;
  }

  std::vector<Check> Verify() override {
    std::vector<Check> checks;
    wsq::WsqDatabase reference(Options(0));
    Load(&reference);
    size_t mismatched = 0;
    for (const auto& [shape, hashes] : observed_) {
      auto r = reference.Execute(kScanShapes[shape]);
      if (!r.ok() || hashes.size() != 1 ||
          *hashes.begin() != OrderedHash(r->result)) {
        ++mismatched;
      }
    }
    checks.push_back({"ordered_results_match_unlimited_budget",
                      mismatched == 0,
                      wsq::StrFormat("%zu shapes, %zu differ",
                                     observed_.size(), mismatched)});
    size_t leftover = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(config_.scratch)) {
      if (entry.is_regular_file()) ++leftover;
    }
    checks.push_back(
        {"no_spill_files_remain",
         db_->spill()->active_files() == 0 && leftover == 0,
         wsq::StrFormat("active=%zu files_in_scratch=%zu",
                        db_->spill()->active_files(), leftover)});
    return checks;
  }

 private:
  /// ~110 pages of rows against a 96-page pool, and a budget below
  /// what the full sort needs, so scans miss and the Zipf head spills.
  static constexpr size_t kRows = 12000;
  static constexpr size_t kPoolPages = 96;
  static constexpr size_t kBudgetBytes = 2 * kMB;

  static std::vector<int> Deck() {
    std::vector<int> deck;
    for (int shape = 0; shape < 5; ++shape) {
      for (int k = 0; k < kScanDeck[shape]; ++k) deck.push_back(shape);
    }
    return deck;
  }

  wsq::WsqDatabase::Options Options(size_t budget) const {
    wsq::WsqDatabase::Options options;
    options.memory_budget_bytes = budget;
    options.buffer_pool_pages = kPoolPages;
    options.spill_dir = config_.scratch;
    return options;
  }

  void Load(wsq::WsqDatabase* db) const {
    wsq::Status s =
        LoadBigTable(db, config_.seed, config_.smoke ? kRows / 20 : kRows);
    if (!s.ok()) {
      std::fprintf(stderr, "stored_scan load failed: %s\n",
                   s.ToString().c_str());
      std::exit(2);
    }
  }

  const RunConfig config_;
  DeckStream stream_;
  std::map<int, std::set<uint64_t>> observed_;
  std::unique_ptr<wsq::WsqDatabase> db_;
};

// ---------------------------------------------------------------------
// stored_write

enum WriteOp { kInsert, kUpdate, kDelete, kSelect, kCheckpoint };

/// Copies of each op per 20-statement deck pass. Inserts balance
/// deletes so the table stays at its preloaded size. The fast ops
/// (index lookups, appends) are 60% and the full-scan ops 40%, so the
/// median falls inside one mode instead of on the boundary between
/// them.
const int kWriteDeck[] = {5, 3, 5, 7};
/// Every this many statements, one is a Checkpoint().
constexpr uint64_t kCheckpointEvery = 250;

class StoredWriteWorkload : public Workload {
 public:
  explicit StoredWriteWorkload(const RunConfig& config)
      : config_(config),
        path_((std::filesystem::path(config.scratch) / "stored_write.db")
                  .string()),
        stream_(Deck(), config.seed * 1000003),
        rng_(config.seed * 7919 + 17) {}

  std::string why() const override {
    return "point INSERT/UPDATE/DELETE/SELECT on a file-backed, indexed "
           "table with periodic checkpoints: dirty pages, WAL and the "
           "full-scan write paths";
  }
  int clients() const override { return 1; }
  std::vector<std::string> op_names() const override {
    return {"insert", "update", "delete", "select", "checkpoint"};
  }
  size_t round_statements() const override { return kCheckpointEvery; }

  void Setup() override {
    Close();
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".wal");
    Open();
    Must(db_->Execute("CREATE TABLE T (K INT, S STRING, V INT)").status());
    // Every round replays the same statements against the same table.
    rng_ = wsq::Rng(config_.seed * 7919 + 17);
    stream_ = DeckStream(Deck(), config_.seed * 1000003);
    model_.clear();
    live_.clear();
    slot_.clear();
    statements_ = checkpoints_ = user_row_bytes_ = 0;
    const size_t rows = config_.smoke ? kRows / 20 : kRows;
    for (next_key_ = 0; next_key_ < static_cast<int64_t>(rows);
         ++next_key_) {
      Entry e{RandomText(), static_cast<int64_t>(rng_.Uniform(1000000))};
      Must(TableInfoOrDie()->Insert(MakeRow(next_key_, e)));
      Add(next_key_, e);
    }
    Must(db_->Execute("CREATE INDEX ix_k ON T (K)").status());
    Must(db_->Checkpoint());
  }

  Outcome Next(int /*client*/, bool traced) override {
    ++statements_;
    Outcome out;
    if (statements_ % kCheckpointEvery == 0) {
      out.op = kCheckpoint;
      out.checkpoint = true;
      int64_t start = NowNanos();
      wsq::Status s = db_->Checkpoint();
      out.latency_ns = NowNanos() - start;
      ++checkpoints_;
      if (!s.ok()) {
        out.ok = false;
        out.error = s.ToString();
      }
      return out;
    }
    const WriteOp op = static_cast<WriteOp>(stream_.Next());
    out.op = op;
    int64_t key = 0;
    Entry entry;
    std::string sql;
    switch (op) {
      case kInsert:
        key = next_key_++;
        entry = Entry{RandomText(),
                      static_cast<int64_t>(rng_.Uniform(1000000))};
        sql = wsq::StrFormat("INSERT INTO T VALUES (%lld, '%s', %lld)",
                             (long long)key, entry.s.c_str(),
                             (long long)entry.v);
        break;
      case kUpdate:
        key = live_[rng_.Uniform(live_.size())];
        sql = wsq::StrFormat("UPDATE T SET V = V + 1 WHERE K = %lld",
                             (long long)key);
        break;
      case kDelete:
        key = live_[rng_.Uniform(live_.size())];
        sql = wsq::StrFormat("DELETE FROM T WHERE K = %lld", (long long)key);
        break;
      case kSelect:
        // Any key ever issued: deleted ones must come back empty.
        key = static_cast<int64_t>(
            rng_.Uniform(static_cast<uint64_t>(next_key_)));
        sql = wsq::StrFormat("SELECT K, S, V FROM T WHERE K = %lld",
                             (long long)key);
        break;
      case kCheckpoint:
        break;
    }
    if (traced) {
      out.has_sql = true;
      out.parse_ns = TimeParse(sql);
    }
    wsq::WsqDatabase::ExecOptions options;
    options.trace = traced;
    options.trace_max_spans = size_t{1} << 20;
    int64_t start = NowNanos();
    auto r = db_->Execute(sql, options);
    out.latency_ns = NowNanos() - start;
    if (!r.ok()) {
      out.ok = false;
      out.error = r.status().ToString();
      return out;
    }
    switch (op) {
      case kInsert:
        Add(key, entry);
        user_row_bytes_ += RowBytes(key, entry);
        break;
      case kUpdate: {
        Entry& e = model_.at(key);
        ++e.v;
        user_row_bytes_ += RowBytes(key, e);
        CheckAffected(*r, "Updated");
        break;
      }
      case kDelete:
        Remove(key);
        CheckAffected(*r, "Deleted");
        break;
      case kSelect: {
        out.select = true;
        out.peak_memory_bytes = r->stats.peak_memory_bytes;
        if (traced && r->trace.has_value()) AbsorbTrace(*r->trace, &out);
        auto it = model_.find(key);
        bool match = it == model_.end()
                         ? r->result.rows.empty()
                         : r->result.rows.size() == 1 &&
                               r->result.rows[0] == MakeRow(key, it->second);
        if (!match) ++select_mismatches_;
        break;
      }
      case kCheckpoint:
        break;
    }
    return out;
  }

  void BeginRound() override { Setup(); }

  void EndRound() override {
    Must(db_->Checkpoint());
    ++checkpoints_;
  }

  Counters Snapshot() override {
    Counters c;
    c.pump = db_->pump()->stats();
    c.pool = db_->buffer_pool()->stats();
    c.disk_reads = disk_->reads();
    c.disk_writes = disk_->writes();
    c.disk_syncs = disk_->syncs();
    c.wal_bytes = wal_->bytes();
    c.wal_syncs = wal_->syncs();
    c.user_row_bytes = user_row_bytes_;
    c.checkpoints = checkpoints_;
    return c;
  }

  std::vector<Check> Verify() override {
    std::vector<Check> checks;
    checks.push_back(
        {"statements_match_model",
         select_mismatches_ == 0 && affected_mismatches_ == 0,
         wsq::StrFormat("select_mismatches=%llu affected_mismatches=%llu",
                        (unsigned long long)select_mismatches_,
                        (unsigned long long)affected_mismatches_)});

    // Durability: checkpoint, close, reopen the file, compare the whole
    // table (and its index) with the model.
    Must(db_->Checkpoint());
    Close();
    auto reopened = wsq::WsqDatabase::Open(path_, DbOptions());
    bool same = false;
    std::string detail;
    if (!reopened.ok()) {
      detail = reopened.status().ToString();
    } else {
      auto r = (*reopened)->Execute("SELECT K, S, V FROM T ORDER BY K");
      wsq::TableInfo* t = *(*reopened)->catalog()->GetTable("T");
      bool index_ok = t->indexes().size() == 1 &&
                      t->indexes()[0]->tree()->CheckInvariants().ok() &&
                      *t->indexes()[0]->tree()->Count() == *t->NumRows();
      if (r.ok() && r->result.rows.size() == model_.size() && index_ok) {
        same = true;
        size_t i = 0;
        for (const auto& [key, entry] : std::map<int64_t, Entry>(
                 model_.begin(), model_.end())) {
          same = same && r->result.rows[i++] == MakeRow(key, entry);
        }
      }
      detail = wsq::StrFormat("rows=%zu model=%zu index_ok=%d",
                              r.ok() ? r->result.rows.size() : 0,
                              model_.size(), index_ok ? 1 : 0);
    }
    checks.push_back({"reopened_table_matches_model", same, detail});
    return checks;
  }

 private:
  struct Entry {
    std::string s;
    int64_t v = 0;
  };

  /// Fits in the 256-page pool with its index.
  static constexpr size_t kRows = 10000;

  static std::vector<int> Deck() {
    std::vector<int> deck;
    for (int op = 0; op < 4; ++op) {
      for (int k = 0; k < kWriteDeck[op]; ++k) deck.push_back(op);
    }
    return deck;
  }

  static wsq::Row MakeRow(int64_t key, const Entry& e) {
    return wsq::Row({wsq::Value::Int(key), wsq::Value::Str(e.s),
                     wsq::Value::Int(e.v)});
  }

  static uint64_t RowBytes(int64_t key, const Entry& e) {
    auto bytes = wsq::SerializeRow(MakeRow(key, e));
    return bytes.ok() ? bytes->size() : 0;
  }

  static void Must(const wsq::Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "stored_write: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  }

  wsq::WsqDatabase::Options DbOptions() const {
    wsq::WsqDatabase::Options options;
    options.sync_policy = wsq::SyncPolicy::kFlush;
    options.checkpoint_on_close = false;
    options.spill_dir = config_.scratch;
    return options;
  }

  void Open() {
    auto file = wsq::FileDiskManager::Open(path_, wsq::SyncPolicy::kFlush);
    if (!file.ok()) Must(file.status());
    disk_file_ = std::move(*file);
    wal_file_ = std::make_unique<wsq::FileWalStorage>(
        path_ + ".wal", wsq::SyncPolicy::kFlush);
    disk_ = std::make_unique<CountingDiskManager>(disk_file_.get());
    wal_ = std::make_unique<CountingWalStorage>(wal_file_.get());
    auto db = wsq::WsqDatabase::OpenWithStorage(disk_.get(), wal_.get(),
                                                DbOptions());
    if (!db.ok()) Must(db.status());
    db_ = std::move(*db);
  }

  void Close() {
    db_.reset();
    wal_.reset();
    disk_.reset();
    wal_file_.reset();
    disk_file_.reset();
  }

  wsq::TableInfo* TableInfoOrDie() {
    auto t = db_->catalog()->GetTable("T");
    if (!t.ok()) Must(t.status());
    return *t;
  }

  std::string RandomText() {
    return wsq::StrFormat("s%llu",
                          (unsigned long long)rng_.Uniform(100000000));
  }

  void Add(int64_t key, const Entry& e) {
    model_[key] = e;
    slot_[key] = live_.size();
    live_.push_back(key);
  }

  void Remove(int64_t key) {
    size_t at = slot_.at(key);
    live_[at] = live_.back();
    slot_[live_[at]] = at;
    live_.pop_back();
    slot_.erase(key);
    model_.erase(key);
  }

  void CheckAffected(const wsq::QueryExecution& r, const char* column) {
    bool one = r.result.rows.size() == 1 &&
               r.result.schema.NumColumns() == 1 &&
               r.result.schema.column(0).name == column &&
               r.result.rows[0].value(0).AsInt() == 1;
    if (!one) ++affected_mismatches_;
  }

  const RunConfig config_;
  const std::string path_;
  DeckStream stream_;
  wsq::Rng rng_;

  // Destruction order: the database before the devices under it.
  std::unique_ptr<wsq::FileDiskManager> disk_file_;
  std::unique_ptr<wsq::FileWalStorage> wal_file_;
  std::unique_ptr<CountingDiskManager> disk_;
  std::unique_ptr<CountingWalStorage> wal_;
  std::unique_ptr<wsq::WsqDatabase> db_;

  /// The bench's model of T: key -> (S, V), plus the live keys in a
  /// vector for uniform picks.
  std::unordered_map<int64_t, Entry> model_;
  std::vector<int64_t> live_;
  std::unordered_map<int64_t, size_t> slot_;
  int64_t next_key_ = 0;
  uint64_t statements_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t user_row_bytes_ = 0;
  uint64_t select_mismatches_ = 0;
  uint64_t affected_mismatches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeStoredWorkload(const std::string& name,
                                             const RunConfig& config) {
  if (name == "stored_scan") {
    return std::make_unique<StoredScanWorkload>(config);
  }
  if (name == "stored_write") {
    return std::make_unique<StoredWriteWorkload>(config);
  }
  return nullptr;
}

}  // namespace wsqperf
