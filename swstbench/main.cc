// swst_e2e: runs one workload of the end-to-end SWST benchmark.
//
//   swst_e2e --workload stream|query_warm|durable --seed N --seconds S
//            --trace 0|1 --dir SCRATCH_DIR
//
// The input is a GSTD stream in the shape of the paper's Table II, made
// from --seed. One process and one client thread drive it into the public
// API of SwstIndex, Pager, BufferPool, Wal and WalStore; every answer is
// checked against the benchmark's own brute-force record (oracle.h). A
// human-readable table goes to stderr; the last line of stdout is one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md for the workloads and the metric map.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "gstd/gstd.h"
#include "instrumented.h"
#include "oracle.h"
#include "query_mix.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/wal.h"
#include "swst/swst_index.h"

namespace swstbench {
namespace {

namespace fs = std::filesystem;
using swst::BufferPool;
using swst::GstdGenerator;
using swst::GstdOptions;
using swst::GstdRecord;
using swst::PageId;
using swst::Pager;
using swst::Status;
using swst::SwstIndex;
using swst::SwstOptions;
using swst::Wal;
using swst::WalStore;

// ---------------------------------------------------------------------------
// Workload constants. README.md explains each choice.

// Every workload streams 5000 objects (paper Table II shape otherwise).
constexpr uint64_t kObjects = 5000;
// The stream workload keeps Table II's report rate (one report per object
// per 1000 time units on average) over a longer horizon, so that a run
// never exhausts it.
constexpr uint64_t kStreamReports = 300;
constexpr size_t kStreamPoolPages = 128;
constexpr uint64_t kCheckpointEvery = 50000;  // arrivals
constexpr uint64_t kQueryEvery = 20;          // arrivals per query
constexpr uint64_t kStreamVerifyEvery = 8;    // check 1 in 8 per type
constexpr int kReopenChecks = 16;             // per type, after a reopen
constexpr int kReopens = 24;                  // timed reopens per run

constexpr swst::Timestamp kWarmCut = 80000;
constexpr size_t kWarmPoolPages = 4096;
constexpr int kWarmSetPerType = 256;

constexpr size_t kBatch = 500;              // entries per InsertBatch
constexpr size_t kDurableBatches = 120;     // before the kill
constexpr size_t kDurablePoolPages = 4096;
constexpr int kDurableQueriesPerType = 256;  // per recovery, all checked
constexpr int kDurableMinRounds = 4;
// Post-checkpoint crash: a fixed input that does not depend on --seed.
constexpr uint64_t kFixedSeed = 20120401;
constexpr size_t kFixedPrefixBatches = 20;
constexpr size_t kFixedTailBatches = 10;

uint64_t g_process_start_ns = 0;

SwstOptions PaperOptions() { return SwstOptions{}; }  // Table II defaults.

GstdOptions PaperStream(uint64_t seed, uint64_t reports = 100) {
  GstdOptions g;
  g.num_objects = kObjects;
  g.records_per_object = reports;
  g.max_time = 1000 * reports;
  g.max_step = 200.0;
  g.initial = GstdOptions::Distribution::kUniform;
  g.seed = seed;
  return g;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// Field `key` of /proc/self/<file> (e.g. VmHWM of status, wchar of io).
uint64_t ProcField(const char* file, const std::string& key) {
  std::ifstream in(std::string("/proc/self/") + file);
  std::string k;
  uint64_t v = 0;
  while (in >> k) {
    if (k == key + ":") {
      in >> v;
      return v;
    }
  }
  return 0;
}
uint64_t WrittenBytes() { return ProcField("io", "wchar"); }

uint64_t TreeBytes(const fs::path& p) {
  std::error_code ec;
  if (fs::is_regular_file(p, ec)) return fs::file_size(p, ec);
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(p, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// ---------------------------------------------------------------------------
// Metric catalogue: the names and units BENCHMARK.json declares.

struct MetricDef {
  std::string name;
  std::string unit;
};

std::vector<MetricDef> EndToEndMetrics() {
  std::vector<MetricDef> m = {{"setup_s", "s"},
                              {"ingest_rec_per_s", "rec/s"},
                              {"queries_per_s", "q/s"}};
  // Now-timeslice latency (~15 us, mostly planning and a live-tier scan)
  // swings with the host's memory speed far more than the other figures
  // (quartile spread 0.17-0.29 of its median over ten runs, against
  // 0.05-0.12), so it is reported with the per-layer figures, ungated.
  for (const char* q : {"interval", "timeslice", "knn"}) {
    m.push_back({std::string(q) + "_p50_us", "us"});
    m.push_back({std::string(q) + "_p99_us", "us"});
  }
  m.push_back({"recover_s", "s"});
  m.push_back({"peak_rss_mb", "MB"});
  m.push_back({"write_bytes_per_rec", "B/rec"});
  m.push_back({"stored_bytes_per_entry", "B/entry"});
  return m;
}

std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> m = {
      {"pager.alloc_calls", "1/rec"},   {"pager.alloc_us", "us/rec"},
      {"pager.free_calls", "1/rec"},    {"pager.free_us", "us/rec"},
      {"pager.write_pages", "1/rec"},   {"pager.write_us", "us/rec"},
      {"pager.read_pages", "1/q"},      {"pager.read_us", "us/q"},
      {"pager.read_syscalls", "1/q"},   {"pager.sync_calls", "1/rec"},
      {"pager.sync_us", "us/rec"},
      {"pool.logical_reads_per_q", "1/q"},
      {"pool.physical_reads_per_q", "1/q"},
      {"pool.hit_ratio", "ratio"},
      {"pool.physical_writes_per_rec", "1/rec"},
      {"pool.coalesced_writes", "1/rec"},
      {"pool.uring_submits", "1/q"},    {"pool.uring_fallbacks", "1/q"},
      {"wal.append_calls", "1/rec"},    {"wal.append_bytes_per_rec", "B/rec"},
      {"wal.append_us", "us/rec"},      {"wal.sync_calls", "1/rec"},
      {"wal.sync_us", "us/rec"},        {"wal.forced_syncs", "1/rec"},
      {"swst.recover_replay_us", "us"}, {"swst.recover_open_us", "us"},
      {"swst.close_us", "us/call"},     {"swst.insert_current_us", "us/call"},
      {"swst.advance_us", "us/call"},   {"swst.checkpoint_us", "us/call"},
      {"swst.insert_batch_us", "us/call"},
  };
  for (const char* q : kQName) {
    for (const char* s : kStageName) {
      m.push_back({std::string(q) + "." + s + "_us", "us/q"});
    }
  }
  for (const char* q : kQName) {
    for (const char* c :
         {"node_accesses_per_q", "columns_per_q", "memo_pruned_columns_per_q",
          "key_ranges_per_q", "candidates_per_q", "live_candidates_per_q",
          "live_only_cells_per_q"}) {
      m.push_back({std::string(q) + "." + c, "1/q"});
    }
    m.push_back({std::string(q) + ".results_per_candidate", "ratio"});
  }
  m.push_back({"memo.bytes", "B"});
  m.push_back({"live.entries", "count"});
  m.push_back({"btree.live_trees", "count"});
  m.push_back({"btree.max_height", "count"});
  m.push_back({"pager.live_pages", "count"});
  m.push_back({"trace.overhead_pct", "%"});
  m.push_back({"now_p50_us", "us"});
  m.push_back({"now_p99_us", "us"});
  return m;
}

/// Everything one run measured, plus its operation counts and verdict.
struct Results {
  std::map<std::string, double> v;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string why;  ///< First correctness failure.

  void Incorrect(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

// ---------------------------------------------------------------------------
// Shared pieces of the workloads.

/// The paper's streaming protocol with a timer around each public call: on
/// each arrival close the object's open entry and insert a new current
/// one; `Advance` whenever the arrival enters a new slide.
class Streamer {
 public:
  Streamer(SwstIndex* idx, Oracle* oracle, const SwstOptions& o)
      : idx_(idx), oracle_(oracle), slide_(o.slide), dmax_(o.max_duration) {}

  Status Arrive(const GstdRecord& r) {
    RotateCpu();
    const uint64_t slide = r.t / slide_;
    if (slide != last_slide_) {
      last_slide_ = slide;
      const uint64_t t0 = NowNs();
      const Status st = idx_->Advance(r.t);
      advance_ns += NowNs() - t0;
      ++advance_calls;
      if (!st.ok()) return st;
      oracle_->Tick(r.t);
      oracle_->DropExpiredPrefix();
    }
    auto it = open_.find(r.oid);
    if (it != open_.end()) {
      const swst::Duration d = r.t - it->second.start;
      if (d >= 1 && d <= dmax_) {
        const uint64_t t0 = NowNs();
        const Status st = idx_->CloseCurrent(it->second, d);
        close_ns += NowNs() - t0;
        ++close_calls;
        if (!st.ok()) return st;
        oracle_->Close(r.oid, d);
      }
    }
    const Entry cur{r.oid, r.pos, r.t, swst::kUnknownDuration};
    const uint64_t t0 = NowNs();
    const Status st = idx_->Insert(cur);
    insert_ns += NowNs() - t0;
    ++insert_calls;
    if (!st.ok()) return st;
    oracle_->Insert(cur);
    open_[r.oid] = cur;
    ++arrivals;
    return Status::OK();
  }

  /// Continues the stream on a reopened index.
  void Attach(SwstIndex* idx) { idx_ = idx; }

  Status Checkpoint(PageId* meta) {
    const uint64_t t0 = NowNs();
    const Status st = idx_->Checkpoint(meta);
    checkpoint_ns += NowNs() - t0;
    ++checkpoint_calls;
    return st;
  }

  uint64_t ingest_ns() const {
    return close_ns + insert_ns + advance_ns + checkpoint_ns;
  }
  void ResetCounters() {
    arrivals = close_calls = close_ns = insert_calls = insert_ns = 0;
    advance_calls = advance_ns = checkpoint_calls = checkpoint_ns = 0;
  }

  uint64_t arrivals = 0;
  uint64_t close_calls = 0, close_ns = 0;
  uint64_t insert_calls = 0, insert_ns = 0;
  uint64_t advance_calls = 0, advance_ns = 0;
  uint64_t checkpoint_calls = 0, checkpoint_ns = 0;

 private:
  SwstIndex* idx_;
  Oracle* oracle_;
  swst::Timestamp slide_;
  swst::Duration dmax_;
  uint64_t last_slide_ = 0;
  std::unordered_map<swst::ObjectId, Entry> open_;
};

/// Write-path counters: the wrappers', the pool's and the process's bytes
/// written. Plain data, so a durable child can send its deltas through a
/// pipe.
struct WriteCounters {
  PagerCounters pager;
  WalCounters wal;
  uint64_t phys_writes = 0, coalesced = 0, forced_syncs = 0, wchar = 0;

  static WriteCounters Take(const CountingPager& p, const CountingWalStore* w,
                            const BufferPool& pool) {
    WriteCounters s;
    s.pager = p.counters();
    if (w != nullptr) s.wal = w->counters();
    const swst::IoStats io = pool.stats();
    s.phys_writes = io.physical_writes;
    s.coalesced = io.coalesced_writes;
    s.forced_syncs = io.wal_forced_syncs;
    s.wchar = WrittenBytes();
    return s;
  }
};

#define SWSTBENCH_WRITE_FIELDS(X)                                          \
  X(pager.alloc_calls) X(pager.alloc_ns) X(pager.free_calls)               \
  X(pager.free_ns) X(pager.write_pages) X(pager.write_ns)                  \
  X(pager.sync_calls) X(pager.sync_ns) X(wal.append_calls)                 \
  X(wal.append_bytes) X(wal.append_ns) X(wal.sync_calls) X(wal.sync_ns)    \
  X(phys_writes) X(coalesced) X(forced_syncs) X(wchar)

/// The counts between two snapshots.
WriteCounters Delta(const WriteCounters& a, const WriteCounters& b) {
  WriteCounters d;
#define SWSTBENCH_SUB(f) d.f = b.f - a.f;
  SWSTBENCH_WRITE_FIELDS(SWSTBENCH_SUB)
#undef SWSTBENCH_SUB
  return d;
}

void Add(WriteCounters* sum, const WriteCounters& d) {
#define SWSTBENCH_ADD(f) sum->f += d.f;
  SWSTBENCH_WRITE_FIELDS(SWSTBENCH_ADD)
#undef SWSTBENCH_ADD
}

/// Per-arrival write-path metrics.
void ReportWrites(const WriteCounters& d, uint64_t arrivals, Results* out) {
  const double n = static_cast<double>(arrivals);
  auto per = [n](uint64_t x) { return Ratio(static_cast<double>(x), n); };
  out->v["pager.alloc_calls"] = per(d.pager.alloc_calls);
  out->v["pager.alloc_us"] = per(d.pager.alloc_ns) / 1e3;
  out->v["pager.free_calls"] = per(d.pager.free_calls);
  out->v["pager.free_us"] = per(d.pager.free_ns) / 1e3;
  out->v["pager.write_pages"] = per(d.pager.write_pages);
  out->v["pager.write_us"] = per(d.pager.write_ns) / 1e3;
  out->v["pager.sync_calls"] = per(d.pager.sync_calls);
  out->v["pager.sync_us"] = per(d.pager.sync_ns) / 1e3;
  out->v["pool.physical_writes_per_rec"] = per(d.phys_writes);
  out->v["pool.coalesced_writes"] = per(d.coalesced);
  out->v["wal.append_calls"] = per(d.wal.append_calls);
  out->v["wal.append_bytes_per_rec"] = per(d.wal.append_bytes);
  out->v["wal.append_us"] = per(d.wal.append_ns) / 1e3;
  out->v["wal.sync_calls"] = per(d.wal.sync_calls);
  out->v["wal.sync_us"] = per(d.wal.sync_ns) / 1e3;
  out->v["wal.forced_syncs"] = per(d.forced_syncs);
}

void ReportStreamerCalls(const Streamer& s, Results* out) {
  auto per_call = [](uint64_t ns, uint64_t calls) {
    return Ratio(Us(ns), static_cast<double>(calls));
  };
  out->v["swst.close_us"] = per_call(s.close_ns, s.close_calls);
  out->v["swst.insert_current_us"] = per_call(s.insert_ns, s.insert_calls);
  out->v["swst.advance_us"] = per_call(s.advance_ns, s.advance_calls);
  out->v["swst.checkpoint_us"] = per_call(s.checkpoint_ns, s.checkpoint_calls);
}

/// Latency percentiles, throughput, per-stage and per-query counters of a
/// query runner.
void ReportQueries(const QueryRunner& qr, Results* out) {
  out->v["queries_per_s"] =
      Ratio(static_cast<double>(qr.queries()), qr.total_seconds());
  double overhead_log = 0;
  int overhead_types = 0;
  for (int t = 0; t < kQTypes; ++t) {
    const TypeStats& ts = qr.type(t);
    const std::string q = kQName[t];
    // In trace mode the latencies come from the untraced queries only, so
    // that span building does not leak into them.
    const std::vector<double>& us =
        ts.untraced_us.empty() ? ts.us : ts.untraced_us;
    out->v[q + "_p50_us"] = Percentile(us, 0.50);
    out->v[q + "_p99_us"] = Percentile(us, 0.99);
    std::fprintf(stderr,
                 "%-9s n=%zu  p10 %.1f  p25 %.1f  p50 %.1f  p75 %.1f  p90 %.1f"
                 "  p99 %.1f us\n",
                 q.c_str(), us.size(), Percentile(us, 0.10),
                 Percentile(us, 0.25), Percentile(us, 0.50),
                 Percentile(us, 0.75), Percentile(us, 0.90),
                 Percentile(us, 0.99));
    const double n = static_cast<double>(ts.us.size());
    auto per = [n](uint64_t x) { return Ratio(static_cast<double>(x), n); };
    const swst::QueryStats& s = ts.sum;
    out->v[q + ".node_accesses_per_q"] = per(s.node_accesses);
    out->v[q + ".columns_per_q"] = per(s.columns);
    out->v[q + ".memo_pruned_columns_per_q"] = per(s.memo_pruned_columns);
    out->v[q + ".key_ranges_per_q"] = per(s.key_ranges);
    out->v[q + ".candidates_per_q"] = per(s.candidates);
    out->v[q + ".live_candidates_per_q"] = per(s.live_candidates);
    out->v[q + ".live_only_cells_per_q"] = per(s.live_only_cells);
    out->v[q + ".results_per_candidate"] =
        Ratio(static_cast<double>(s.results),
              static_cast<double>(s.candidates + s.live_candidates));
    const double traced = static_cast<double>(ts.traced_us.size());
    for (int st = 0; st < kStages; ++st) {
      out->v[q + "." + kStageName[st] + "_us"] =
          Ratio(Us(ts.stage_ns[st]), traced);
    }
    if (!ts.traced_us.empty() && !ts.untraced_us.empty()) {
      overhead_log += std::log(Percentile(ts.traced_us, 0.5) /
                               Percentile(ts.untraced_us, 0.5));
      ++overhead_types;
    }
  }
  if (overhead_types > 0) {
    out->v["trace.overhead_pct"] =
        100.0 * (std::exp(overhead_log / overhead_types) - 1.0);
  }
  const ReadCounters& r = qr.reads();
  const double nq = static_cast<double>(qr.queries());
  out->v["pool.logical_reads_per_q"] = Ratio(static_cast<double>(r.logical), nq);
  out->v["pool.physical_reads_per_q"] =
      Ratio(static_cast<double>(r.physical), nq);
  out->v["pool.hit_ratio"] =
      r.logical == 0 ? 1.0
                     : 1.0 - static_cast<double>(r.physical) /
                                 static_cast<double>(r.logical);
  out->v["pool.uring_submits"] = Ratio(static_cast<double>(r.uring_submits), nq);
  out->v["pool.uring_fallbacks"] =
      Ratio(static_cast<double>(r.uring_fallbacks), nq);
  out->v["pager.read_pages"] = Ratio(static_cast<double>(r.read_pages), nq);
  out->v["pager.read_us"] = Ratio(Us(r.read_ns), nq);
  out->v["pager.read_syscalls"] = Ratio(static_cast<double>(r.read_syscalls), nq);
}

void ReportMemory(const SwstIndex& idx, const Pager& pager, Results* out) {
  auto ds = idx.GetDebugStats();
  if (!ds.ok()) {
    out->Incorrect("GetDebugStats: " + ds.status().ToString());
    return;
  }
  out->v["memo.bytes"] = static_cast<double>(ds->memo_bytes);
  out->v["live.entries"] = static_cast<double>(ds->current_entries);
  out->v["btree.live_trees"] = static_cast<double>(ds->live_trees);
  out->v["btree.max_height"] = static_cast<double>(ds->max_tree_height);
  out->v["pager.live_pages"] = static_cast<double>(pager.live_page_count());
}

void ReportRecover(const std::vector<double>& total_us,
                   const std::vector<double>& replay_us, Results* out) {
  std::vector<double> open_us;
  for (size_t i = 0; i < total_us.size(); ++i) {
    open_us.push_back(total_us[i] - replay_us[i]);
  }
  out->v["recover_s"] = Percentile(total_us, 0.5) / 1e6;
  out->v["swst.recover_replay_us"] = Percentile(replay_us, 0.5);
  out->v["swst.recover_open_us"] = Percentile(open_us, 0.5);
}

/// The index, its pool and its pager, opened together and closed in
/// dependency order.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { Close(); }

  std::unique_ptr<CountingPager> pager;
  /// Set when the stack owns its WAL store; the stream workload keeps its
  /// in-memory store outside, so that the log survives a reopen.
  std::unique_ptr<CountingWalStore> store;
  std::unique_ptr<Wal> wal;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<SwstIndex> idx;

  void Close() {
    idx.reset();
    pool.reset();
    wal.reset();
    store.reset();
    pager.reset();
  }
};

/// Opens the data file (and a WAL over `store`, when given) under a pool.
Status OpenStack(const std::string& db, bool truncate, size_t pool_pages,
                 WalStore* store, bool timed, Stack* s) {
  auto pager = Pager::OpenFile(db, truncate);
  if (!pager.ok()) return pager.status();
  s->pager = std::make_unique<CountingPager>(std::move(*pager), timed);
  if (store != nullptr) {
    auto wal = Wal::Open(store);
    if (!wal.ok()) return wal.status();
    s->wal = std::move(*wal);
  }
  s->pool = std::make_unique<BufferPool>(s->pager.get(), pool_pages);
  if (s->wal != nullptr) s->pool->AttachWal(s->wal.get());
  return Status::OK();
}

SwstOptions WithWal(SwstOptions o, Wal* wal) {
  o.wal = wal;
  return o;
}

/// Reopens a closed, checkpointed index through `Recover` kReopens times
/// (the log suffix is empty, so this times opening the checkpoint, memo
/// rebuild included) and reports the median. `s` holds the last reopened
/// stack on success.
bool TimedReopens(const std::string& db, size_t pool_pages, WalStore* store,
                  const SwstOptions& base, PageId meta, bool timed, Stack* s,
                  Results* out) {
  std::vector<double> total_us, replay_us;
  for (int i = 0; i < kReopens; ++i) {
    SwstIndex::RecoverStats rs;
    RotateCpu();
    s->Close();
    const uint64_t t0 = NowNs();
    Status st = OpenStack(db, false, pool_pages, store, timed, s);
    if (st.ok()) {
      auto idx = SwstIndex::Recover(s->pool.get(), WithWal(base, s->wal.get()),
                                    meta, &rs);
      st = idx.status();
      if (st.ok()) s->idx = std::move(*idx);
    }
    const uint64_t t1 = NowNs();
    ++out->attempted;
    if (!st.ok()) {
      out->Incorrect("reopen after checkpoint: " + st.ToString());
      return false;
    }
    if (rs.records_replayed != 0) {
      out->Incorrect("Recover right after a checkpoint replayed " +
                     std::to_string(rs.records_replayed) + " records");
      return false;
    }
    total_us.push_back(Us(t1 - t0));
    replay_us.push_back(static_cast<double>(rs.replay_us));
  }
  ReportRecover(total_us, replay_us, out);
  return true;
}

bool SameWindow(const SwstIndex& idx, const Oracle& oracle, Results* out) {
  const TimeInterval a = idx.QueriablePeriod();
  const TimeInterval b = oracle.window();
  if (a == b) return true;
  out->Incorrect("index window [" + std::to_string(a.lo) + "," +
                 std::to_string(a.hi) + "] != oracle window [" +
                 std::to_string(b.lo) + "," + std::to_string(b.hi) + "]");
  return false;
}

/// Checks `per_type` queries of each type on `s` against the oracle, with a
/// runner of its own so the latencies of the measured queries stay apart.
bool CheckSample(const Stack& s, const Oracle& oracle, int per_type,
                 std::mt19937_64& rng, Results* out) {
  if (!SameWindow(*s.idx, oracle, out)) return false;
  QueryRunner check(false);
  check.Attach(s.idx.get(), s.pool.get(), s.pager.get());
  for (int i = 0; i < per_type * kQTypes; ++i) {
    const Query q = MakeQuery(static_cast<QType>(i % kQTypes),
                              s.idx->options().space, oracle.window(), rng);
    ++out->attempted;
    if (!check.Run(q, &oracle)) {
      out->Incorrect("after reopen: " + check.error());
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// stream: ingest beside the query mix on a file pager with a small pool and
// a WAL on the memory store.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

#define FATAL_IF_ERROR(expr)                                             \
  do {                                                                   \
    const Status _st = (expr);                                           \
    if (!_st.ok()) {                                                     \
      std::fprintf(stderr, "%s:%d: %s\n", __FILE__, __LINE__,            \
                   _st.ToString().c_str());                              \
      return false;                                                      \
    }                                                                    \
  } while (0)

bool RunStream(const Args& a, Results* out) {
  const SwstOptions base = PaperOptions();
  const std::string db = a.dir + "/stream.db";
  CountingWalStore store(WalStore::OpenMemory(), a.trace);
  Stack s;
  FATAL_IF_ERROR(OpenStack(db, true, kStreamPoolPages, &store, a.trace, &s));
  {
    auto idx = SwstIndex::Create(s.pool.get(), WithWal(base, s.wal.get()));
    FATAL_IF_ERROR(idx.status());
    s.idx = std::move(*idx);
  }
  Oracle oracle(base.window_size, base.slide);
  Streamer ingest(s.idx.get(), &oracle, base);
  GstdGenerator gen(PaperStream(Mix(a.seed, 1), kStreamReports));
  GstdRecord rec;

  // Set-up: fill the window, then checkpoint.
  while (gen.Next(&rec)) {
    FATAL_IF_ERROR(ingest.Arrive(rec));
    if (rec.t >= base.window_size) break;
  }
  PageId meta = swst::kInvalidPageId;
  FATAL_IF_ERROR(ingest.Checkpoint(&meta));
  ingest.ResetCounters();
  out->v["setup_s"] = Seconds(NowNs() - g_process_start_ns);

  // Measured phase: one query of the mix every kQueryEvery arrivals, a
  // checkpoint every kCheckpointEvery, until the time is up at the end of a
  // whole mix cycle (or the stream ends). At the first arrival of epoch 2
  // (t >= 2E: epoch 0 has just been dropped, so the data file is at its
  // high-water mark) the index restarts: checkpoint, close, reopen.
  QueryRunner qr(a.trace);
  qr.Attach(s.idx.get(), s.pool.get(), s.pager.get());
  std::mt19937_64 qrng(Mix(a.seed, 2));
  WriteCounters w0 = WriteCounters::Take(*s.pager, &store, *s.pool);
  WriteCounters writes;
  const uint64_t t_end =
      NowNs() + static_cast<uint64_t>(a.seconds * 1e9);
  uint64_t issued = 0;
  bool restarted = false;
  bool stream_ended = true;
  while (gen.Next(&rec)) {
    FATAL_IF_ERROR(ingest.Arrive(rec));
    if (ingest.arrivals % kCheckpointEvery == 0) {
      FATAL_IF_ERROR(ingest.Checkpoint(&meta));
    }
    if (!restarted && rec.t >= 2 * base.epoch_length()) {
      restarted = true;
      Add(&writes, Delta(w0, WriteCounters::Take(*s.pager, &store, *s.pool)));
      FATAL_IF_ERROR(s.idx->Checkpoint(&meta));
      ++out->attempted;
      out->v["stored_bytes_per_entry"] =
          Ratio(static_cast<double>(TreeBytes(db) + store.stored_bytes()),
                static_cast<double>(oracle.InWindow()));
      if (!TimedReopens(db, kStreamPoolPages, &store, base, meta, a.trace, &s,
                        out) ||
          !CheckSample(s, oracle, kReopenChecks, qrng, out)) {
        return true;
      }
      ingest.Attach(s.idx.get());
      qr.Attach(s.idx.get(), s.pool.get(), s.pager.get());
      w0 = WriteCounters::Take(*s.pager, &store, *s.pool);
    }
    if (ingest.arrivals % kQueryEvery != 0) continue;
    const QType type = static_cast<QType>(issued % kQTypes);
    const bool verify = (issued / kQTypes) % kStreamVerifyEvery == 0;
    ++issued;
    if (verify && !SameWindow(*s.idx, oracle, out)) break;
    const Query q = MakeQuery(type, base.space, oracle.window(), qrng);
    if (!qr.Run(q, verify ? &oracle : nullptr)) {
      out->Incorrect(qr.error());
      break;
    }
    if (restarted && issued % kQTypes == 0 && NowNs() >= t_end) {
      stream_ended = false;
      break;
    }
  }
  if (stream_ended && out->correct) {
    std::fprintf(stderr, "note: the stream ended before the run time\n");
  }
  Add(&writes, Delta(w0, WriteCounters::Take(*s.pager, &store, *s.pool)));
  out->attempted += ingest.arrivals + ingest.advance_calls +
                    ingest.checkpoint_calls + qr.queries();
  out->v["ingest_rec_per_s"] =
      Ratio(static_cast<double>(ingest.arrivals), Seconds(ingest.ingest_ns()));
  out->v["write_bytes_per_rec"] =
      Ratio(static_cast<double>(writes.wchar + writes.wal.append_bytes),
            static_cast<double>(ingest.arrivals));
  ReportWrites(writes, ingest.arrivals, out);
  ReportStreamerCalls(ingest, out);
  ReportQueries(qr, out);
  ReportMemory(*s.idx, *s.pager, out);
  std::fprintf(stderr, "stream: %" PRIu64 " arrivals to t=%" PRIu64
                       ", %" PRIu64 " queries (%" PRIu64 " checked)\n",
               ingest.arrivals, oracle.clock(), qr.queries(), qr.verified());
  return true;
}

// ---------------------------------------------------------------------------
// query_warm: a read-only query mix over an index whose pages all sit in
// the pool.

bool RunQueryWarm(const Args& a, Results* out) {
  const SwstOptions base = PaperOptions();
  const std::string db = a.dir + "/warm.db";
  Stack s;
  FATAL_IF_ERROR(OpenStack(db, true, kWarmPoolPages, nullptr, a.trace, &s));
  {
    auto idx = SwstIndex::Create(s.pool.get(), base);
    FATAL_IF_ERROR(idx.status());
    s.idx = std::move(*idx);
  }
  Oracle oracle(base.window_size, base.slide);
  Streamer ingest(s.idx.get(), &oracle, base);
  // Only epochs cut/E - 1 and cut/E are live at the cut; the records before
  // the older one's first start can leave nothing in the index, so the load
  // begins there and ends with the same trees, memo and live tier as a load
  // of the whole prefix.
  const swst::Timestamp load_from =
      (kWarmCut / base.epoch_length() - 1) * base.epoch_length();
  GstdGenerator gen(PaperStream(Mix(a.seed, 1)));
  GstdRecord rec;
  const WriteCounters w0 = WriteCounters::Take(*s.pager, nullptr, *s.pool);
  while (gen.Next(&rec) && rec.t <= kWarmCut) {
    if (rec.t < load_from) continue;
    FATAL_IF_ERROR(ingest.Arrive(rec));
  }
  PageId meta = swst::kInvalidPageId;
  FATAL_IF_ERROR(ingest.Checkpoint(&meta));
  const WriteCounters wd =
      Delta(w0, WriteCounters::Take(*s.pager, nullptr, *s.pool));
  out->v["ingest_rec_per_s"] =
      Ratio(static_cast<double>(ingest.arrivals), Seconds(ingest.ingest_ns()));
  out->v["write_bytes_per_rec"] = Ratio(static_cast<double>(wd.wchar),
                                        static_cast<double>(ingest.arrivals));
  ReportWrites(wd, ingest.arrivals, out);
  ReportStreamerCalls(ingest, out);
  s.Close();

  // Reopen from the checkpoint; the memo rebuild reads every tree page.
  if (!TimedReopens(db, kWarmPoolPages, nullptr, base, meta, a.trace, &s,
                    out)) {
    return true;
  }
  if (s.pager->live_page_count() + 1 > kWarmPoolPages) {
    out->Incorrect("pool of " + std::to_string(kWarmPoolPages) +
                   " pages cannot hold the index's " +
                   std::to_string(s.pager->live_page_count()));
  }
  if (!SameWindow(*s.idx, oracle, out)) return true;

  // The query set, interleaved by type; the first pass checks every answer
  // against the oracle and warms the pool, later rounds must reproduce the
  // same answers.
  std::mt19937_64 qrng(Mix(a.seed, 2));
  std::vector<Query> set;
  for (int i = 0; i < kWarmSetPerType * kQTypes; ++i) {
    set.push_back(MakeQuery(static_cast<QType>(i % kQTypes), base.space,
                            oracle.window(), qrng));
  }
  std::vector<uint64_t> hashes(set.size(), 0);
  QueryRunner warm(false);
  warm.Attach(s.idx.get(), s.pool.get(), s.pager.get());
  for (size_t i = 0; i < set.size(); ++i) {
    ++out->attempted;
    if (!warm.Run(set[i], &oracle, &hashes[i])) {
      out->Incorrect(warm.error());
      return true;
    }
  }
  out->v["stored_bytes_per_entry"] =
      Ratio(static_cast<double>(TreeBytes(db)),
            static_cast<double>(oracle.InWindow()));
  out->v["setup_s"] = Seconds(NowNs() - g_process_start_ns);

  QueryRunner qr(a.trace);
  qr.Attach(s.idx.get(), s.pool.get(), s.pager.get());
  const uint64_t t_end = NowNs() + static_cast<uint64_t>(a.seconds * 1e9);
  uint64_t rounds = 0;
  while (NowNs() < t_end) {
    for (size_t i = 0; i < set.size(); ++i) {
      ++out->attempted;
      if (!qr.Run(set[i], nullptr, &hashes[i])) {
        out->Incorrect(qr.error());
        return true;
      }
    }
    ++rounds;
  }
  ReportQueries(qr, out);
  ReportMemory(*s.idx, *s.pager, out);
  std::fprintf(stderr, "query_warm: %" PRIu64 " arrivals loaded, %" PRIu64
                       " rounds of %zu queries\n",
               ingest.arrivals, rounds, set.size());
  return true;
}

// ---------------------------------------------------------------------------
// durable: group-commit ingest in a child process over a directory WAL with
// one fdatasync per batch, SIGKILL, and Recover in the parent.

/// What a durable child reports through its pipe after its last batch.
struct ChildReport {
  uint64_t entries = 0;
  uint64_t batches = 0;
  uint64_t insert_batch_ns = 0;
  uint64_t checkpoint_ns = 0;
  WriteCounters writes;
};

struct ChildMsg {
  enum Kind : uint32_t { kAck = 1, kCheckpoint = 2, kReport = 3 };
  uint32_t kind = 0;
  uint32_t pad = 0;
  uint64_t value = 0;
};

bool WriteFull(int fd, const void* p, size_t n) {
  const char* b = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t w = ::write(fd, b, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    b += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadFull(int fd, void* p, size_t n) {
  char* b = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t r = ::read(fd, b, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    b += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

/// Closed entries in the order their objects' next reports close them: the
/// same GSTD stream, delivered as group-commit input.
std::vector<Entry> ClosedEntries(uint64_t seed, size_t n) {
  GstdGenerator gen(PaperStream(seed));
  std::unordered_map<swst::ObjectId, GstdRecord> last;
  std::vector<Entry> out;
  GstdRecord rec;
  while (out.size() < n && gen.Next(&rec)) {
    auto it = last.find(rec.oid);
    if (it != last.end()) {
      out.push_back(Entry{rec.oid, it->second.pos, it->second.t,
                          rec.t - it->second.t});
    }
    last[rec.oid] = rec;
  }
  return out;
}

/// Child body: creates the index over fresh files, ingests the batches
/// (taking a checkpoint after `checkpoint_after` of them, if non-zero),
/// reports, then waits to be killed. Never returns.
[[noreturn]] void ChildIngest(const std::string& dir,
                              const std::vector<Entry>& entries,
                              size_t checkpoint_after, bool timed, int out_fd,
                              int wait_fd) {
  auto die = [](const char* what, const Status& st) {
    std::fprintf(stderr, "durable child: %s: %s\n", what,
                 st.ToString().c_str());
    ::_exit(3);
  };
  auto store = WalStore::OpenDir(dir + "/wal");
  if (!store.ok()) die("OpenDir", store.status());
  CountingWalStore wal_store(std::move(*store), timed);
  Stack s;
  Status st = OpenStack(dir + "/data.db", true, kDurablePoolPages, &wal_store,
                        timed, &s);
  if (!st.ok()) die("open", st);
  auto idx = SwstIndex::Create(s.pool.get(), WithWal(PaperOptions(), s.wal.get()));
  if (!idx.ok()) die("Create", idx.status());
  s.idx = std::move(*idx);

  ChildReport rep;
  uint64_t pipe_bytes = 0;
  const WriteCounters w0 = WriteCounters::Take(*s.pager, &wal_store, *s.pool);
  for (size_t b = 0; b * kBatch < entries.size(); ++b) {
    RotateCpu();
    const size_t n = std::min(kBatch, entries.size() - b * kBatch);
    const uint64_t t0 = NowNs();
    st = s.idx->InsertBatch(entries.data() + b * kBatch, n);
    rep.insert_batch_ns += NowNs() - t0;
    if (!st.ok()) die("InsertBatch", st);
    rep.entries += n;
    ++rep.batches;
    ChildMsg ack{ChildMsg::kAck, 0, b + 1};
    if (!WriteFull(out_fd, &ack, sizeof ack)) ::_exit(4);
    pipe_bytes += sizeof ack;
    if (rep.batches == checkpoint_after) {
      PageId meta = swst::kInvalidPageId;
      const uint64_t c0 = NowNs();
      st = s.idx->Checkpoint(&meta);
      rep.checkpoint_ns += NowNs() - c0;
      if (!st.ok()) die("Checkpoint", st);
      ChildMsg m{ChildMsg::kCheckpoint, 0, meta};
      if (!WriteFull(out_fd, &m, sizeof m)) ::_exit(4);
      pipe_bytes += sizeof m;
    }
  }
  rep.writes = Delta(w0, WriteCounters::Take(*s.pager, &wal_store, *s.pool));
  rep.writes.wchar -= pipe_bytes;
  ChildMsg m{ChildMsg::kReport, 0, sizeof rep};
  if (!WriteFull(out_fd, &m, sizeof m) || !WriteFull(out_fd, &rep, sizeof rep)) {
    ::_exit(4);
  }
  char c;
  while (::read(wait_fd, &c, 1) != 0) {
  }
  ::_exit(5);  // The parent went away without killing this child.
}

/// Forks a child that ingests `entries`, collects its acknowledgements,
/// SIGKILLs it while it waits, and reaps it. `acked` is the number of
/// batches acknowledged; `meta` the checkpoint's metadata page, if any.
bool CrashChild(const std::string& dir, const std::vector<Entry>& entries,
                size_t checkpoint_after, bool timed, size_t* acked,
                PageId* meta, ChildReport* rep) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  int to_parent[2];
  int to_child[2];
  if (::pipe(to_parent) != 0) return false;
  if (::pipe(to_child) != 0) {
    ::close(to_parent[0]);
    ::close(to_parent[1]);
    return false;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::close(to_parent[0]);
    ::close(to_child[1]);
    ChildIngest(dir, entries, checkpoint_after, timed, to_parent[1],
                to_child[0]);
  }
  ::close(to_parent[1]);
  ::close(to_child[0]);
  *acked = 0;
  *meta = swst::kInvalidPageId;
  bool ok = false;
  ChildMsg m;
  while (ReadFull(to_parent[0], &m, sizeof m)) {
    if (m.kind == ChildMsg::kAck) {
      *acked = m.value;
    } else if (m.kind == ChildMsg::kCheckpoint) {
      *meta = m.value;
    } else if (m.kind == ChildMsg::kReport) {
      ok = m.value == sizeof *rep && ReadFull(to_parent[0], rep, sizeof *rep);
      break;
    }
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ::close(to_parent[0]);
  ::close(to_child[1]);
  return ok && WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

/// Opens the crashed files and times `SwstIndex::Recover`.
swst::Result<std::unique_ptr<SwstIndex>> RecoverDir(
    const std::string& dir, PageId meta, bool timed, Stack* s,
    SwstIndex::RecoverStats* rs, uint64_t* ns) {
  RotateCpu();
  const uint64_t t0 = NowNs();
  auto store = WalStore::OpenDir(dir + "/wal");
  if (!store.ok()) return store.status();
  s->store = std::make_unique<CountingWalStore>(std::move(*store), timed);
  SWST_RETURN_IF_ERROR(OpenStack(dir + "/data.db", false, kDurablePoolPages,
                                 s->store.get(), timed, s));
  auto idx = SwstIndex::Recover(s->pool.get(),
                                WithWal(PaperOptions(), s->wal.get()), meta, rs);
  *ns = NowNs() - t0;
  return idx;
}

bool RunDurable(const Args& a, Results* out) {
  const SwstOptions base = PaperOptions();
  const std::vector<Entry> entries =
      ClosedEntries(Mix(a.seed, 1), kBatch * kDurableBatches);
  const std::vector<Entry> fixed =
      ClosedEntries(kFixedSeed,
                    kBatch * (kFixedPrefixBatches + kFixedTailBatches));
  if (entries.size() != kBatch * kDurableBatches ||
      fixed.size() != kBatch * (kFixedPrefixBatches + kFixedTailBatches)) {
    std::fprintf(stderr, "durable: stream too short\n");
    return false;
  }
  // What each recovered index must answer: every acknowledged entry.
  Oracle oracle(base.window_size, base.slide);
  for (const Entry& e : entries) oracle.Insert(e);
  Oracle fixed_oracle(base.window_size, base.slide);
  for (const Entry& e : fixed) fixed_oracle.Insert(e);

  // Round 0 is the set-up: a whole round, checked and counted like the
  // others, whose figures are left out. Set-up time is then the library's
  // cold create, group-commit ingest, kill and Recover, not only the
  // benchmark's input generation.
  const std::string dir = a.dir + "/durable";
  std::mt19937_64 qrng(Mix(a.seed, 2));
  QueryRunner qr(a.trace);
  QueryRunner setup_qr(false);
  std::vector<double> recover_us, replay_us;
  ChildReport ingest;  // Summed over the seeded children.
  uint64_t checkpoint_ns = 0, checkpoints = 0;
  uint64_t t_end = 0;
  int rounds = 0;
  for (;; ++rounds) {
    const bool measured = rounds > 0;
    if (rounds == 1) {
      out->v["setup_s"] = Seconds(NowNs() - g_process_start_ns);
      t_end = NowNs() + static_cast<uint64_t>(a.seconds * 1e9);
    }
    if (rounds > kDurableMinRounds && NowNs() >= t_end) break;
    QueryRunner& runner = measured ? qr : setup_qr;
    // 1. Crash before any checkpoint; recover the whole log.
    size_t acked = 0;
    PageId meta = swst::kInvalidPageId;
    ChildReport rep;
    out->attempted += kDurableBatches;
    if (!CrashChild(dir, entries, 0, a.trace, &acked, &meta, &rep) ||
        acked != kDurableBatches) {
      std::fprintf(stderr, "durable: child failed after %zu batches\n", acked);
      return false;
    }
    if (measured) {
      ingest.entries += rep.entries;
      ingest.batches += rep.batches;
      ingest.insert_batch_ns += rep.insert_batch_ns;
      Add(&ingest.writes, rep.writes);
    }

    {
      Stack s;
      SwstIndex::RecoverStats rs;
      uint64_t ns = 0;
      ++out->attempted;
      auto idx = RecoverDir(dir, swst::kInvalidPageId, a.trace, &s, &rs, &ns);
      if (!idx.ok()) {
        out->Incorrect("Recover after a crash before any checkpoint: " +
                       idx.status().ToString());
        return true;
      }
      s.idx = std::move(*idx);
      if (measured) {
        recover_us.push_back(Us(ns));
        replay_us.push_back(static_cast<double>(rs.replay_us));
      }
      if (rs.records_replayed != entries.size()) {
        out->Incorrect("Recover replayed " +
                       std::to_string(rs.records_replayed) + " records, " +
                       std::to_string(entries.size()) + " were acknowledged");
        return true;
      }
      if (!SameWindow(*s.idx, oracle, out)) return true;
      runner.Attach(s.idx.get(), s.pool.get(), s.pager.get());
      const TimeInterval win = oracle.window();
      for (int i = 0; i < kDurableQueriesPerType * kQTypes; ++i) {
        const Query q =
            MakeQuery(static_cast<QType>(i % kQTypes), base.space, win, qrng);
        ++out->attempted;
        if (!runner.Run(q, &oracle)) {
          out->Incorrect("after Recover: " + runner.error());
          return true;
        }
      }
      ReportMemory(*s.idx, *s.pager, out);
      s.Close();
      out->v["stored_bytes_per_entry"] =
          Ratio(static_cast<double>(TreeBytes(dir)),
                static_cast<double>(oracle.InWindow()));
    }

    // 2. Crash after a checkpoint, on the fixed input: checkpoint, a tail of
    // batches, SIGKILL, Recover from the checkpoint.
    out->attempted += kFixedPrefixBatches + kFixedTailBatches + 1;
    if (!CrashChild(dir, fixed, kFixedPrefixBatches, a.trace, &acked, &meta,
                    &rep) ||
        acked != kFixedPrefixBatches + kFixedTailBatches ||
        meta == swst::kInvalidPageId) {
      std::fprintf(stderr, "durable: checkpointing child failed\n");
      return false;
    }
    if (measured) {
      checkpoint_ns += rep.checkpoint_ns;
      ++checkpoints;
    }
    {
      Stack s;
      SwstIndex::RecoverStats rs;
      uint64_t ns = 0;
      ++out->attempted;
      auto idx = RecoverDir(dir, meta, a.trace, &s, &rs, &ns);
      if (!idx.ok()) {
        // The known fault: pages the checkpoint references were freed and
        // overwritten after it, so Recover reports Corruption. Counted, not
        // hidden; any other error is a wrong result.
        if (!idx.status().IsCorruption()) {
          out->Incorrect("Recover after a checkpoint: " +
                         idx.status().ToString());
          return true;
        }
        ++out->failed;
        if (rounds == 0) {
          std::fprintf(stderr, "durable: Recover after a checkpoint: %s\n",
                       idx.status().ToString().c_str());
        }
      } else {
        s.idx = std::move(*idx);
        const uint64_t tail = kBatch * kFixedTailBatches;
        if (rs.records_replayed != tail) {
          out->Incorrect("Recover after a checkpoint replayed " +
                         std::to_string(rs.records_replayed) + " records, " +
                         std::to_string(tail) + " were acknowledged after it");
          return true;
        }
        std::mt19937_64 frng(kFixedSeed);
        if (!CheckSample(s, fixed_oracle, kReopenChecks, frng, out)) {
          return true;
        }
      }
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);

  out->v["ingest_rec_per_s"] = Ratio(static_cast<double>(ingest.entries),
                                     Seconds(ingest.insert_batch_ns));
  out->v["write_bytes_per_rec"] =
      Ratio(static_cast<double>(ingest.writes.wchar),
            static_cast<double>(ingest.entries));
  ReportWrites(ingest.writes, ingest.entries, out);
  out->v["swst.insert_batch_us"] =
      Ratio(Us(ingest.insert_batch_ns), static_cast<double>(ingest.batches));
  out->v["swst.checkpoint_us"] =
      Ratio(Us(checkpoint_ns), static_cast<double>(checkpoints));
  ReportQueries(qr, out);
  ReportRecover(recover_us, replay_us, out);
  std::fprintf(stderr, "durable: set-up round + %d rounds, %" PRIu64
                       " entries acked, %" PRIu64 " queries checked\n",
               rounds - 1, ingest.entries, qr.verified());
  return true;
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--dir") {
      a->dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->dir.empty() && a->seconds > 0 &&
         (a->workload == "stream" || a->workload == "query_warm" ||
          a->workload == "durable");
}

void PrintJson(const Results& r, const std::vector<MetricDef>& defs) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = r.v.find(defs[i].name);
    const double value = it == r.v.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name.c_str(), value,
                defs[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  g_process_start_ns = NowNs();
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: swst_e2e --workload stream|query_warm|durable "
                 "--seed N --seconds S --trace 0|1 --dir DIR\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(a.dir, ec);
  Results r;
  bool ran = false;
  if (a.workload == "stream") ran = RunStream(a, &r);
  if (a.workload == "query_warm") ran = RunQueryWarm(a, &r);
  if (a.workload == "durable") ran = RunDurable(a, &r);
  if (!ran) return 1;
  r.v["peak_rss_mb"] =
      static_cast<double>(ProcField("status", "VmHWM")) / 1024.0;

  const std::vector<MetricDef> e2e = EndToEndMetrics();
  const std::vector<MetricDef> layer = PerLayerMetrics();
  std::fprintf(stderr, "\n%-36s %16s  %s\n", "metric", "value", "unit");
  for (const auto* defs : {&e2e, &layer}) {
    for (const MetricDef& d : *defs) {
      auto it = r.v.find(d.name);
      std::fprintf(stderr, "%-36s %16.6g  %s\n", d.name.c_str(),
                   it == r.v.end() ? 0.0 : it->second, d.unit.c_str());
    }
    std::fprintf(stderr, "\n");
  }
  if (!r.correct) std::fprintf(stderr, "INCORRECT: %s\n", r.why.c_str());
  for (const MetricDef& d : e2e) {
    if (r.correct && r.v.count(d.name) == 0) {
      std::fprintf(stderr, "internal error: %s was not measured\n",
                   d.name.c_str());
      return 1;
    }
  }
  PrintJson(r, a.trace ? layer : e2e);
  return 0;
}

}  // namespace
}  // namespace swstbench

int main(int argc, char** argv) { return swstbench::Main(argc, argv); }
