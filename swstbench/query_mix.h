#ifndef SWSTBENCH_QUERY_MIX_H_
#define SWSTBENCH_QUERY_MIX_H_

// The query mix (paper Fig. 9 / Fig. 10 shapes plus now-timeslice and KNN),
// a runner that times each public query call, checks answers against the
// oracle, checks the node-access and page-read totals by two paths, and
// folds the span tree of traced queries into per-stage self times.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "instrumented.h"
#include "obs/trace.h"
#include "oracle.h"
#include "storage/buffer_pool.h"
#include "swst/swst_index.h"

namespace swstbench {

enum QType { kInterval = 0, kTimeslice, kNow, kKnn, kQTypes };
inline const char* const kQName[kQTypes] = {"interval", "timeslice", "now",
                                            "knn"};

/// Query shapes: 1% of the space, intervals of 5% of T = 100000, k = 10.
inline constexpr double kAreaFraction = 0.01;
inline constexpr Timestamp kIntervalLength = 5000;
inline constexpr size_t kKnnK = 10;

struct Query {
  QType type = kInterval;
  Rect area;
  TimeInterval iv;
  Point center;
};

/// Draws a query of `type` inside the queriable period `win` (`win.hi` is
/// the clock, the instant of a now-query).
inline Query MakeQuery(QType type, const Rect& space, const TimeInterval& win,
                       std::mt19937_64& rng) {
  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto instant = [&rng](Timestamp lo, Timestamp hi) {
    return std::uniform_int_distribution<Timestamp>(lo, hi)(rng);
  };
  Query q;
  q.type = type;
  const double side = std::sqrt(kAreaFraction) * space.Width();
  const double x = uniform(space.lo.x, space.hi.x - side);
  const double y = uniform(space.lo.y, space.hi.y - side);
  q.area = Rect{{x, y}, {x + side, y + side}};
  q.center = Point{uniform(space.lo.x, space.hi.x),
                   uniform(space.lo.y, space.hi.y)};
  const Timestamp span = win.hi - win.lo;
  switch (type) {
    case kInterval:
    case kKnn: {
      const Timestamp len = std::min(kIntervalLength, span);
      q.iv.lo = instant(win.lo, win.hi - len);
      q.iv.hi = q.iv.lo + len;
      break;
    }
    case kTimeslice:
      q.iv.lo = q.iv.hi = instant(win.lo, win.hi);
      break;
    default:
      q.iv.lo = q.iv.hi = win.hi;
      break;
  }
  return q;
}

/// Self-time buckets of the spans `SwstIndex` records under
/// `QueryOptions::trace`. Spans with other names ("query", "search",
/// "cell <n>") count as search: memo trims, key-range building, KNN ring
/// bookkeeping.
enum Stage { kPlan = 0, kLive, kBfs, kRefine, kMerge, kSearch, kStages };
inline const char* const kStageName[kStages] = {"plan",   "live",  "bfs",
                                                "refine", "merge", "search"};

inline Stage StageOf(const std::string& name) {
  if (name == "plan") return kPlan;
  if (name == "live") return kLive;
  if (name.rfind("bfs", 0) == 0) return kBfs;
  if (name == "refine") return kRefine;
  if (name == "merge") return kMerge;
  return kSearch;
}

inline void AddSelfTimes(const swst::obs::TraceSpan& span, uint64_t* ns) {
  uint64_t children = 0;
  for (const auto& c : span.children) {
    children += c->duration_ns;
    AddSelfTimes(*c, ns);
  }
  ns[StageOf(span.name)] +=
      span.duration_ns > children ? span.duration_ns - children : 0;
}

/// Order-independent fingerprint of a result multiset.
inline uint64_t ResultHash(std::vector<Entry> r) {
  std::sort(r.begin(), r.end(), EntryLess);
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  for (const Entry& e : r) {
    mix(&e.oid, sizeof e.oid);
    mix(&e.start, sizeof e.start);
    mix(&e.duration, sizeof e.duration);
    mix(&e.pos.x, sizeof e.pos.x);
    mix(&e.pos.y, sizeof e.pos.y);
  }
  return h ^ r.size();
}

/// Per query type: latencies and summed counters.
struct TypeStats {
  std::vector<double> us;           ///< Every query's call time.
  std::vector<double> traced_us;    ///< Traced queries (trace mode only).
  std::vector<double> untraced_us;  ///< Untraced queries (trace mode only).
  swst::QueryStats sum;
  uint64_t stage_ns[kStages] = {};
};

/// Storage counters summed over query calls only.
struct ReadCounters {
  uint64_t logical = 0, physical = 0, read_pages = 0, read_ns = 0,
           read_syscalls = 0, uring_submits = 0, uring_fallbacks = 0;
};

class QueryRunner {
 public:
  QueryRunner(bool trace_mode) : trace_mode_(trace_mode) {}

  /// Points the runner at an index (again after a reopen).
  void Attach(swst::SwstIndex* idx, swst::BufferPool* pool,
              CountingPager* pager) {
    idx_ = idx;
    pool_ = pool;
    pager_ = pager;
  }

  /// Runs `q`. With `oracle` set, the answer is checked against the brute
  /// force one; with `hash` set, the result fingerprint is stored there (or
  /// compared with it when `*hash` is non-zero). False on any error or
  /// mismatch; `error()` says which.
  bool Run(const Query& q, const Oracle* oracle, uint64_t* hash = nullptr) {
    RotateCpu();
    TypeStats& ts = types_[q.type];
    const bool traced = trace_mode_ && (calls_[q.type]++ % 2 == 0);
    std::unique_ptr<swst::obs::QueryTrace> trace;
    swst::QueryOptions opts;
    if (traced) {
      trace = std::make_unique<swst::obs::QueryTrace>();
      opts.trace = trace.get();
    }
    const swst::IoStats io0 = pool_->stats();
    const uint64_t pages0 = pager_->counters().read_pages;
    const uint64_t pager_ns0 = pager_->counters().read_ns;
    const uint64_t sys0 = pager_->read_syscalls();
    swst::QueryStats st;

    const uint64_t t0 = NowNs();
    swst::Result<std::vector<Entry>> r =
        q.type == kKnn ? idx_->Knn(q.center, kKnnK, q.iv, opts, &st)
                       : idx_->IntervalQuery(q.area, q.iv, opts, &st);
    const uint64_t t1 = NowNs();

    if (!r.ok()) return Fail(q, "query failed: " + r.status().ToString());
    const double us = static_cast<double>(t1 - t0) / 1e3;
    ts.us.push_back(us);
    total_ns_ += t1 - t0;
    if (trace_mode_) (traced ? ts.traced_us : ts.untraced_us).push_back(us);
    if (traced) AddSelfTimes(*trace->root(), ts.stage_ns);
    ts.sum += st;

    const swst::IoStats io1 = pool_->stats();
    const uint64_t logical = io1.logical_reads - io0.logical_reads;
    const uint64_t physical = io1.physical_reads - io0.physical_reads;
    const uint64_t pages = pager_->counters().read_pages - pages0;
    reads_.logical += logical;
    reads_.physical += physical;
    reads_.read_pages += pages;
    reads_.read_ns += pager_->counters().read_ns - pager_ns0;
    reads_.read_syscalls += pager_->read_syscalls() - sys0;
    reads_.uring_submits += io1.uring_submits - io0.uring_submits;
    reads_.uring_fallbacks += io1.uring_fallbacks - io0.uring_fallbacks;
    if (logical != st.node_accesses) {
      return Fail(q, "pool logical reads " + std::to_string(logical) +
                         " != QueryStats::node_accesses " +
                         std::to_string(st.node_accesses));
    }
    if (pages != physical) {
      return Fail(q, "pager wrapper read " + std::to_string(pages) +
                         " pages, pool physical_reads " +
                         std::to_string(physical));
    }
    if (hash != nullptr) {
      const uint64_t h = ResultHash(*r);
      if (*hash != 0 && *hash != h) return Fail(q, "answer changed");
      *hash = h;
    }
    if (oracle != nullptr) {
      ++verified_;
      if (q.type == kKnn) {
        std::string why;
        if (!oracle->CheckKnn(q.center, kKnnK, q.iv, *r, &why)) {
          return Fail(q, why);
        }
      } else {
        std::vector<Entry> got = std::move(*r);
        std::sort(got.begin(), got.end(), EntryLess);
        const std::vector<Entry> want = oracle->Query(q.area, q.iv);
        if (got != want) {
          return Fail(q, "answer has " + std::to_string(got.size()) +
                             " entries, brute force " +
                             std::to_string(want.size()));
        }
      }
    }
    return true;
  }

  const TypeStats& type(int t) const { return types_[t]; }
  const ReadCounters& reads() const { return reads_; }
  uint64_t queries() const {
    uint64_t n = 0;
    for (const TypeStats& t : types_) n += t.us.size();
    return n;
  }
  uint64_t verified() const { return verified_; }
  double total_seconds() const { return static_cast<double>(total_ns_) / 1e9; }
  const std::string& error() const { return error_; }

 private:
  bool Fail(const Query& q, const std::string& why) {
    if (error_.empty()) {
      error_ = std::string(kQName[q.type]) + " query [" +
               std::to_string(q.iv.lo) + "," + std::to_string(q.iv.hi) +
               "]: " + why;
    }
    return false;
  }

  bool trace_mode_;
  swst::SwstIndex* idx_ = nullptr;
  swst::BufferPool* pool_ = nullptr;
  CountingPager* pager_ = nullptr;
  TypeStats types_[kQTypes];
  uint64_t calls_[kQTypes] = {};
  ReadCounters reads_;
  uint64_t total_ns_ = 0;
  uint64_t verified_ = 0;
  std::string error_;
};

}  // namespace swstbench

#endif  // SWSTBENCH_QUERY_MIX_H_
