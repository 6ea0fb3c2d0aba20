#ifndef SWSTBENCH_ORACLE_H_
#define SWSTBENCH_ORACLE_H_

// The benchmark's own record of every entry it handed to the index, and
// brute-force answers computed from it. Nothing here calls into the
// library: the window, the predicates and the KNN ordering are re-derived
// from the paper's definitions, so a wrong answer from the index cannot be
// mirrored by the check.

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace swstbench {

using swst::Entry;
using swst::Point;
using swst::Rect;
using swst::TimeInterval;
using swst::Timestamp;

inline bool EntryLess(const Entry& a, const Entry& b) {
  return std::tie(a.oid, a.start, a.duration, a.pos.x, a.pos.y) <
         std::tie(b.oid, b.start, b.duration, b.pos.x, b.pos.y);
}

inline double Dist2(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Queriable period [tau', tau] of paper §III-A for clock `tau`: the window
/// of W time units ending at the last slide boundary.
inline TimeInterval WindowAt(Timestamp tau, Timestamp w, Timestamp slide) {
  const Timestamp aligned = tau / slide * slide;
  return TimeInterval{aligned >= w ? aligned - w : 0, tau};
}

class Oracle {
 public:
  Oracle(Timestamp window, Timestamp slide) : w_(window), slide_(slide) {}

  Timestamp clock() const { return tau_; }
  TimeInterval window() const { return WindowAt(tau_, w_, slide_); }
  void Tick(Timestamp t) { tau_ = std::max(tau_, t); }

  /// Records an inserted entry (closed or current).
  void Insert(const Entry& e) {
    Tick(e.start);
    if (e.is_current()) open_[e.oid] = entries_.size();
    entries_.push_back(e);
  }

  /// Records that `oid`'s open entry was closed with duration `d`.
  void Close(swst::ObjectId oid, swst::Duration d) {
    auto it = open_.find(oid);
    if (it == open_.end()) return;
    entries_[it->second].duration = d;
    open_.erase(it);
  }

  /// Forgets entries that can never be queried again. Only valid when
  /// entries were inserted in start order (the streaming protocol): then
  /// the expired ones are a prefix.
  void DropExpiredPrefix() {
    const Timestamp lo = window().lo;
    size_t n = 0;
    while (n < entries_.size() && entries_[n].start < lo) ++n;
    if (n < entries_.size() / 2) return;  // Amortise the compaction.
    entries_.erase(entries_.begin(), entries_.begin() + n);
    for (auto it = open_.begin(); it != open_.end();) {
      if (it->second < n) {
        it = open_.erase(it);  // Expired while still open.
      } else {
        it->second -= n;
        ++it;
      }
    }
  }

  /// Number of entries whose start lies in the queriable period.
  uint64_t InWindow() const {
    const TimeInterval win = window();
    uint64_t n = 0;
    for (const Entry& e : entries_) n += (e.start >= win.lo && e.start <= win.hi);
    return n;
  }

  /// Brute-force interval query (a timeslice is [t, t]) over R(tau).
  std::vector<Entry> Query(const Rect& area, const TimeInterval& iv) const {
    std::vector<Entry> out;
    ForEachQualified(iv, [&](const Entry& e) {
      if (area.Contains(e.pos)) out.push_back(e);
    });
    std::sort(out.begin(), out.end(), EntryLess);
    return out;
  }

  /// Checks a KNN answer: it has min(k, |qualified|) entries, each one a
  /// qualified entry, and no qualified entry left out is strictly closer to
  /// `center` than the farthest returned one.
  bool CheckKnn(const Point& center, size_t k, const TimeInterval& iv,
                const std::vector<Entry>& got, std::string* why) const {
    std::vector<Entry> qualified;
    ForEachQualified(iv, [&](const Entry& e) { qualified.push_back(e); });
    if (got.size() != std::min(k, qualified.size())) {
      *why = "knn returned " + std::to_string(got.size()) + " of " +
             std::to_string(qualified.size()) + " qualified, k=" +
             std::to_string(k);
      return false;
    }
    std::sort(qualified.begin(), qualified.end(), EntryLess);
    std::vector<Entry> sorted = got;
    std::sort(sorted.begin(), sorted.end(), EntryLess);
    if (!std::includes(qualified.begin(), qualified.end(), sorted.begin(),
                       sorted.end(), EntryLess)) {
      *why = "knn returned an entry that does not qualify";
      return false;
    }
    double kth = 0;
    for (const Entry& e : got) kth = std::max(kth, Dist2(e.pos, center));
    size_t closer_returned = 0;
    for (const Entry& e : got) closer_returned += Dist2(e.pos, center) < kth;
    size_t closer_all = 0;
    for (const Entry& e : qualified) closer_all += Dist2(e.pos, center) < kth;
    if (closer_all != closer_returned) {
      *why = "knn skipped an entry closer than its k-th result";
      return false;
    }
    return true;
  }

 private:
  /// Calls `fn` for every entry of R(tau) whose start lies in the window
  /// and whose valid time overlaps `iv` clipped to the window.
  template <typename Fn>
  void ForEachQualified(const TimeInterval& iv, Fn&& fn) const {
    const TimeInterval win = window();
    const TimeInterval q{std::max(iv.lo, win.lo), std::min(iv.hi, win.hi)};
    if (q.lo > q.hi) return;
    for (const Entry& e : entries_) {
      if (e.start < win.lo || e.start > q.hi) continue;
      if (!e.is_current() && e.start + e.duration <= q.lo) continue;
      fn(e);
    }
  }

  Timestamp w_;
  Timestamp slide_;
  Timestamp tau_ = 0;
  std::vector<Entry> entries_;
  std::unordered_map<swst::ObjectId, size_t> open_;
};

}  // namespace swstbench

#endif  // SWSTBENCH_ORACLE_H_
