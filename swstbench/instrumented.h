#ifndef SWSTBENCH_INSTRUMENTED_H_
#define SWSTBENCH_INSTRUMENTED_H_

// Counting wrappers around the two public storage interfaces, `Pager` and
// `WalStore`. Every call is forwarded unchanged to the wrapped backend; the
// wrapper counts calls and pages/bytes, and, when `timed` is set (traced
// runs), the wall time spent inside the backend. They are the benchmark's
// view of the storage layer: the library itself carries no tracing.

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "storage/pager.h"
#include "storage/wal.h"

namespace swstbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Moves the calling (only) thread to the next CPU of its original affinity
/// set every 100 ms. On a shared host each virtual CPU runs at its own,
/// changing speed (1.3x apart was measured between the four of one VM at
/// one moment); rotating makes every run sample all of them alike instead
/// of the one the scheduler happened to pick. Call between operations,
/// never inside a timed call.
inline void RotateCpu() {
  static constexpr uint64_t kPeriodNs = 100'000'000;
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  static uint64_t next_ns = 0;
  static size_t next = 0;
  if (cpus.size() < 2) return;
  const uint64_t now = NowNs();
  if (now < next_ns) return;
  next_ns = now + kPeriodNs;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next], &one);
  next = (next + 1) % cpus.size();
  (void)sched_setaffinity(0, sizeof one, &one);
}

/// Adds the wall time of one backend call to `*ns` when `on`.
class CallTimer {
 public:
  CallTimer(bool on, uint64_t* ns) : ns_(on ? ns : nullptr) {
    if (ns_ != nullptr) t0_ = NowNs();
  }
  ~CallTimer() {
    if (ns_ != nullptr) *ns_ += NowNs() - t0_;
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  uint64_t* ns_;
  uint64_t t0_ = 0;
};

struct PagerCounters {
  uint64_t alloc_calls = 0, alloc_ns = 0;
  uint64_t free_calls = 0, free_ns = 0;
  uint64_t read_pages = 0, read_ns = 0;
  uint64_t write_pages = 0, write_ns = 0;
  uint64_t sync_calls = 0, sync_ns = 0;
};

class CountingPager final : public swst::Pager {
 public:
  CountingPager(std::unique_ptr<swst::Pager> inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  const PagerCounters& counters() const { return c_; }

  swst::Result<swst::PageId> AllocatePage() override {
    ++c_.alloc_calls;
    CallTimer t(timed_, &c_.alloc_ns);
    return inner_->AllocatePage();
  }
  swst::Status FreePage(swst::PageId id) override {
    ++c_.free_calls;
    CallTimer t(timed_, &c_.free_ns);
    return inner_->FreePage(id);
  }
  swst::Status ReadPage(swst::PageId id, void* buf) override {
    ++c_.read_pages;
    CallTimer t(timed_, &c_.read_ns);
    return inner_->ReadPage(id, buf);
  }
  swst::Status WritePage(swst::PageId id, const void* buf) override {
    ++c_.write_pages;
    CallTimer t(timed_, &c_.write_ns);
    return inner_->WritePage(id, buf);
  }
  swst::Status ReadPages(swst::PageId first, uint32_t count,
                         void* buf) override {
    c_.read_pages += count;
    CallTimer t(timed_, &c_.read_ns);
    return inner_->ReadPages(first, count, buf);
  }
  swst::Status WritePages(swst::PageId first, uint32_t count,
                          const void* buf) override {
    c_.write_pages += count;
    CallTimer t(timed_, &c_.write_ns);
    return inner_->WritePages(first, count, buf);
  }
  std::unique_ptr<ReadBatch> SubmitReads(swst::AsyncPageRead* reqs,
                                         size_t n) override {
    c_.read_pages += n;
    uint64_t ns = 0;
    std::unique_ptr<ReadBatch> inner;
    {
      CallTimer t(timed_, &ns);
      inner = inner_->SubmitReads(reqs, n);
    }
    c_.read_ns += ns;
    return std::make_unique<TimedBatch>(std::move(inner), timed_,
                                        &c_.read_ns);
  }
  void SetAsyncReads(bool enabled) override { inner_->SetAsyncReads(enabled); }
  uint64_t read_syscalls() const override { return inner_->read_syscalls(); }
  swst::Status Sync() override {
    ++c_.sync_calls;
    CallTimer t(timed_, &c_.sync_ns);
    return inner_->Sync();
  }
  swst::Status CorruptPageForTesting(swst::PageId id, uint32_t offset,
                                     uint32_t len) override {
    return inner_->CorruptPageForTesting(id, offset, len);
  }
  uint64_t page_count() const override { return inner_->page_count(); }
  uint64_t live_page_count() const override {
    return inner_->live_page_count();
  }

 private:
  /// Times the completion wait of an asynchronous batch as read time.
  class TimedBatch final : public ReadBatch {
   public:
    TimedBatch(std::unique_ptr<ReadBatch> inner, bool timed, uint64_t* ns)
        : inner_(std::move(inner)), timed_(timed), ns_(ns) {}
    ~TimedBatch() override { (void)Await(); }
    swst::Status Await() override {
      CallTimer t(timed_ && !awaited_, ns_);
      awaited_ = true;
      return inner_->Await();
    }
    bool async() const override { return inner_->async(); }

   private:
    std::unique_ptr<ReadBatch> inner_;
    bool timed_;
    uint64_t* ns_;
    bool awaited_ = false;
  };

  std::unique_ptr<swst::Pager> inner_;
  bool timed_;
  PagerCounters c_;
};

struct WalCounters {
  uint64_t append_calls = 0, append_bytes = 0, append_ns = 0;
  uint64_t sync_calls = 0, sync_ns = 0;
};

class CountingWalStore final : public swst::WalStore {
 public:
  CountingWalStore(std::unique_ptr<swst::WalStore> inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  const WalCounters& counters() const { return c_; }
  /// Bytes of the segments appended to (or created) through this wrapper
  /// and not deleted since: the log's stored size when the wrapper has seen
  /// the log from its creation.
  uint64_t stored_bytes() const {
    uint64_t total = 0;
    for (const auto& [seq, bytes] : sizes_) total += bytes;
    return total;
  }

  swst::Result<std::vector<uint64_t>> ListSegments() override {
    return inner_->ListSegments();
  }
  swst::Status CreateSegment(uint64_t seq) override {
    sizes_.emplace(seq, 0);
    return inner_->CreateSegment(seq);
  }
  swst::Status DeleteSegment(uint64_t seq) override {
    sizes_.erase(seq);
    return inner_->DeleteSegment(seq);
  }
  swst::Status Append(uint64_t seq, const void* data, size_t n) override {
    ++c_.append_calls;
    c_.append_bytes += n;
    sizes_[seq] += n;
    CallTimer t(timed_, &c_.append_ns);
    return inner_->Append(seq, data, n);
  }
  swst::Status Sync(uint64_t seq) override {
    ++c_.sync_calls;
    CallTimer t(timed_, &c_.sync_ns);
    return inner_->Sync(seq);
  }
  swst::Result<std::vector<char>> ReadSegment(uint64_t seq) override {
    return inner_->ReadSegment(seq);
  }
  swst::Status CorruptForTesting(uint64_t seq, uint64_t offset,
                                 uint32_t len) override {
    return inner_->CorruptForTesting(seq, offset, len);
  }

 private:
  std::unique_ptr<swst::WalStore> inner_;
  bool timed_;
  WalCounters c_;
  std::map<uint64_t, uint64_t> sizes_;
};

}  // namespace swstbench

#endif  // SWSTBENCH_INSTRUMENTED_H_
