// Sharded LRU buffer pool over the simulated disk.
//
// Every page access during query execution goes through Fetch(), which
// charges a logical read and, on a miss, a physical read; this is exactly the
// distinction the paper's DPC parameter drives ("each distinct page involves
// a new logical I/O and, if absent from the buffer pool, a physical I/O").
// ColdReset() empties the pool between measured runs to reproduce the
// paper's cold-cache methodology. It and FlushAll() walk each shard's
// contiguous frame array (skipping kFree frames) rather than the page
// table: ColdReset writes back the dirty frames, frees the cached ones onto
// the free list, then empties the page table with one Clear() and the LRU
// by resetting its head and tail. No walk follows a node pointer.
//
// Sharding: frames are partitioned into N shards (N a power of two), and a
// page belongs to shard PageIdHash(pid) & (N-1). Each shard has its own
// latch, page table, free list and LRU list, so concurrent fetches of pages
// in different shards never touch the same latch.
//
// Bookkeeping makes no heap allocation after construction. The page table
// is a FlatInt64Map<int32_t> (common/flat_int64_map.h) from
// PageId::Pack() to frame index, sized at construction for twice the
// shard's frames: a shard never caches more pages than it has frames, so
// the table never rehashes, and eviction erases by backward shift, so it
// never fills with tombstones. The LRU list is intrusive: each frame
// carries lru_prev/lru_next frame indexes and the shard its head (most
// recent) and tail (the next victim), so an unpin links a frame and a hit
// unlinks one without allocating or freeing a list node. Frames are
// reclaimed from a LIFO free list first, then from the LRU tail.
//
// Miss protocol (LOADING): on a miss the fetching thread claims a frame,
// publishes it in the shard's page table in the kLoading state, and *drops
// the shard latch for the disk read*. A second fetcher of the same page
// finds the kLoading entry and waits on the shard's condvar (releasing the
// latch) instead of issuing a duplicate read; fetchers of other pages in the
// shard proceed unimpeded. The loader re-latches to flip the frame to
// kReady and wakes the waiters, who re-check from the top. Page *data*
// reads happen outside the latch, protected by the pin: a pinned or loading
// frame is never a victim, so its bytes are stable while any PageGuard is
// alive. Dirty-victim writeback stays *under* the shard latch — dropping it
// there would let a concurrent miss of the victim page read stale bytes
// from the disk mid-writeback.
//
// Async mode (BufferPoolOptions::async_io, DESIGN.md section 14): the same
// LOADING protocol, but the disk read goes through DiskManager's
// submission ring instead of blocking the fetching thread inside ReadPage.
// The demand loader publishes the kLoading frame, submits, and waits on
// the shard condvar; the completion callback (on a disk io-thread)
// re-latches the shard, flips the frame to kReady (or kLoadError with the
// status), and wakes the waiters — so the loader and any wait-behind
// fetchers resume through the exact same re-check loop. PrefetchBatch()
// publishes a kLoading frame per page and hands the whole batch to
// SubmitBatch in one ring round-trip; its completions resolve frames to
// ready-unpinned-MRU with no waiting thread at all. Accounting is
// unchanged: the charge sites are identical, only the thread that blocks
// differs.
//
// Accounting is exact, not approximate: logical_reads is charged only when
// a fetch succeeds (hit, wait-behind-loader, or completed load), so
//   logical_reads == buffer_hits + physical_reads()
// holds under any interleaving, including ResourceExhausted failures.
//
// Lock order: any shard latch before DiskManager::mu_ (the miss and
// writeback paths call into the disk at most below one shard latch; no code
// path holds two shard latches at once — aggregate operations such as
// cached_pages()/ColdReset()/FlushAll() visit shards one at a time in
// increasing shard-index order). The order is machine-checked two ways:
// ACQUIRED_BEFORE on each shard's latch (clang -Wthread-safety-beta) and
// EXCLUDES of the disk latch on every public entry point, so calling into
// the pool while holding the disk latch fails to compile under plain
// -Wthread-safety.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_int64_map.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace dpcf {

class BufferPool;
class Counter;          // obs/metrics_registry.h
class LogHistogram;     // obs/metrics_registry.h
class MetricsRegistry;  // obs/metrics_registry.h
class TraceCollector;   // obs/trace_collector.h
class EventJournal;     // obs/event_journal.h

/// RAII pin on a buffer-pool frame. Movable, not copyable; unpins on
/// destruction. data() is valid while the guard is alive.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint32_t shard, int32_t frame, char* data);
  PageGuard(PageGuard&& o) noexcept;
  PageGuard& operator=(PageGuard&& o) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return pool_ != nullptr; }
  const char* data() const { return data_; }

  /// Grants write access and marks the frame dirty (written back to the
  /// disk manager on eviction or FlushAll()).
  char* mutable_data();

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint32_t shard_ = 0;
  int32_t frame_ = -1;
  char* data_ = nullptr;
};

struct BufferPoolOptions {
  /// Number of shards; rounded down to a power of two and clamped to
  /// [1, capacity]. 0 picks a default that scales with capacity (1 shard
  /// for tiny pools, up to 8) so small single-threaded pools behave exactly
  /// like the historical monolithic pool.
  size_t num_shards = 0;
  /// Compatibility/benchmark mode: hold the shard latch across the miss
  /// disk read (the pre-sharding behavior). With num_shards = 1 this
  /// reproduces the monolithic pool bit for bit; bench_buffer_contention
  /// uses it as the A side of its A/B comparison.
  bool serialize_miss_io = false;
  /// Route miss and prefetch reads through DiskManager's asynchronous
  /// submission ring (SubmitRead/SubmitBatch) instead of synchronous
  /// ReadPage calls. Demand fetchers still block (on the shard condvar,
  /// woken by the completion) but prefetch becomes fire-and-forget and the
  /// simulated latency is paid by the disk's io_threads, which is what
  /// lets a scan overlap more reads than it has workers. Ignored when
  /// serialize_miss_io is set (that mode exists to reproduce the
  /// monolithic pool exactly).
  bool async_io = false;
};

/// Fixed-capacity sharded page cache with per-shard LRU replacement and pin
/// counts.
class BufferPool {
 public:
  /// `capacity_pages` frames are preallocated eagerly and split as evenly
  /// as possible across the shards (earlier shards get the remainder).
  BufferPool(DiskManager* disk, size_t capacity_pages,
             BufferPoolOptions options = BufferPoolOptions{});

  /// Drains the submission ring first in async mode: a completion callback
  /// must never run against a destroyed pool.
  ~BufferPool();

  /// Pins the page, reading it from disk on a miss. Fails with
  /// ResourceExhausted if every frame of the page's shard is pinned or
  /// loading. Nothing is charged to IoStats on failure.
  Result<PageGuard> Fetch(PageId pid) EXCLUDES(disk_->mu_);

  /// Speculatively loads the page into its shard (unpinned, most recently
  /// used) so a subsequent Fetch is a hit, synchronously on the calling
  /// thread. Charges IoStats::prefetch_reads instead of a physical read
  /// and never moves the disk read head. A page already cached or loading
  /// is a benign no-op; a shard with no evictable frame skips the page,
  /// charges IoStats::prefetch_rejected, and still returns OK (readahead
  /// running too far ahead of the consumers is backpressure, not an
  /// error — the adaptive window narrows on the counter).
  Status Prefetch(PageId pid) EXCLUDES(disk_->mu_);

  /// Batch prefetch: publishes a kLoading frame per still-uncached page
  /// and submits the whole batch through the disk's submission ring in one
  /// SubmitBatch call (async mode), or falls back to a loop of synchronous
  /// Prefetch calls otherwise. Same skip/charge semantics as Prefetch per
  /// page; returns the first hard disk error (sync mode only — async
  /// completions resolve errors by freeing the frame).
  Status PrefetchBatch(const std::vector<PageId>& pids)
      EXCLUDES(disk_->mu_);

  /// Allocates a fresh zeroed page in `segment`, pins it, and returns the
  /// guard together with its id via `out_pid`. No physical read is charged
  /// (the page had no prior contents); the write is charged on eviction.
  Result<PageGuard> NewPage(SegmentId segment, PageId* out_pid)
      EXCLUDES(disk_->mu_);

  /// Writes back all dirty frames (keeps them cached). Visits shards one at
  /// a time in increasing index order; never holds two shard latches.
  Status FlushAll() EXCLUDES(disk_->mu_);

  /// Writes back dirty frames and empties the pool: the next Fetch of any
  /// page is a physical read. Fails if any page is still pinned or loading.
  /// Two shard-ordered passes (check, then flush+clear), one latch at a
  /// time; callers must be at a quiescent point, as with the monolithic
  /// pool.
  Status ColdReset() EXCLUDES(disk_->mu_);

  size_t capacity() const { return capacity_pages_; }
  size_t num_shards() const { return shards_.size(); }
  /// Which shard `pid` lives in (stable for the pool's lifetime).
  size_t shard_index(PageId pid) const {
    return PageIdHash{}(pid) & (shards_.size() - 1);
  }
  /// Frame count of shard `s` (they differ by at most one).
  size_t shard_capacity(size_t s) const;

  /// Cached-page count, summed shard by shard (one latch at a time). Exact
  /// only at quiescent points, like every cross-shard aggregate.
  size_t cached_pages() const EXCLUDES(disk_->mu_);

  DiskManager* disk() const { return disk_; }

  /// Resolves this pool's metric handles (per-shard hits / misses /
  /// loading-waits, pool-wide logical reads / prefetch hits, miss-read
  /// latency histogram) from `registry`, wires `trace` for miss and
  /// prefetch spans and `journal` for loading-wait / eviction events. Any
  /// argument may be null. Call once, at a quiescent point (Database's
  /// constructor does); publishing afterwards is relaxed-atomic or
  /// lock-free only and adds nothing to the unattached hot path.
  void AttachObservability(MetricsRegistry* registry, TraceCollector* trace,
                           EventJournal* journal = nullptr);

  /// The disk latch as this pool's annotations spell it. TSA matches
  /// capability *expressions*, so code that locks `disk()->latch()` under
  /// a different base object would not collide with the `disk_->mu_` in
  /// Fetch's EXCLUDES clause; locking through this accessor does (the
  /// negative-compile lock-order fixture relies on it).
  Mutex* disk_latch() const RETURN_CAPABILITY(disk_->mu_) {
    return disk_->latch();
  }

 private:
  friend class PageGuard;

  enum class FrameState : uint8_t {
    kFree,       // on the shard free list; pid meaningless
    kLoading,    // published in the page table; disk read in flight
    kReady,      // contents valid
    kLoadError,  // async load failed; load_status set, loader cleans up
  };

  // Bookkeeping fields first and packed (32 bytes): the whole-shard walks
  // of ColdReset and FlushAll read two frames per cache line.
  struct Frame {
    PageId pid;
    std::unique_ptr<char[]> data;
    int32_t pin_count = 0;
    // Intrusive LRU links (frame indexes, -1 = none), meaningful only
    // while in_lru, which holds iff the frame is cached with pin_count 0.
    int32_t lru_prev = -1;
    int32_t lru_next = -1;
    FrameState state = FrameState::kFree;
    bool dirty = false;
    bool in_lru = false;
    // Loaded by a kPrefetch read and not yet demanded: the first demand hit
    // charges IoStats::prefetch_hits and clears this (so one prefetched
    // load is one potential hit). Cleared whenever the frame is reclaimed.
    bool prefetched = false;
  };

  /// One latch domain. `disk` duplicates the pool's pointer so the
  /// ACQUIRED_BEFORE edge can be spelled per shard (TSA attributes resolve
  /// member expressions; Shard is a nested class of DiskManager's friend,
  /// so naming disk->mu_ here is well-formed).
  struct Shard {
    explicit Shard(DiskManager* d)
        : disk(d), mu(lock_rank::kBufferPoolShard) {}
    DiskManager* const disk;
    // Rank kBufferPoolShard < kDisk: the runtime mirror of the
    // ACQUIRED_BEFORE edge (enforced under DPCF_LOCK_RANK on any compiler;
    // the shared shard rank also aborts if two shard latches ever nest).
    mutable Mutex mu ACQUIRED_BEFORE(disk->mu_);
    /// Signaled whenever a kLoading frame resolves (to kReady or back to
    /// the free list on error); waiters re-check the page table.
    std::condition_variable_any cv;
    std::vector<Frame> frames GUARDED_BY(mu);
    // Outcome of a failed async demand load of frame f, parked in
    // load_status[f] (state kLoadError) until the loader — who still holds
    // the pin — wakes, frees the frame and propagates it to the Fetch
    // caller. Kept beside the frames so their walks stay dense.
    std::vector<Status> load_status GUARDED_BY(mu);
    std::vector<int32_t> free_frames GUARDED_BY(mu);  // back = next reused
    // Intrusive LRU over `frames`: head = most recent, tail = next victim;
    // -1 when empty.
    int32_t lru_head GUARDED_BY(mu) = -1;
    int32_t lru_tail GUARDED_BY(mu) = -1;
    // PageId::Pack() -> frame index of every non-kFree frame.
    FlatInt64Map<int32_t> table GUARDED_BY(mu);
    // Metric handles, null until AttachObservability. Set once at a
    // quiescent point; the Counter itself is a relaxed atomic, so no
    // GUARDED_BY (same contract as IoStats::AtomicCounter).
    Counter* m_hits = nullptr;
    Counter* m_misses = nullptr;
    Counter* m_loading_waits = nullptr;
  };

  /// Returns a usable frame index in `s`: a free frame, or the LRU victim
  /// (written back under the latch if dirty). -1 if every frame is pinned
  /// or loading.
  int32_t AcquireFrameLocked(Shard* s, Status* status) REQUIRES(s->mu);

  /// Writes back all dirty kReady frames of `s`, walking the frame array.
  Status FlushShardLocked(Shard* s) REQUIRES(s->mu);

  /// Links unpinned frame `f` at the head (most recent end) of `s`'s LRU.
  static void LruPushFrontLocked(Shard* s, int32_t f) REQUIRES(s->mu);
  /// Unlinks frame `f` from `s`'s LRU; it must be linked.
  static void LruUnlinkLocked(Shard* s, int32_t f) REQUIRES(s->mu);

  void Unpin(uint32_t shard, int32_t frame);
  void MarkDirty(uint32_t shard, int32_t frame);

  static size_t PickShardCount(size_t capacity, size_t requested);

  DiskManager* disk_;
  size_t capacity_pages_;  // == sum of shard frame counts; ctor-immutable
  BufferPoolOptions options_;
  // Pool-wide observability handles; null until AttachObservability.
  Counter* m_logical_reads_ = nullptr;
  Counter* m_prefetch_hits_ = nullptr;
  LogHistogram* m_miss_read_us_ = nullptr;
  TraceCollector* trace_ = nullptr;
  EventJournal* journal_ = nullptr;
  // Immutable after the ctor (the Shard contents are latched, the vector
  // itself never changes).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dpcf
