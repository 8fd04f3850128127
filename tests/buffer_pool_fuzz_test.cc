// Buffer-pool model check: a random access pattern against a reference LRU
// simulation must produce identical hit/miss behaviour — per shard, for 1,
// 2 and 8 shards (1 shard must match the historical monolithic pool move
// for move) — and random pin/unpin interleavings must never corrupt
// accounting. A second model adds pins, dirty pages, Prefetch and NewPage
// and checks every eviction (page and writeback) the pool journals, what
// ColdReset writes back, and that a failed load leaves no trace.

#include <cstring>
#include <list>
#include <map>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "obs/event_journal.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

/// Reference model: plain LRU over page numbers (no pinning).
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  // Returns true on hit.
  bool Touch(PageNo p) {
    auto it = pos_.find(p);
    if (it != pos_.end()) {
      order_.erase(it->second);
      order_.push_front(p);
      pos_[p] = order_.begin();
      return true;
    }
    if (order_.size() == capacity_) {
      pos_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(p);
    pos_[p] = order_.begin();
    return false;
  }

 private:
  size_t capacity_;
  std::list<PageNo> order_;
  std::unordered_map<PageNo, std::list<PageNo>::iterator> pos_;
};

/// Params: (rng seed, shard count).
class BufferPoolFuzz
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {
 protected:
  int seed() const { return std::get<0>(GetParam()); }
  size_t shards() const { return std::get<1>(GetParam()); }
};

TEST_P(BufferPoolFuzz, MatchesReferenceLruWithoutPins) {
  DiskManager disk(256);
  SegmentId seg = disk.CreateSegment("t");
  const PageNo kPages = 64;
  for (PageNo p = 0; p < kPages; ++p) disk.AllocatePage(seg);
  const size_t kCapacity = 8;
  BufferPool pool(&disk, kCapacity, BufferPoolOptions{shards()});
  ASSERT_EQ(pool.num_shards(), shards());
  // One reference LRU per shard, sized from the pool's own split, indexed
  // through the pool's own page-to-shard map: with 1 shard this is exactly
  // the historical monolithic model.
  std::vector<ReferenceLru> reference;
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    reference.emplace_back(pool.shard_capacity(s));
  }

  Rng rng(static_cast<uint64_t>(seed()) * 31 + 1);
  for (int step = 0; step < 5000; ++step) {
    // Zipf-flavoured skew keeps hot pages hot.
    PageNo p = static_cast<PageNo>(rng.NextBounded(kPages));
    if (rng.NextBernoulli(0.5)) p %= 8;
    int64_t phys_before = disk.io_stats()->physical_reads();
    {
      auto g = pool.Fetch(PageId{seg, p});
      ASSERT_TRUE(g.ok());
    }
    bool pool_hit = disk.io_stats()->physical_reads() == phys_before;
    bool model_hit = reference[pool.shard_index(PageId{seg, p})].Touch(p);
    ASSERT_EQ(pool_hit, model_hit) << "step " << step << " page " << p;
  }
}

TEST_P(BufferPoolFuzz, RandomPinsNeverBreakAccounting) {
  DiskManager disk(256);
  SegmentId seg = disk.CreateSegment("t");
  for (PageNo p = 0; p < 32; ++p) disk.AllocatePage(seg);
  BufferPool pool(&disk, 8, BufferPoolOptions{shards()});
  Rng rng(static_cast<uint64_t>(seed()) * 97 + 5);
  std::vector<PageGuard> pins;

  for (int step = 0; step < 3000; ++step) {
    double roll = rng.NextDouble();
    if (roll < 0.55 || pins.empty()) {
      // Try a fetch; it may fail only when every frame of the page's
      // shard is pinned (with 8 shards over 8 frames that is a single
      // pin, so exhaustion is routine here — the invariant must hold
      // through it, and a failed fetch must charge nothing).
      auto g = pool.Fetch(
          PageId{seg, static_cast<PageNo>(rng.NextBounded(32))});
      if (g.ok()) {
        if (rng.NextBernoulli(0.5) && pins.size() < 7) {
          pins.push_back(std::move(g).value());
        }
      } else {
        ASSERT_EQ(g.status().code(), StatusCode::kResourceExhausted);
        ASSERT_GE(pins.size(), 1u);
      }
    } else {
      size_t victim = rng.NextBounded(pins.size());
      pins.erase(pins.begin() + static_cast<long>(victim));
    }
    const IoStats& io = *disk.io_stats();
    ASSERT_EQ(io.logical_reads, io.buffer_hits + io.physical_reads());
    ASSERT_LE(pool.cached_pages(), pool.capacity());
  }
  pins.clear();
  EXPECT_OK(pool.ColdReset());
}

/// Reference model of the pool with pins and dirty pages. Per shard: the
/// frame budget, the pin count and dirty bit of every cached page, and an
/// LRU of the unpinned ones (front = most recent). A frame is claimed as
/// the pool claims it: a free one while the shard has one, else the LRU
/// tail, else none (every cached page pinned).
class ReferencePool {
 public:
  /// (page, dirty) of one eviction, as the pool journals it.
  using Eviction = std::pair<PageNo, bool>;

  ReferencePool(const BufferPool* pool, SegmentId seg)
      : pool_(pool), seg_(seg), shards_(pool->num_shards()) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].frames = pool->shard_capacity(s);
    }
  }

  bool cached(PageNo p) const {
    return shard(p).pages.count(p) != 0;
  }
  size_t size() const {
    size_t n = 0;
    for (const Shard& s : shards_) n += s.pages.size();
    return n;
  }
  std::vector<PageNo> dirty_pages() const {
    std::vector<PageNo> out;
    for (const Shard& s : shards_) {
      for (const auto& [p, page] : s.pages) {
        if (page.dirty) out.push_back(p);
      }
    }
    return out;
  }

  /// Makes room for `p`; false when its shard has nothing to evict.
  bool Claim(PageNo p, std::vector<Eviction>* evicted) {
    Shard& s = shard(p);
    if (s.pages.size() < s.frames) return true;
    if (s.lru.empty()) return false;
    const PageNo victim = s.lru.back();
    s.lru.pop_back();
    evicted->push_back({victim, s.pages[victim].dirty});
    s.pages.erase(victim);
    return true;
  }
  /// A claimed frame now holds `p`, pinned once or unpinned at the front.
  void Load(PageNo p, bool pinned, bool dirty) {
    Shard& s = shard(p);
    s.pages[p] = Page{pinned ? 1 : 0, dirty};
    if (!pinned) s.lru.push_front(p);
  }
  void Hit(PageNo p) {
    Shard& s = shard(p);
    if (s.pages[p].pins++ == 0) s.lru.remove(p);
  }
  void Unpin(PageNo p) {
    Shard& s = shard(p);
    if (--s.pages[p].pins == 0) s.lru.push_front(p);
  }
  void MarkDirty(PageNo p) { shard(p).pages[p].dirty = true; }
  void Flush() {
    for (Shard& s : shards_) {
      for (auto& entry : s.pages) entry.second.dirty = false;
    }
  }
  void Clear() {
    for (Shard& s : shards_) {
      s.pages.clear();
      s.lru.clear();
    }
  }

 private:
  struct Page {
    int pins = 0;
    bool dirty = false;
  };
  struct Shard {
    size_t frames = 0;
    std::map<PageNo, Page> pages;
    std::list<PageNo> lru;
  };

  Shard& shard(PageNo p) {
    return shards_[pool_->shard_index(PageId{seg_, p})];
  }
  const Shard& shard(PageNo p) const {
    return shards_[pool_->shard_index(PageId{seg_, p})];
  }

  const BufferPool* pool_;
  SegmentId seg_;
  std::vector<Shard> shards_;
};

/// Drives a pool and a ReferencePool through the same random Fetch, unpin,
/// dirtying, Prefetch, NewPage and FlushAll sequence, checking after every
/// step that the pool evicted exactly the model's victims (page and dirty
/// flag, read off the pool's eviction journal), wrote back exactly the
/// dirty ones, charged the reads the model predicts and caches as many
/// pages. Every dirtying write stamps the page, and every fetch checks the
/// stamp, so a lost or stale writeback shows up as wrong bytes.
class PoolChurn {
 public:
  PoolChurn(size_t shards, uint64_t seed)
      : disk_(256), seg_(disk_.CreateSegment("t")), rng_(seed) {
    for (PageNo p = 0; p < kInitialPages; ++p) disk_.AllocatePage(seg_);
    next_page_ = kInitialPages;
    pool_ = std::make_unique<BufferPool>(&disk_, 8,
                                         BufferPoolOptions{shards});
    pool_->AttachObservability(nullptr, nullptr, &journal_);
    model_ = std::make_unique<ReferencePool>(pool_.get(), seg_);
  }

  BufferPool& pool() { return *pool_; }
  DiskManager& disk() { return disk_; }
  ReferencePool& model() { return *model_; }
  SegmentId seg() const { return seg_; }
  PageNo pages() const { return next_page_; }
  /// Last stamp written to page p (0 if never written).
  uint64_t stamp(PageNo p) const {
    auto it = stamps_.find(p);
    return it == stamps_.end() ? 0 : it->second;
  }
  void ReleaseAll() {
    for (auto& [p, guard] : pins_) {
      guard.Release();
      model_->Unpin(p);
    }
    pins_.clear();
  }
  /// Evictions journaled since the last call, oldest first.
  std::vector<ReferencePool::Eviction> DrainEvictions() {
    std::vector<ReferencePool::Eviction> out;
    for (const auto& e : journal_.Drain()) {
      if (e.type == JournalEvent::kEviction) {
        out.push_back({static_cast<PageNo>(e.a), e.b != 0});
      }
    }
    return out;
  }

  void Step(int step) {
    const IoStats before = *disk_.io_stats();
    std::vector<ReferencePool::Eviction> expect_evicted;
    int64_t expect_phys = 0;
    int64_t expect_writes = 0;
    int64_t expect_prefetch = 0;
    int64_t expect_rejected = 0;
    const double roll = rng_.NextDouble();
    if (roll < 0.45 || (roll < 0.6 && pins_.empty())) {
      PageNo p = static_cast<PageNo>(rng_.NextBounded(next_page_));
      if (rng_.NextBernoulli(0.5)) p %= 12;
      const bool hit = model_->cached(p);
      const bool room = hit || model_->Claim(p, &expect_evicted);
      auto g = pool_->Fetch(PageId{seg_, p});
      ASSERT_EQ(g.ok(), room) << "step " << step << " page " << p;
      if (!g.ok()) {
        ASSERT_EQ(g.status().code(), StatusCode::kResourceExhausted);
      } else {
        PageGuard guard = std::move(g).value();
        uint64_t seen = 0;
        std::memcpy(&seen, guard.data(), sizeof(seen));
        ASSERT_EQ(seen, stamp(p)) << "step " << step << " page " << p;
        if (hit) {
          model_->Hit(p);
        } else {
          model_->Load(p, /*pinned=*/true, /*dirty=*/false);
          expect_phys = 1;
        }
        if (rng_.NextBernoulli(0.3)) Stamp(p, &guard);
        Keep(p, std::move(guard));
      }
    } else if (roll < 0.6) {
      const size_t i = rng_.NextBounded(pins_.size());
      model_->Unpin(pins_[i].first);
      pins_.erase(pins_.begin() + static_cast<long>(i));
    } else if (roll < 0.78) {
      const PageNo p = static_cast<PageNo>(rng_.NextBounded(next_page_));
      if (!model_->cached(p)) {
        if (model_->Claim(p, &expect_evicted)) {
          model_->Load(p, /*pinned=*/false, /*dirty=*/false);
          expect_prefetch = 1;
        } else {
          expect_rejected = 1;
        }
      }
      ASSERT_OK(pool_->Prefetch(PageId{seg_, p}));
    } else if (roll < 0.95) {
      // The disk allocates the page before the pool claims a frame, so a
      // NewPage that finds its shard fully pinned still grows the segment.
      const PageNo p = next_page_++;
      const bool room = model_->Claim(p, &expect_evicted);
      PageId pid;
      auto g = pool_->NewPage(seg_, &pid);
      ASSERT_EQ(g.ok(), room) << "step " << step << " new page " << p;
      if (g.ok()) {
        ASSERT_EQ(pid.page_no, p);
        model_->Load(p, /*pinned=*/true, /*dirty=*/true);
        PageGuard guard = std::move(g).value();
        Stamp(p, &guard);
        Keep(p, std::move(guard));
      }
    } else {
      expect_writes += static_cast<int64_t>(model_->dirty_pages().size());
      model_->Flush();
      ASSERT_OK(pool_->FlushAll());
    }
    for (const auto& e : expect_evicted) expect_writes += e.second ? 1 : 0;

    const IoStats& io = *disk_.io_stats();
    ASSERT_EQ(DrainEvictions(), expect_evicted) << "step " << step;
    ASSERT_EQ(io.physical_reads() - before.physical_reads(), expect_phys)
        << "step " << step;
    ASSERT_EQ(io.physical_writes - before.physical_writes, expect_writes)
        << "step " << step;
    ASSERT_EQ(io.prefetch_reads - before.prefetch_reads, expect_prefetch)
        << "step " << step;
    ASSERT_EQ(io.prefetch_rejected - before.prefetch_rejected,
              expect_rejected)
        << "step " << step;
    ASSERT_EQ(pool_->cached_pages(), model_->size()) << "step " << step;
    ASSERT_EQ(io.logical_reads, io.buffer_hits + io.physical_reads());
  }

 private:
  static constexpr PageNo kInitialPages = 40;

  void Stamp(PageNo p, PageGuard* guard) {
    const uint64_t v = ++last_stamp_;
    std::memcpy(guard->mutable_data(), &v, sizeof(v));
    stamps_[p] = v;
    model_->MarkDirty(p);
  }
  /// Holds the pin or drops it straight away (an unpin).
  void Keep(PageNo p, PageGuard guard) {
    if (pins_.size() < 6 && rng_.NextBernoulli(0.5)) {
      pins_.emplace_back(p, std::move(guard));
    } else {
      guard.Release();
      model_->Unpin(p);
    }
  }

  DiskManager disk_;
  SegmentId seg_;
  Rng rng_;
  EventJournal journal_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<ReferencePool> model_;
  std::vector<std::pair<PageNo, PageGuard>> pins_;
  std::map<PageNo, uint64_t> stamps_;
  uint64_t last_stamp_ = 0;
  PageNo next_page_ = 0;
};

TEST_P(BufferPoolFuzz, EvictionOrderMatchesReferenceLruWithPinsAndWrites) {
  PoolChurn churn(shards(), static_cast<uint64_t>(seed()) * 131 + 7);
  for (int step = 0; step < 4000; ++step) {
    ASSERT_NO_FATAL_FAILURE(churn.Step(step));
  }
  churn.ReleaseAll();
  EXPECT_OK(churn.pool().ColdReset());
}

TEST_P(BufferPoolFuzz, ColdResetWritesEachDirtyPageOnceAndEmptiesThePool) {
  PoolChurn churn(shards(), static_cast<uint64_t>(seed()) * 17 + 3);
  for (int round = 0; round < 5; ++round) {
    for (int step = 0; step < 600; ++step) {
      ASSERT_NO_FATAL_FAILURE(churn.Step(step));
    }
    BufferPool& pool = churn.pool();
    DiskManager& disk = churn.disk();
    const IoStats& io = *disk.io_stats();

    // Still pinned: refused, and nothing is written or freed.
    if (churn.model().size() > 0) {
      const size_t cached = pool.cached_pages();
      const int64_t writes = io.physical_writes;
      PageNo some = 0;
      while (!churn.model().cached(some)) ++some;
      auto g = pool.Fetch(PageId{churn.seg(), some});
      ASSERT_TRUE(g.ok());
      EXPECT_EQ(pool.ColdReset().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(pool.cached_pages(), cached);
      EXPECT_EQ(io.physical_writes, writes);
    }

    churn.ReleaseAll();
    const std::vector<PageNo> dirty = churn.model().dirty_pages();
    const int64_t writes_before = io.physical_writes;
    ASSERT_OK(pool.ColdReset());
    EXPECT_EQ(io.physical_writes - writes_before,
              static_cast<int64_t>(dirty.size()));
    EXPECT_EQ(pool.cached_pages(), 0u);
    EXPECT_TRUE(churn.DrainEvictions().empty())
        << "a reset frees frames; it does not evict them";
    for (PageNo p = 0; p < churn.pages(); ++p) {
      uint64_t on_disk = 0;
      std::memcpy(&on_disk, disk.RawPage(PageId{churn.seg(), p}),
                  sizeof(on_disk));
      ASSERT_EQ(on_disk, churn.stamp(p)) << "page " << p;
    }
    // A second reset has nothing left to write.
    ASSERT_OK(pool.ColdReset());
    EXPECT_EQ(io.physical_writes - writes_before,
              static_cast<int64_t>(dirty.size()));
    churn.model().Clear();

    // Every page is cold: its next fetch is a physical read.
    for (PageNo p : {PageNo{0}, PageNo{5}, churn.pages() - 1}) {
      const int64_t phys = io.physical_reads();
      {
        auto g = pool.Fetch(PageId{churn.seg(), p});
        ASSERT_TRUE(g.ok());
      }
      EXPECT_EQ(io.physical_reads(), phys + 1) << "page " << p;
    }
    ASSERT_OK(pool.ColdReset());
    ASSERT_EQ(io.logical_reads, io.buffer_hits + io.physical_reads());
    // The cold fetches may evict one another (one-frame shards); the next
    // round starts from an empty pool and an empty journal.
    (void)churn.DrainEvictions();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShards, BufferPoolFuzz,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{8})));

/// Params: (shard count, async_io).
class FailedLoad
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(FailedLoad, ErasesItsTableEntryAndFreesItsFrame) {
  const auto [shards, async_io] = GetParam();
  DiskManager disk(256);
  SegmentId seg = disk.CreateSegment("t");
  for (PageNo p = 0; p < 64; ++p) disk.AllocatePage(seg);
  BufferPool pool(&disk, 8, BufferPoolOptions{shards, false, async_io});
  EventJournal journal;
  pool.AttachObservability(nullptr, nullptr, &journal);
  const IoStats& io = *disk.io_stats();
  auto evictions = [&journal] {
    size_t n = 0;
    for (const auto& e : journal.Drain()) {
      n += e.type == JournalEvent::kEviction ? 1 : 0;
    }
    return n;
  };

  // Fill every shard but the unknown page's, and leave that one a frame
  // short, so the failed load takes a free frame and evicts nothing.
  const PageId unknown{seg, 1000};
  const size_t u = pool.shard_index(unknown);
  std::vector<size_t> room(pool.num_shards());
  for (size_t s = 0; s < room.size(); ++s) room[s] = pool.shard_capacity(s);
  room[u] -= 1;
  std::vector<PageId> cached;
  PageNo p = 0;
  for (; cached.size() < pool.capacity() - 1; ++p) {
    ASSERT_LT(p, 64u);
    const PageId pid{seg, p};
    if (room[pool.shard_index(pid)] == 0) continue;
    --room[pool.shard_index(pid)];
    auto g = pool.Fetch(pid);
    ASSERT_TRUE(g.ok());
    cached.push_back(pid);
  }
  ASSERT_EQ(pool.cached_pages(), cached.size());
  ASSERT_EQ(evictions(), 0u);

  for (int attempt = 0; attempt < 2; ++attempt) {
    // The retry must not wait behind a stale kLoading entry: the failed
    // load erased it.
    const IoStats before = io;
    auto bad = pool.Fetch(unknown);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(pool.cached_pages(), cached.size());
    EXPECT_EQ(io.logical_reads, before.logical_reads);
    EXPECT_EQ(io.physical_reads(), before.physical_reads());
    EXPECT_EQ(evictions(), 0u);
  }
  // Every cached page is still a hit.
  for (const PageId& pid : cached) {
    const int64_t phys = io.physical_reads();
    auto g = pool.Fetch(pid);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(io.physical_reads(), phys) << pid.ToString();
  }
  // The freed frame is reusable: one more page of that shard loads without
  // evicting anything.
  for (;; ++p) {
    ASSERT_LT(p, 64u);
    if (pool.shard_index(PageId{seg, p}) == u) break;
  }
  {
    auto g = pool.Fetch(PageId{seg, p});
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool.cached_pages(), pool.capacity());
  EXPECT_EQ(evictions(), 0u);
  EXPECT_EQ(io.logical_reads, io.buffer_hits + io.physical_reads());
  EXPECT_OK(pool.ColdReset());
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndModes, FailedLoad,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{8}),
                       ::testing::Bool()));

class BtreeDeleteFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BtreeDeleteFuzz, RandomInsertDeleteKeepsInvariantsAndContents) {
  DiskManager disk(512);
  BufferPool pool(&disk, 256);
  auto tree_r = Btree::Create(&pool, "t");
  ASSERT_TRUE(tree_r.ok());
  Btree tree = std::move(tree_r).value();

  std::set<std::pair<int64_t, uint64_t>> model;
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 3);
  for (int step = 0; step < 4000; ++step) {
    if (rng.NextBernoulli(0.65) || model.empty()) {
      int64_t k = rng.NextInt(0, 300);
      uint64_t aux = rng.NextBounded(50);
      Status st = tree.Insert({{k, 0}, aux});
      bool fresh = model.insert({k, aux}).second;
      ASSERT_EQ(st.ok(), fresh) << st.ToString();
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(model.size())));
      ASSERT_OK(tree.Delete({{it->first, 0}, it->second}));
      model.erase(it);
    }
  }
  ASSERT_OK(tree.CheckInvariants());
  EXPECT_EQ(tree.entry_count(), static_cast<int64_t>(model.size()));

  // Full iteration equals the model.
  auto it = tree.Begin();
  ASSERT_TRUE(it.ok());
  auto mit = model.begin();
  while (it->Valid()) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it->key().k1, mit->first);
    EXPECT_EQ(it->aux(), mit->second);
    ++mit;
    ASSERT_OK(it->Next());
  }
  EXPECT_EQ(mit, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtreeDeleteFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace dpcf
