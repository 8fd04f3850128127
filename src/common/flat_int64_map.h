// Open-addressing hash table keyed by int64_t, for the hot paths that know
// their entry bound up front (DESIGN.md section 17): the hash join's build
// side, the exact join-cardinality outer-key multiset, and the buffer
// pool's per-shard page table (DESIGN.md section 10).
//
// Capacity is a power of two, at least twice the entry count the caller
// declares up front, and never changes: there is no rehash, and a table
// that never holds more than its declared entries never allocates after
// construction. Erase uses backward-shift deletion, so a probe run never
// contains tombstones and a table under insert/erase churn probes exactly
// like one built from its live keys.
// Keys are placed by Fibonacci multiplicative hashing (the top bits of
// key * 2^64/phi) and collisions resolve by linear probing, so a probe is
// one multiply, one shift and usually one cache line — against the
// prime-modulo bucket index and node pointer chase of std::unordered_map.
// Occupancy is a flag beside the key rather than a reserved key value, so
// every int64_t (0, -1, INT64_MIN, INT64_MAX) is a valid key.

#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dpcf {

template <typename V>
class FlatInt64Map {
 public:
  /// Room for up to `max_entries` distinct keys at a load factor of at
  /// most 1/2. Inserting more is a caller bug (asserted).
  explicit FlatInt64Map(size_t max_entries = 0)
      : slots_(std::max<size_t>(kMinCapacity,
                                std::bit_ceil(2 * max_entries))),
        shift_(64 -
               static_cast<unsigned>(std::countr_zero(slots_.size()))) {}

  /// The value stored under `key`, value-initialized and inserted when the
  /// key is absent; `.second` is true iff this call inserted it.
  std::pair<V*, bool> FindOrInsert(int64_t key) {
    for (size_t i = Home(key);; i = NextSlot(i)) {
      Slot& s = slots_[i];
      if (!s.used) {
        assert(2 * (size_ + 1) <= slots_.size() && "declared size exceeded");
        s.used = true;
        s.key = key;
        ++size_;
        return {&s.value, true};
      }
      if (s.key == key) return {&s.value, false};
    }
  }

  /// The value stored under `key`, or nullptr.
  const V* Find(int64_t key) const {
    for (size_t i = Home(key);; i = NextSlot(i)) {
      const Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  /// Removes `key`; returns false (and changes nothing) when it is absent.
  /// Backward shift: every later entry of the probe run whose home slot
  /// does not lie cyclically in (hole, entry] moves back into the hole,
  /// which keeps the no-gap-before-home invariant Find relies on.
  bool Erase(int64_t key) {
    size_t hole = Home(key);
    for (;; hole = NextSlot(hole)) {
      const Slot& s = slots_[hole];
      if (!s.used) return false;
      if (s.key == key) break;
    }
    const size_t mask = slots_.size() - 1;
    for (size_t j = NextSlot(hole);; j = NextSlot(j)) {
      Slot& s = slots_[j];
      if (!s.used) break;
      // The entry at j may fill the hole iff the hole is no further from
      // j than its home is (cyclic distances, both counted back from j).
      if (((j - Home(s.key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(s);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Removes every entry; the capacity is kept.
  void Clear() {
    if (size_ == 0) return;
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr size_t kMinCapacity = 8;
  static constexpr uint64_t kFibonacci = 0x9e3779b97f4a7c15ULL;  // 2^64/phi

  struct Slot {
    int64_t key = 0;
    V value{};
    bool used = false;
  };

  size_t Home(int64_t key) const {
    return static_cast<size_t>((static_cast<uint64_t>(key) * kFibonacci) >>
                               shift_);
  }
  size_t NextSlot(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  std::vector<Slot> slots_;
  unsigned shift_;  // 64 - log2(capacity): Home() keeps the top bits
  size_t size_ = 0;
};

}  // namespace dpcf
