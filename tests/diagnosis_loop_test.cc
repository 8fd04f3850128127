// The per-query diagnosis loop's hot paths (DESIGN.md section 17), each
// checked against a plain reference:
//
//  * FlatInt64Map: extreme and colliding keys, repeated find-or-insert,
//    and erase / clear against a std::unordered_map model;
//  * HashJoinOp: output *in order* against a nested-loop join, with
//    duplicate keys on both sides, empty inputs and re-Open;
//  * ExactCardinalities / ExactCardinality: kernel-evaluated counts against
//    the row-at-a-time reference, under every available SIMD ISA, with one
//    page read per page however many predicates are counted;
//  * ExactJoinCardinality: duplicate outer keys and an inner predicate
//    against the reference.

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_int64_map.h"
#include "common/random.h"
#include "core/feedback_driver.h"
#include "exec/executor.h"
#include "exec/join_ops.h"
#include "exec/simd.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

using testing::ReferenceCardinality;
using testing::ReferenceJoinCardinality;
using testing::SyntheticDbTest;

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
// A Fibonacci number: its small multiples pile onto the first slot
// (positive multiples) or the last one (negative multiples) of any table
// (see CollidingKeysProbeLinearly), so their probe runs wrap around.
constexpr int64_t kFib45 = 1134903170;

// ------------------------------------------------------------ FlatInt64Map

TEST(FlatInt64MapTest, ExtremeKeysAreOrdinaryKeys) {
  FlatInt64Map<int64_t> map(6);
  const int64_t keys[] = {0, -1, kMin, kMax, 1, kMin + 1};
  for (int64_t k : keys) {
    EXPECT_EQ(map.Find(k), nullptr) << k;
    auto [v, inserted] = map.FindOrInsert(k);
    EXPECT_TRUE(inserted) << k;
    EXPECT_EQ(*v, 0) << "fresh values are value-initialized";
    *v = k / 2 + 7;
  }
  EXPECT_EQ(map.size(), 6u);
  for (int64_t k : keys) {
    const int64_t* v = map.Find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k / 2 + 7) << k;
  }
  EXPECT_EQ(map.Find(2), nullptr);
  EXPECT_EQ(map.Find(kMax - 1), nullptr);
}

TEST(FlatInt64MapTest, CapacityIsAPowerOfTwoAtLeastTwiceTheEntries) {
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 100u, 1000u}) {
    FlatInt64Map<int> map(n);
    const size_t cap = map.capacity();
    EXPECT_EQ(cap & (cap - 1), 0u) << n;
    EXPECT_GE(cap, 2 * n) << n;
  }
}

TEST(FlatInt64MapTest, CollidingKeysProbeLinearly) {
  // Fibonacci hashing keeps the top bits of key * 2^64/phi. For a
  // Fibonacci number d, d/phi is within a hair of an integer, so every
  // small multiple of d hashes to the first or (negative multiples) the
  // last slot: the keys pile up and must be told apart by linear probing,
  // wrapping around the end of the table.
  FlatInt64Map<int> map(16);
  std::vector<int64_t> keys;
  for (int64_t i = -8; i < 8; ++i) keys.push_back(i * kFib45);
  for (size_t i = 0; i < keys.size(); ++i) {
    *map.FindOrInsert(keys[i]).first = static_cast<int>(i);
  }
  EXPECT_EQ(map.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const int* v = map.Find(keys[i]);
    ASSERT_NE(v, nullptr) << keys[i];
    EXPECT_EQ(*v, static_cast<int>(i));
  }
  EXPECT_EQ(map.Find(8 * kFib45), nullptr);
  EXPECT_EQ(map.Find(-9 * kFib45), nullptr);
}

TEST(FlatInt64MapTest, RepeatedFindOrInsertCountsLikeAMultiset) {
  Rng rng(11);
  std::vector<int64_t> draws;
  for (int i = 0; i < 5000; ++i) {
    draws.push_back(static_cast<int64_t>(rng.NextBounded(300)) - 150);
  }
  FlatInt64Map<int64_t> map(draws.size());
  std::map<int64_t, int64_t> expect;
  for (int64_t k : draws) {
    auto [v, inserted] = map.FindOrInsert(k);
    EXPECT_EQ(inserted, expect.find(k) == expect.end()) << k;
    ++*v;
    ++expect[k];
  }
  EXPECT_EQ(map.size(), expect.size());
  for (const auto& [k, n] : expect) {
    const int64_t* v = map.Find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, n) << k;
  }
}

/// Checks `map` against `model` for every key in `domain`.
void ExpectSameContents(const FlatInt64Map<int64_t>& map,
                        const std::unordered_map<int64_t, int64_t>& model,
                        const std::vector<int64_t>& domain) {
  ASSERT_EQ(map.size(), model.size());
  for (int64_t k : domain) {
    const int64_t* v = map.Find(k);
    auto it = model.find(k);
    if (it == model.end()) {
      EXPECT_EQ(v, nullptr) << k;
    } else {
      ASSERT_NE(v, nullptr) << k;
      EXPECT_EQ(*v, it->second) << k;
    }
  }
}

TEST(FlatInt64MapTest, EraseFromACollisionRunThatWraps) {
  std::vector<int64_t> keys;
  for (int64_t i = -8; i < 8; ++i) keys.push_back(i * kFib45);
  // Every erase order of a different shape: front to back, back to front,
  // and a stride that alternates between the two piles.
  const std::vector<std::vector<size_t>> orders = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
      {15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
      {8, 0, 9, 1, 10, 2, 11, 3, 12, 4, 13, 5, 14, 6, 15, 7},
  };
  for (const auto& order : orders) {
    FlatInt64Map<int64_t> map(keys.size());
    std::unordered_map<int64_t, int64_t> model;
    for (size_t i = 0; i < keys.size(); ++i) {
      *map.FindOrInsert(keys[i]).first = static_cast<int64_t>(i) + 1;
      model[keys[i]] = static_cast<int64_t>(i) + 1;
    }
    for (size_t i : order) {
      EXPECT_TRUE(map.Erase(keys[i])) << keys[i];
      model.erase(keys[i]);
      ExpectSameContents(map, model, keys);
    }
    EXPECT_EQ(map.size(), 0u);
  }
}

TEST(FlatInt64MapTest, EraseOfAnAbsentKeyChangesNothing) {
  FlatInt64Map<int64_t> map(4);
  EXPECT_FALSE(map.Erase(42));
  *map.FindOrInsert(3 * kFib45).first = 5;
  *map.FindOrInsert(4 * kFib45).first = 6;
  // Absent, but its home slot is inside the occupied run.
  EXPECT_FALSE(map.Erase(5 * kFib45));
  EXPECT_FALSE(map.Erase(0));
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(3 * kFib45), nullptr);
  EXPECT_EQ(*map.Find(4 * kFib45), 6);
}

TEST(FlatInt64MapTest, ReinsertAfterEraseStartsFromAFreshValue) {
  FlatInt64Map<int64_t> map(4);
  *map.FindOrInsert(7).first = 70;
  ASSERT_TRUE(map.Erase(7));
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_FALSE(map.Erase(7)) << "a second erase finds nothing";
  auto [v, inserted] = map.FindOrInsert(7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 0) << "an erased slot must not leak its old value";
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatInt64MapTest, ExtremeKeysEraseAndReinsert) {
  const std::vector<int64_t> keys = {0, -1, kMin, kMax};
  FlatInt64Map<int64_t> map(keys.size());
  std::unordered_map<int64_t, int64_t> model;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      *map.FindOrInsert(keys[i]).first = round * 10 + static_cast<int>(i);
      model[keys[i]] = round * 10 + static_cast<int>(i);
    }
    ExpectSameContents(map, model, keys);
    // Erase a different pair each round, then the rest.
    for (size_t i = 0; i < keys.size(); ++i) {
      const int64_t k = keys[(i + static_cast<size_t>(round)) % keys.size()];
      EXPECT_TRUE(map.Erase(k)) << k;
      model.erase(k);
      ExpectSameContents(map, model, keys);
    }
  }
}

TEST(FlatInt64MapTest, ClearEmptiesAndKeepsTheCapacity) {
  FlatInt64Map<int64_t> map(16);
  std::vector<int64_t> keys = {0, -1, kMin, kMax};
  for (int64_t i = 1; i <= 6; ++i) {
    keys.push_back(i * kFib45);
    keys.push_back(-i * kFib45);
  }
  for (int64_t k : keys) *map.FindOrInsert(k).first = k | 1;
  const size_t cap = map.capacity();
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap);
  for (int64_t k : keys) EXPECT_EQ(map.Find(k), nullptr) << k;
  map.Clear();  // clearing an empty table is a no-op
  for (int64_t k : keys) {
    auto [v, inserted] = map.FindOrInsert(k);
    EXPECT_TRUE(inserted) << k;
    EXPECT_EQ(*v, 0) << k;
  }
  EXPECT_EQ(map.size(), keys.size());
}

TEST(FlatInt64MapTest, RandomInsertEraseFindMatchesUnorderedMap) {
  // A key domain three times the declared size, mixing extremes, a wrapping
  // collision pile and small integers; the live set is capped at the
  // declared size, so the run churns through long insert/erase sequences.
  std::vector<int64_t> domain = {0, -1, kMin, kMax, kMin + 1, kMax - 1};
  for (int64_t i = -10; i < 10; ++i) domain.push_back(i * kFib45);
  while (domain.size() < 96) {
    domain.push_back(static_cast<int64_t>(domain.size()) * 7 - 300);
  }
  constexpr size_t kDeclared = 32;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    FlatInt64Map<int64_t> map(kDeclared);
    std::unordered_map<int64_t, int64_t> model;
    for (int step = 0; step < 4000; ++step) {
      const int64_t k = domain[rng.NextBounded(domain.size())];
      const double roll = rng.NextDouble();
      if (roll < 0.45 && model.size() < kDeclared) {
        auto [v, inserted] = map.FindOrInsert(k);
        ASSERT_EQ(inserted, model.count(k) == 0) << "step " << step;
        ASSERT_EQ(*v, model[k]) << "step " << step;
        *v = model[k] = step + 1;
      } else if (roll < 0.9) {
        ASSERT_EQ(map.Erase(k), model.erase(k) == 1) << "step " << step;
      } else {
        const int64_t* v = map.Find(k);
        auto it = model.find(k);
        ASSERT_EQ(v != nullptr, it != model.end()) << "step " << step;
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second) << "step " << step;
        }
      }
      if (step % 97 == 0) ExpectSameContents(map, model, domain);
      if (step == 2000) {
        map.Clear();
        model.clear();
      }
    }
    ExpectSameContents(map, model, domain);
  }
}

// -------------------------------------------------------------- HashJoinOp

/// In-memory tuple source.
class ValuesOp : public Operator {
 public:
  explicit ValuesOp(std::vector<Tuple> rows) : rows_(std::move(rows)) {}
  std::string Describe() const override { return "Values"; }

 protected:
  Status OpenImpl(ExecContext*) override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> NextImpl(ExecContext*, Tuple* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    return true;
  }
  Status CloseImpl(ExecContext*) override { return Status::OK(); }

 private:
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

// Build tuples are (key, tag); probe tuples are (tag, key), so the two key
// columns sit at different positions.
std::vector<Tuple> KeyedRows(const std::vector<int64_t>& keys, int64_t tag0,
                             bool key_first) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    const Value key = Value::Int64(keys[i]);
    const Value tag = Value::Int64(tag0 + static_cast<int64_t>(i));
    rows.push_back(key_first ? Tuple{key, tag} : Tuple{tag, key});
  }
  return rows;
}

// Every probe row in input order, paired with each matching build row in
// build input order — the order HashJoinOp promises.
std::vector<Tuple> NestedLoopJoin(const std::vector<Tuple>& build,
                                  const std::vector<Tuple>& probe) {
  std::vector<Tuple> out;
  for (const Tuple& p : probe) {
    for (const Tuple& b : build) {
      if (p[1].AsInt64() != b[0].AsInt64()) continue;
      Tuple t = p;
      t.insert(t.end(), b.begin(), b.end());
      out.push_back(std::move(t));
    }
  }
  return out;
}

class HashJoinOrderTest : public ::testing::Test {
 protected:
  void CheckJoin(const std::vector<int64_t>& build_keys,
                 const std::vector<int64_t>& probe_keys) {
    const std::vector<Tuple> build = KeyedRows(build_keys, 1000, true);
    const std::vector<Tuple> probe = KeyedRows(probe_keys, 0, false);
    const std::vector<Tuple> expect = NestedLoopJoin(build, probe);
    HashJoinOp join(std::make_unique<ValuesOp>(build), 0,
                    std::make_unique<ValuesOp>(probe), 1);
    // Run twice: a re-Open must rebuild from scratch, not append.
    for (int round = 0; round < 2; ++round) {
      ExecContext ctx(db_.buffer_pool());
      auto run = ExecutePlan(&join, &ctx);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->output, expect) << "round " << round;
      EXPECT_EQ(run->stats.cpu.hash_table_ops,
                static_cast<int64_t>(build.size() + probe.size()))
          << "one op per build row and per probe row";
    }
  }

  Database db_;
};

TEST_F(HashJoinOrderTest, DuplicateKeysOnBothSidesKeepInputOrder) {
  CheckJoin({5, 3, 5, kMin, 0, 5, -1, kMax, 3, 0, kMin},
            {3, 5, 7, 0, 5, kMax, -1, kMin, 5, 42, 3});
}

TEST_F(HashJoinOrderTest, EmptyBuildOrProbe) {
  CheckJoin({}, {1, 2, 3});
  CheckJoin({1, 2, 2}, {});
  CheckJoin({}, {});
}

TEST_F(HashJoinOrderTest, RandomKeysMatchNestedLoop) {
  Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<int64_t> build_keys, probe_keys;
    const uint64_t domain = 1 + rng.NextBounded(40);
    const uint64_t nb = rng.NextBounded(300);
    const uint64_t np = rng.NextBounded(300);
    for (uint64_t i = 0; i < nb; ++i) {
      build_keys.push_back(static_cast<int64_t>(rng.NextBounded(domain)));
    }
    for (uint64_t i = 0; i < np; ++i) {
      probe_keys.push_back(static_cast<int64_t>(rng.NextBounded(domain)));
    }
    CheckJoin(build_keys, probe_keys);
  }
}

// ----------------------------------------------------- Exact cardinalities

/// Pins the process-wide SIMD table for a scope, restoring the previous
/// ISA on exit so test order doesn't leak.
class ScopedSimd {
 public:
  explicit ScopedSimd(SimdIsa isa) : prev_(ActiveSimdIsa()) {
    EXPECT_TRUE(SetActiveSimd(isa).ok()) << SimdIsaName(isa);
  }
  ~ScopedSimd() { (void)SetActiveSimd(prev_); }

 private:
  SimdIsa prev_;
};

// A conjunction of 1..4 atoms over C1..C5 and the CHAR padding column,
// uniform over all six CmpOps.
Predicate RandomPredicate(Rng* rng, int64_t n, uint32_t pad_width) {
  Predicate pred;
  const int atoms = 1 + static_cast<int>(rng->NextBounded(4));
  const int cols[] = {kC1, kC2, kC3, kC4, kC5};
  for (int a = 0; a < atoms; ++a) {
    const CmpOp op = static_cast<CmpOp>(rng->NextBounded(6));
    if (rng->NextBounded(4) == 0) {
      const char* operands[] = {"pad", "", "paa", "pae", "zzz"};
      pred.Add(PredicateAtom::String(
          kPadding, op, operands[rng->NextBounded(5)], pad_width));
      continue;
    }
    pred.Add(PredicateAtom::Int64(cols[rng->NextBounded(5)], op,
                                  rng->NextInt(1, n)));
  }
  return pred;
}

class ExactCardinalitySweep : public SyntheticDbTest {};

TEST_F(ExactCardinalitySweep, KernelCountsMatchRowReferenceOnEveryIsa) {
  const int64_t n = t_->row_count();
  const uint32_t pad_width = t_->schema().column(kPadding).size;
  Rng rng(2024);
  std::vector<Predicate> preds;
  preds.push_back(Predicate());  // empty: every row
  for (int i = 0; i < 24; ++i) {
    preds.push_back(RandomPredicate(&rng, n, pad_width));
  }
  preds.push_back(preds[3]);  // a repeated predicate counts twice, alike
  std::vector<int64_t> expect;
  for (const Predicate& p : preds) {
    expect.push_back(ReferenceCardinality(db_->disk(), *t_, p));
  }
  EXPECT_EQ(expect[0], n);
  for (SimdIsa isa : AvailableSimdIsas()) {
    ScopedSimd pin(isa);
    IoStats* io = db_->disk()->io_stats();
    const int64_t raw0 = io->raw_page_reads;
    const std::vector<int64_t> got =
        ExactCardinalities(db_->disk(), *t_, preds);
    EXPECT_EQ(io->raw_page_reads - raw0,
              static_cast<int64_t>(t_->page_count()))
        << "one walk, whatever the number of predicates";
    EXPECT_EQ(got, expect) << SimdIsaName(isa);
    for (size_t k = 0; k < preds.size(); ++k) {
      EXPECT_EQ(ExactCardinality(db_->disk(), *t_, preds[k]), expect[k])
          << SimdIsaName(isa) << " " << preds[k].ToString(t_->schema());
    }
  }
  EXPECT_TRUE(ExactCardinalities(db_->disk(), *t_, {}).empty());
}

// Outer and inner tables with duplicate join keys (including the int64
// extremes) and a CHAR column.
class ExactJoinCardinalityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    const int64_t special[] = {0, -1, kMin, kMax};
    outer_ = MakeTable("outer", 3000, &rng, special);
    inner_ = MakeTable("inner", 5000, &rng, special);
  }

  Table* MakeTable(const std::string& name, int rows, Rng* rng,
                   const int64_t (&special)[4]) {
    Schema schema({Column::Int64("k"), Column::Int64("v"),
                   Column::Char("tag", 4)});
    auto table = db_.CreateTable(name, schema, TableOrganization::kHeap);
    EXPECT_TRUE(table.ok());
    TableBuilder b(*table);
    const char* tags[] = {"a", "b", "cc"};
    for (int i = 0; i < rows; ++i) {
      const int64_t k = rng->NextBounded(10) == 0
                            ? special[rng->NextBounded(4)]
                            : static_cast<int64_t>(rng->NextBounded(700));
      EXPECT_TRUE(b.AddRow({Value::Int64(k), Value::Int64(i),
                            Value::String(tags[rng->NextBounded(3)])})
                      .ok());
    }
    EXPECT_TRUE(b.Finish().ok());
    return *table;
  }

  JoinQuery Query(Predicate outer_pred, Predicate inner_pred) const {
    JoinQuery q;
    q.outer_table = outer_;
    q.outer_pred = std::move(outer_pred);
    q.outer_col = 0;
    q.inner_table = inner_;
    q.inner_pred = std::move(inner_pred);
    q.inner_col = 0;
    return q;
  }

  void Check(const JoinQuery& q) {
    const ExactJoinCardinalities expect =
        ReferenceJoinCardinality(db_.disk(), q);
    for (SimdIsa isa : AvailableSimdIsas()) {
      ScopedSimd pin(isa);
      auto got = ExactJoinCardinality(db_.disk(), q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->join_rows, expect.join_rows) << SimdIsaName(isa);
      EXPECT_EQ(got->semi_join_rows, expect.semi_join_rows)
          << SimdIsaName(isa);
    }
  }

  Database db_;
  Table* outer_ = nullptr;
  Table* inner_ = nullptr;
};

TEST_F(ExactJoinCardinalityTest, DuplicateOuterKeysWithInnerPredicate) {
  // Unfiltered: every duplicate outer key multiplies its inner matches.
  Check(Query(Predicate(), Predicate()));
  const ExactJoinCardinalities all =
      ReferenceJoinCardinality(db_.disk(), Query(Predicate(), Predicate()));
  EXPECT_GT(all.join_rows, all.semi_join_rows) << "keys really repeat";

  Check(Query(Predicate({PredicateAtom::Int64(1, CmpOp::kLt, 1500)}),
              Predicate({PredicateAtom::Int64(1, CmpOp::kGe, 1000)})));
  Check(Query(Predicate({PredicateAtom::String(2, CmpOp::kNe, "b", 4)}),
              Predicate({PredicateAtom::String(2, CmpOp::kEq, "cc", 4),
                         PredicateAtom::Int64(1, CmpOp::kLe, 4000)})));
  // Nothing passes the outer filter: no semi-join rows at all.
  Check(Query(Predicate({PredicateAtom::Int64(1, CmpOp::kLt, 0)}),
              Predicate()));
}

}  // namespace
}  // namespace dpcf
