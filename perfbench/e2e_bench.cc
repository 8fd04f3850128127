// End-to-end benchmark of the per-query diagnosis loop (paper Section V-B):
// exact cardinalities, optimize, cold baseline run, monitored run,
// re-optimize, improved run — FeedbackDriver::RunSingleTable / RunJoin.
//
//   e2e_bench --workload single-table|join|dml-reuse --seed N --seconds S
//             --trace 0|1 [--source-id ID] [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics on the untraced FeedbackDriver
// loop. --trace 1 additionally replays every query step by step through the
// same public calls the driver makes, with a span around each call and
// per-operator profiling on, and prints the per-layer metrics. Every output
// is checked against values computed apart from the program (closed-form
// counts, the benchmark's own copy of the dml-reuse rows, DPC bounds, the
// I/O identity, the paper's figure shapes); a query whose check fails counts
// as a failed operation. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// See README.md in this directory for the workloads and metric definitions.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/feedback_driver.h"
#include "exec/simd.h"
#include "obs/op_profile.h"
#include "spans.h"
#include "sql/binder.h"
#include "table/table.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

using namespace dpcf;

// ---------------------------------------------------------------------------
// Fixed workload shape (README.md, "Workloads").

constexpr int64_t kSyntheticRows = 400'000;  // T and T1: 4,939 pages each
constexpr size_t kPoolPages = 4096;
constexpr int kSingleQueriesPerColumn = 25;  // fig6: 4 x 25 = 100 queries
constexpr int kJoinQueries = 40;             // fig8: 10 per join column
constexpr int64_t kDmlRows = 200'000;        // fits in the pool
// The dml-reuse base table is fixed, like its query grid (see DmlSuite):
// the handful of plan flips its learning produces would otherwise swing
// with the table's permutations. The seed draws the write stream.
constexpr uint64_t kDmlTableSeed = 42;
constexpr int kDmlInsertsPerRound = 500;
constexpr int kDmlUpdatesPerRound = 500;
// 96 queries a round. Many strata keep the share of plans on each side of
// a scan/seek crossover nearly seed-independent.
constexpr int kDmlQueriesPerColumn = 12;  // single-atom, per C2..C5
constexpr int kDmlPairQueries = 12;       // per column pair, 4 pairs
// dml-reuse runs in passes of this many write+query rounds. Every pass starts
// from a fresh D and replays the same write stream, so the data, and the
// staleness of the feedback, that the timed queries see do not depend on how
// many passes the host's speed allows.
constexpr int kDmlPassRounds = 4;
// query_ms.p90 needs ten samples beyond it.
constexpr int64_t kMinTimedQueries = 100;
constexpr int kSetupRepeats = 3;
const int kPredCols[] = {kC2, kC3, kC4, kC5};

// ---------------------------------------------------------------------------
// Small helpers.

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(2);
}

void MustOk(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

template <typename T>
T Must(Result<T> r, const char* what) {
  MustOk(r.status(), what);
  return std::move(r).value();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// Linear interpolation between closest ranks (numpy's default).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// ---------------------------------------------------------------------------
// Inputs.

struct LoopQuery {
  bool is_join = false;
  SingleTableQuery single;
  JoinQuery join;
  const Table* table = nullptr;  // the predicate's (inner) table
  std::string sql;  // dml-reuse: bound through BindSql on every loop call
  int column = -1;  // predicate / join column, for the paper-shape checks
  // "col < bound" atoms of the (outer) selection, for the checks.
  std::vector<std::pair<int, int64_t>> atoms;
  int64_t expected_count = -1;  // computed apart from the program
};

// The benchmark's own copy of every dml-reuse row (C1..C5) and its rid.
struct RowModel {
  std::vector<std::array<int64_t, 5>> rows;  // index = C1 - 1
  std::vector<Rid> rids;

  int64_t Count(const std::vector<std::pair<int, int64_t>>& atoms) const {
    int64_t n = 0;
    for (const auto& r : rows) {
      bool pass = true;
      for (const auto& [col, bound] : atoms) {
        if (!(r[static_cast<size_t>(col)] < bound)) {
          pass = false;
          break;
        }
      }
      n += pass;
    }
    return n;
  }
};

struct Setup {
  std::unique_ptr<Database> db;
  StatisticsCatalog stats;
  Table* t = nullptr;   // T, or D for dml-reuse
  Table* t1 = nullptr;  // T1 (join)
  RowModel model;       // dml-reuse
  double load_s = 0;
  double stats_s = 0;
};

enum class Kind { kSingle, kJoin, kDml };

Kind ParseKind(const std::string& w) {
  if (w == "single-table") return Kind::kSingle;
  if (w == "join") return Kind::kJoin;
  if (w == "dml-reuse") return Kind::kDml;
  Die("unknown workload '" + w + "' (single-table, join, dml-reuse)");
}

Schema SyntheticSchema() {
  return Schema({Column::Int64("C1"), Column::Int64("C2"),
                 Column::Int64("C3"), Column::Int64("C4"),
                 Column::Int64("C5"), Column::Char("padding", 60)});
}

int64_t Jitter(Rng* rng, int64_t key, int64_t window) {
  return std::max<int64_t>(1, key + rng->NextInt(-window / 2, window / 2));
}

// The dml-reuse table: the synthetic C1..C5 correlation spectrum, built from
// the benchmark's own rows so it keeps a copy to check counts against.
Table* BuildDmlTable(Database* db, uint64_t seed, RowModel* model) {
  Table* table = Must(db->CreateTable("D", SyntheticSchema(),
                                      TableOrganization::kClustered, kC1),
                      "create D");
  Rng rng(seed);
  const int64_t n = kDmlRows;
  std::vector<int64_t> c3 = WindowShuffledPermutation(n, n / 64, &rng);
  std::vector<int64_t> c4 = WindowShuffledPermutation(n, n / 16, &rng);
  std::vector<int64_t> c5 = RandomPermutation(n, &rng);
  model->rows.resize(static_cast<size_t>(n));
  model->rids.resize(static_cast<size_t>(n));
  TableBuilder builder(table);
  const Value padding = Value::String("pad");
  for (int64_t i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(i);
    model->rows[k] = {i + 1, i + 1, c3[k] + 1, c4[k] + 1, c5[k] + 1};
    Tuple row;
    for (int64_t v : model->rows[k]) row.push_back(Value::Int64(v));
    row.push_back(padding);
    MustOk(builder.AddRow(row), "load D");
  }
  MustOk(builder.Finish(), "finish D");
  // Rows are appended in C1 order, filling each page before the next.
  const int64_t rpp = table->rows_per_page();
  for (int64_t i = 0; i < n; ++i) {
    model->rids[static_cast<size_t>(i)] =
        Rid{static_cast<PageNo>(i / rpp), static_cast<uint16_t>(i % rpp)};
  }
  MustOk(db->CreateIndex("D_c1", "D", std::vector<int>{kC1}, true).status(),
         "index D_c1");
  const char* names[] = {"D_c2", "D_c3", "D_c4", "D_c5"};
  for (int i = 0; i < 4; ++i) {
    MustOk(db->CreateIndex(names[i], "D", std::vector<int>{kPredCols[i]})
               .status(),
           "index D");
  }
  return table;
}

// From an empty Database to loaded tables, built indexes and statistics.
std::unique_ptr<Setup> BuildSetup(Kind kind, uint64_t seed,
                                  SpanRecorder* spans) {
  auto s = std::make_unique<Setup>();
  DatabaseOptions opts;
  opts.buffer_pool_pages = kPoolPages;
  if (kind == Kind::kDml) {
    // Misses go through the async submission ring, one completion worker.
    opts.async_io = true;
    opts.io_threads = 1;
  }
  int64_t t0 = NowNs();
  {
    SpanRecorder::Scope span(spans, "workload.load");
    s->db = std::make_unique<Database>(opts);
    if (kind == Kind::kDml) {
      s->t = BuildDmlTable(s->db.get(), kDmlTableSeed, &s->model);
    } else {
      SyntheticOptions so;
      so.num_rows = kSyntheticRows;
      so.seed = Mix(seed, 1);
      s->t = Must(BuildSyntheticTable(s->db.get(), "T", so), "build T");
      if (kind == Kind::kJoin) {
        SyntheticOptions o1 = so;
        o1.seed = Mix(seed, 3);  // independent permutations
        o1.build_indexes = false;
        s->t1 = Must(BuildSyntheticTable(s->db.get(), "T1", o1), "build T1");
        MustOk(s->db->CreateIndex("T1_c1", "T1", std::vector<int>{kC1}, true)
                   .status(),
               "index T1_c1");
      }
    }
  }
  s->load_s = MsSince(t0) / 1e3;
  t0 = NowNs();
  {
    SpanRecorder::Scope span(spans, "optimizer.stats_build");
    MustOk(s->stats.BuildAll(s->db->disk(), *s->t), "stats T");
    if (s->t1 != nullptr) {
      MustOk(s->stats.BuildAll(s->db->disk(), *s->t1), "stats T1");
    }
  }
  s->stats_s = MsSince(t0) / 1e3;
  return s;
}

// The fig6 / fig8 suites come from the library's generators, called once per
// selectivity stratum: one uniform draw per stratum and column instead of one
// over the whole band. Over seeds 1-10, whole-band draws spread sim_saved_ms
// (IQR over median) by 0.11 on single-table and 0.18 on join, and join's
// queries_per_s by 0.32; stratified draws spread sim_saved_ms by 0.02-0.06.
constexpr int kJoinStrata = kJoinQueries / 4;

// Edge i of `strata` equal strata over [lo, hi].
double StratumEdge(double lo, double hi, int i, int strata) {
  return lo + i * (hi - lo) / strata;
}

// fig6: "COUNT(padding) WHERE Ci < v" over C2..C5 at 1%-10% selectivity. Ci
// is a permutation of 1..N, so the count is v-1.
std::vector<LoopQuery> SingleTableSuite(Table* t, uint64_t seed) {
  std::vector<LoopQuery> out;
  for (int i = 0; i < kSingleQueriesPerColumn; ++i) {
    for (GeneratedSingleQuery& g : GenerateSyntheticSingleTableQueries(
             t, 1, StratumEdge(0.01, 0.10, i, kSingleQueriesPerColumn),
             StratumEdge(0.01, 0.10, i + 1, kSingleQueriesPerColumn),
             Mix(seed, static_cast<uint64_t>(i)))) {
      const PredicateAtom atom = g.query.pred.atoms()[0];
      LoopQuery q;
      q.single = std::move(g.query);
      q.table = t;
      q.column = g.column;
      q.atoms = {{atom.col(), atom.int_operand()}};
      q.expected_count = atom.int_operand() - 1;
      out.push_back(std::move(q));
    }
  }
  return out;
}

// fig8: T1.C1 < v joined to T on Ci (C2..C5) at 0.5%-7% outer selectivity.
// T1.C1 < v selects v-1 rows whose Ci values each match exactly one T row,
// so COUNT(T.padding) is v-1.
std::vector<LoopQuery> JoinSuite(Table* t, Table* t1, uint64_t seed) {
  std::vector<LoopQuery> out;
  for (int i = 0; i < kJoinStrata; ++i) {
    for (GeneratedJoinQuery& g : GenerateSyntheticJoinQueries(
             t, t1, 4, StratumEdge(0.005, 0.07, i, kJoinStrata),
             StratumEdge(0.005, 0.07, i + 1, kJoinStrata),
             Mix(seed, static_cast<uint64_t>(i)))) {
      const PredicateAtom atom = g.query.outer_pred.atoms()[0];
      LoopQuery q;
      q.is_join = true;
      q.join = std::move(g.query);
      q.table = t;
      q.column = g.column;
      q.atoms = {{atom.col(), atom.int_operand()}};
      q.expected_count = atom.int_operand() - 1;
      out.push_back(std::move(q));
    }
  }
  return out;
}

// dml-reuse: SQL text whose predicates repeat every round — single-atom
// ranges at 0.01%-0.07% and two-column conjunctions of 0.5%-3% atoms, so
// index seeks (with linear-counting fetch monitors) dominate. The bounds are a
// fixed grid (stratum midpoints), like the base table: the few plans that
// flip here sit near scan/seek crossovers, so seed-drawn bounds made the
// simulated savings swing from seed to seed. Expected counts come from the
// row model.
std::vector<LoopQuery> DmlSuite(Table* t) {
  const int64_t n = kDmlRows;
  auto bound = [&](double lo, double hi, int i, int strata) {
    const double sel = lo + (i + 0.5) / strata * (hi - lo);
    return std::max<int64_t>(2, static_cast<int64_t>(sel * n));
  };
  std::vector<LoopQuery> out;
  auto add = [&](std::vector<std::pair<int, int64_t>> atoms) {
    LoopQuery q;
    q.table = t;
    q.column = atoms[0].first;
    q.atoms = atoms;
    q.sql = "SELECT COUNT(padding) FROM D WHERE ";
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) q.sql += " AND ";
      q.sql += StrFormat("%s < %lld",
                         t->schema()
                             .column(static_cast<size_t>(atoms[i].first))
                             .name.c_str(),
                         static_cast<long long>(atoms[i].second));
    }
    out.push_back(std::move(q));
  };
  for (int col : kPredCols) {
    for (int i = 0; i < kDmlQueriesPerColumn; ++i) {
      add({{col, bound(0.0001, 0.0007, i, kDmlQueriesPerColumn)}});
    }
  }
  const std::pair<int, int> pairs[] = {
      {kC2, kC3}, {kC3, kC4}, {kC4, kC5}, {kC5, kC2}};
  for (const auto& [a, b] : pairs) {
    for (int i = 0; i < kDmlPairQueries; ++i) {
      add({{a, bound(0.005, 0.03, i, kDmlPairQueries)},
           {b, bound(0.005, 0.03, kDmlPairQueries - 1 - i, kDmlPairQueries)}});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layer counters gathered outside the spans (traced mode).

// Operator kinds of the OpProfile trees, by the prefix of Describe().
struct OpKinds {
  static constexpr const char* kNames[] = {
      "table_scan", "clustered_range_scan", "covering_index_scan",
      "fetch",      "hash_join",            "merge_join",
      "index_nested_loops_join",            "sort",
      "aggregate",  "filter",               "other"};
  static constexpr size_t kCount = sizeof(kNames) / sizeof(kNames[0]);

  static size_t Classify(const std::string& describe) {
    static const std::map<std::string, size_t> kIndex = {
        // A full scan of a clustered table describes itself this way.
        {"ClusteredIndexScan", 0},
        {"TableScan", 0},
        {"ClusteredRangeScan", 1},
        {"CoveringIndexScan", 2},
        {"Fetch", 3},  // with its index seek or intersection rid source
        {"HashJoin", 4},
        {"MergeJoin", 5},
        {"IndexNestedLoopsJoin", 6},
        {"Sort", 7},
        {"Aggregate", 8},
        {"Filter", 9},
    };
    auto it = kIndex.find(describe.substr(0, describe.find('(')));
    return it == kIndex.end() ? kCount - 1 : it->second;
  }
};

struct LayerCounters {
  int64_t exact_card_rows = 0;
  int64_t raw_page_reads = 0;
  IoStats io;    // summed over the three runs of every query
  CpuStats cpu;
  std::array<double, OpKinds::kCount> op_self_ms{};
  int64_t store_entries = 0;  // summed store size after each fold

  void AddProfile(const OpProfileNode& node) {
    double child_ms = 0;
    for (const OpProfileNode& c : node.children) {
      child_ms += c.profile.wall_ms();
      AddProfile(c);
    }
    op_self_ms[OpKinds::Classify(node.describe)] +=
        node.profile.wall_ms() - child_ms;
  }
};

// ---------------------------------------------------------------------------
// The traced replay: FeedbackDriver::RunSingleTable / RunJoin, step by step,
// through the same public calls, with a span around each.

struct ReplayRun {
  RunStatistics stats;
  int64_t count = -1;
};

struct ReplayOutcome {
  std::string plan_before;
  std::string plan_after;
  bool plan_changed = false;
  ReplayRun runs[3];  // baseline, monitored, improved
  std::vector<MonitorRecord> feedback;
};

class TracedLoop {
 public:
  TracedLoop(Database* db, StatisticsCatalog* stats,
             const FeedbackRunOptions& options, SpanRecorder* spans,
             LayerCounters* counters)
      : db_(db),
        stats_(stats),
        options_(options),
        spans_(spans),
        counters_(counters),
        drift_monitor_(options.drift) {
    drift_monitor_.AttachObservability(
        db_->options().observability.metrics ? db_->metrics() : nullptr,
        db_->journal());
  }

  OptimizerHints* hints() { return &hints_; }
  FeedbackStore* store() { return &store_; }

  Result<ReplayOutcome> RunSingleTable(const SingleTableQuery& query) {
    ReplayOutcome out;
    if (options_.inject_accurate_cardinalities) {
      SpanRecorder::Scope s(spans_, "core.inject_cardinalities");
      DPCF_RETURN_IF_ERROR(InjectSelection(query.table, query.pred));
    }
    Optimizer opt(db_, stats_, &hints_, options_.cost_params,
                  options_.learn_dpc_histograms ? &dpc_histograms_ : nullptr);
    AccessPathPlan before;
    {
      SpanRecorder::Scope s(spans_, "optimizer.optimize");
      DPCF_ASSIGN_OR_RETURN(before, opt.OptimizeSingleTable(query));
    }
    out.plan_before = before.Describe();
    auto instrument = [&](ExecContext*) {
      return MonitorManager(db_, options_.monitor)
          .ForSingleTable(before, query);
    };
    auto build = [&](const AccessPathPlan& path) {
      return [&, path](const PlanMonitorHooks& hooks) {
        return BuildSingleTableExec(path, query, hooks);
      };
    };
    std::vector<MonitoredExpr> entries;
    DPCF_ASSIGN_OR_RETURN(out.runs[0], Execute(0, nullptr, build(before),
                                               nullptr));
    DPCF_ASSIGN_OR_RETURN(out.runs[1], Execute(1, instrument, build(before),
                                               &entries));
    DPCF_RETURN_IF_ERROR(Fold(opt, entries, nullptr, &out));
    AccessPathPlan after;
    {
      SpanRecorder::Scope s(spans_, "optimizer.optimize");
      DPCF_ASSIGN_OR_RETURN(after, opt.OptimizeSingleTable(query));
    }
    out.plan_after = after.Describe();
    out.plan_changed = after.Signature() != before.Signature();
    DPCF_ASSIGN_OR_RETURN(out.runs[2],
                          Execute(2, nullptr, build(after), nullptr));
    return out;
  }

  Result<ReplayOutcome> RunJoin(const JoinQuery& query) {
    ReplayOutcome out;
    if (options_.inject_accurate_cardinalities) {
      SpanRecorder::Scope s(spans_, "core.inject_cardinalities");
      DPCF_RETURN_IF_ERROR(
          InjectSelection(query.outer_table, query.outer_pred));
      DPCF_RETURN_IF_ERROR(
          InjectSelection(query.inner_table, query.inner_pred));
      ExactJoinCardinalities exact;
      {
        SpanRecorder::Scope s2(spans_, "core.exact_card");
        const int64_t raw0 = db_->disk()->io_stats()->raw_page_reads;
        DPCF_ASSIGN_OR_RETURN(exact, ExactJoinCardinality(db_->disk(), query));
        counters_->raw_page_reads +=
            db_->disk()->io_stats()->raw_page_reads - raw0;
      }
      counters_->exact_card_rows +=
          query.outer_table->row_count() + query.inner_table->row_count();
      hints_.SetCardinality(
          JoinPredKey(*query.outer_table, query.outer_col,
                      *query.inner_table, query.inner_col),
          static_cast<double>(exact.join_rows));
    }
    Optimizer opt(db_, stats_, &hints_, options_.cost_params,
                  options_.learn_dpc_histograms ? &dpc_histograms_ : nullptr);
    JoinPlan before;
    {
      SpanRecorder::Scope s(spans_, "optimizer.optimize");
      DPCF_ASSIGN_OR_RETURN(before, opt.OptimizeJoin(query));
    }
    out.plan_before = before.Describe();
    auto instrument = [&](ExecContext* ctx) {
      return MonitorManager(db_, options_.monitor).ForJoin(before, query, ctx);
    };
    auto build = [&](const JoinPlan& plan) {
      return [&, plan](const PlanMonitorHooks& hooks) {
        return BuildJoinExec(plan, query, hooks);
      };
    };
    std::vector<MonitoredExpr> entries;
    DPCF_ASSIGN_OR_RETURN(out.runs[0],
                          Execute(0, nullptr, build(before), nullptr));
    DPCF_ASSIGN_OR_RETURN(out.runs[1],
                          Execute(1, instrument, build(before), &entries));
    DPCF_RETURN_IF_ERROR(Fold(opt, entries, &query, &out));
    JoinPlan after;
    {
      SpanRecorder::Scope s(spans_, "optimizer.optimize");
      DPCF_ASSIGN_OR_RETURN(after, opt.OptimizeJoin(query));
    }
    out.plan_after = after.Describe();
    out.plan_changed = after.Signature() != before.Signature();
    DPCF_ASSIGN_OR_RETURN(out.runs[2],
                          Execute(2, nullptr, build(after), nullptr));
    return out;
  }

 private:
  using Instrument = std::function<Result<InstrumentedHooks>(ExecContext*)>;
  using Build = std::function<Result<OperatorPtr>(const PlanMonitorHooks&)>;

  int64_t ExactCard(const Table& table, const Predicate& pred) {
    SpanRecorder::Scope s(spans_, "core.exact_card");
    const int64_t raw0 = db_->disk()->io_stats()->raw_page_reads;
    const int64_t n = ExactCardinality(db_->disk(), table, pred);
    counters_->raw_page_reads += db_->disk()->io_stats()->raw_page_reads - raw0;
    counters_->exact_card_rows += table.row_count();
    return n;
  }

  // FeedbackDriver::InjectSelectionCardinalities.
  Status InjectSelection(Table* table, const Predicate& pred) {
    if (pred.empty()) return Status::OK();
    hints_.SetCardinality(SelPredKey(*table, pred),
                          static_cast<double>(ExactCard(*table, pred)));
    const std::vector<Index*> indexes = db_->catalog().IndexesForTable(table);
    for (Index* index : indexes) {
      if (auto range = BuildIndexRange(pred, index)) {
        const std::string key = SelPredKey(*table, range->sargable);
        if (!hints_.Cardinality(key).has_value()) {
          hints_.SetCardinality(
              key, static_cast<double>(ExactCard(*table, range->sargable)));
        }
      }
    }
    std::vector<Predicate> sargables;
    for (Index* index : indexes) {
      if (index->is_clustered_key()) continue;
      if (auto range = BuildIndexRange(pred, index)) {
        sargables.push_back(range->sargable);
      }
    }
    for (size_t i = 0; i < sargables.size(); ++i) {
      for (size_t j = i + 1; j < sargables.size(); ++j) {
        Predicate combined = sargables[i];
        for (const PredicateAtom& a : sargables[j].atoms()) combined.Add(a);
        const std::string key = SelPredKey(*table, combined);
        if (!hints_.Cardinality(key).has_value()) {
          hints_.SetCardinality(
              key, static_cast<double>(ExactCard(*table, combined)));
        }
      }
    }
    return Status::OK();
  }

  // FeedbackDriver::ExecuteSingle / ExecuteJoin; phase 0/1/2 = baseline,
  // monitored, improved.
  Result<ReplayRun> Execute(int phase, const Instrument& instrument,
                            const Build& build,
                            std::vector<MonitoredExpr>* entries) {
    static const char* kExecute[] = {"exec.execute.baseline",
                                     "exec.execute.monitored",
                                     "exec.execute.improved"};
    SpanRecorder::Scope run(spans_, "exec.run");
    {
      SpanRecorder::Scope s(spans_, "storage.cold_cache");
      DPCF_RETURN_IF_ERROR(db_->ColdCache());
    }
    ExecContext ctx(db_->buffer_pool(), options_.exec_seed);
    ctx.set_trace(db_->trace());
    ctx.set_profiling(true);
    ctx.set_query_id(++query_id_);
    if (db_->options().observability.metrics) ctx.set_metrics(db_->metrics());
    ctx.set_journal(db_->journal());
    PlanMonitorHooks hooks;
    hooks.scan_sample_fraction = options_.monitor.scan_sample_fraction;
    hooks.seed = options_.monitor.seed;
    hooks.vectorized_scan = options_.monitor.vectorized_scan;
    if (instrument) {
      SpanRecorder::Scope s(spans_, "core.instrument");
      DPCF_ASSIGN_OR_RETURN(InstrumentedHooks ih, instrument(&ctx));
      hooks = std::move(ih.hooks);
      *entries = std::move(ih.entries);
    }
    OperatorPtr root;
    {
      SpanRecorder::Scope s(spans_, "exec.build");
      DPCF_ASSIGN_OR_RETURN(root, build(hooks));
    }
    RunResult result;
    {
      SpanRecorder::Scope s(spans_, kExecute[phase]);
      DPCF_ASSIGN_OR_RETURN(
          result, ExecutePlan(root.get(), &ctx, options_.cost_params));
    }
    ReplayRun out;
    out.count = result.output.empty() || result.output[0].empty()
                    ? -1
                    : result.output[0][0].AsInt64();
    out.stats = std::move(result.stats);
    counters_->io += out.stats.io;
    counters_->cpu += out.stats.cpu;
    if (out.stats.profile != nullptr) counters_->AddProfile(*out.stats.profile);
    return out;
  }

  // Everything between the monitored run and the re-optimization: attach
  // estimates, then fold the feedback into the store, the DPC histograms,
  // the error tracker and the drift monitor.
  Status Fold(const Optimizer& opt, const std::vector<MonitoredExpr>& entries,
              const JoinQuery* join_query, ReplayOutcome* out) {
    RunStatistics* stats = &out->runs[1].stats;
    {
      SpanRecorder::Scope s(spans_, "optimizer.estimate");
      AttachEstimates(opt, entries, join_query, stats);
    }
    SpanRecorder::Scope fold(spans_, "core.feedback_fold");
    out->feedback = stats->monitors;
    {
      SpanRecorder::Scope s(spans_, "obs.error_tracker");
      error_tracker_.RecordAll(out->feedback);
    }
    {
      SpanRecorder::Scope s(spans_, "obs.drift_monitor");
      drift_monitor_.ObserveAll(out->feedback);
    }
    {
      SpanRecorder::Scope s(spans_, "core.store_record");
      store_.RecordRun(*stats);
    }
    {
      SpanRecorder::Scope s(spans_, "core.apply_hints");
      store_.ApplyToHints(&hints_);
    }
    if (options_.learn_dpc_histograms) {
      SpanRecorder::Scope s(spans_, "core.learn_dpc_histograms");
      LearnDpcHistograms(entries, *stats);
    }
    counters_->store_entries += static_cast<int64_t>(store_.size());
    return Status::OK();
  }

  // FeedbackDriver::AttachEstimates.
  void AttachEstimates(const Optimizer& opt,
                       const std::vector<MonitoredExpr>& entries,
                       const JoinQuery* jq, RunStatistics* stats) {
    for (MonitorRecord& rec : stats->monitors) {
      auto it = std::find_if(
          entries.begin(), entries.end(),
          [&rec](const MonitoredExpr& e) { return e.label == rec.label; });
      if (it == entries.end()) continue;
      if (it->is_join && jq != nullptr) {
        const double outer_rows =
            opt.cardinality().EstimateRows(*jq->outer_table, jq->outer_pred);
        double semi = opt.cardinality().EstimateJoinRows(
            *jq->outer_table, outer_rows, jq->outer_col, *jq->inner_table,
            static_cast<double>(jq->inner_table->row_count()), jq->inner_col);
        semi = std::min(semi,
                        static_cast<double>(jq->inner_table->row_count()));
        rec.estimated_cardinality = semi;
        rec.estimated_dpc = opt.EstimateJoinDpc(*jq, semi, nullptr);
      } else {
        const double est = opt.cardinality().EstimateRows(*it->table, it->expr);
        rec.estimated_cardinality = est;
        rec.estimated_dpc = opt.EstimateDpc(*it->table, it->expr, est, nullptr);
      }
    }
  }

  // FeedbackDriver::LearnDpcHistograms.
  void LearnDpcHistograms(const std::vector<MonitoredExpr>& entries,
                          const RunStatistics& stats) {
    for (const MonitorRecord& rec : stats.monitors) {
      for (const MonitoredExpr& e : entries) {
        if (e.label != rec.label || e.is_join || e.expr.empty()) continue;
        const int col = e.expr.atoms()[0].col();
        auto range = ExtractColumnRange(e.expr, col);
        if (!range.has_value() || range->atoms.size() != e.expr.size()) {
          continue;
        }
        if (rec.actual_cardinality <= 0) continue;
        dpc_histograms_.Observe(*e.table, col, range->lo, range->hi,
                                rec.actual_dpc, rec.actual_cardinality);
      }
    }
  }

  Database* db_;
  StatisticsCatalog* stats_;
  FeedbackRunOptions options_;
  SpanRecorder* spans_;
  LayerCounters* counters_;
  OptimizerHints hints_;
  FeedbackStore store_;
  DpcHistogramCatalog dpc_histograms_;
  EstimationErrorTracker error_tracker_;
  DriftMonitor drift_monitor_;
  uint64_t query_id_ = 0;
};

// ---------------------------------------------------------------------------
// Output checks, all against values computed apart from the program.

bool IoBalanced(const IoStats& io) {
  return static_cast<int64_t>(io.logical_reads) ==
         static_cast<int64_t>(io.buffer_hits) + io.physical_reads();
}

// Returns "" when every check passes, else the first failure.
std::string CheckOutcome(const LoopQuery& q, const FeedbackOutcome& out) {
  if (out.count_result != q.expected_count) {
    return StrFormat("COUNT %lld, expected %lld",
                     static_cast<long long>(out.count_result),
                     static_cast<long long>(q.expected_count));
  }
  for (const RunStatistics* r :
       {&out.baseline_run, &out.monitored_run, &out.improved_run}) {
    if (!IoBalanced(r->io)) return "I/O identity broken: " + r->io.ToString();
  }
  // The DPC of "C2 < v" (C2 = C1, clustered) on the predicate's table, and
  // of a C2 join, is exactly the v-1 leading rows' pages.
  std::string c2_label;
  int64_t c2_rows = -1;
  const Table* c2_table = nullptr;
  if (q.is_join && q.column == kC2) {
    c2_rows = q.expected_count;
    c2_table = q.table;
  } else if (!q.is_join) {
    for (const auto& [col, bound] : q.atoms) {
      if (col != kC2) continue;
      Predicate p;
      p.Add(PredicateAtom::Int64(kC2, CmpOp::kLt, bound));
      c2_label = SelPredKey(*q.table, p);
      c2_rows = bound - 1;
      c2_table = q.table;
    }
  }
  for (const MonitorRecord& rec : out.feedback) {
    if (!rec.exact) continue;
    const Table* t = rec.table == q.table->name() ? q.table
                     : q.is_join ? q.join.outer_table
                                 : nullptr;
    if (t == nullptr || t->name() != rec.table) {
      return "monitor record on unexpected table " + rec.table;
    }
    const int64_t card = std::llround(rec.actual_cardinality);
    const int64_t dpc = std::llround(rec.actual_dpc);
    const int64_t lo = CeilDiv(card, t->rows_per_page());
    const int64_t hi = std::min<int64_t>(card, t->page_count());
    if (dpc < lo || dpc > hi || rec.actual_dpc != static_cast<double>(dpc)) {
      return StrFormat("exact DPC %s of %s outside [%lld, %lld]",
                       FormatDouble(rec.actual_dpc, 1).c_str(),
                       rec.label.c_str(), static_cast<long long>(lo),
                       static_cast<long long>(hi));
    }
    const bool c2 = c2_table == t && (q.is_join || rec.label == c2_label);
    if (c2) {
      const int64_t pages = CeilDiv(c2_rows, t->rows_per_page());
      if (card != c2_rows || dpc != pages) {
        return StrFormat("C2 record %s: card %lld dpc %lld, expected %lld/%lld",
                         rec.label.c_str(), static_cast<long long>(card),
                         static_cast<long long>(dpc),
                         static_cast<long long>(c2_rows),
                         static_cast<long long>(pages));
      }
    }
  }
  return "";
}

bool SameRecords(const std::vector<MonitorRecord>& a,
                 const std::vector<MonitorRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].mechanism != b[i].mechanism ||
        a[i].actual_dpc != b[i].actual_dpc ||
        a[i].actual_cardinality != b[i].actual_cardinality ||
        a[i].estimated_dpc != b[i].estimated_dpc ||
        a[i].estimated_cardinality != b[i].estimated_cardinality) {
      return false;
    }
  }
  return true;
}

// The replay must reach what the untraced loop reached.
std::string CheckReplay(const FeedbackOutcome& d, const ReplayOutcome& r) {
  if (d.plan_before != r.plan_before || d.plan_after != r.plan_after ||
      d.plan_changed != r.plan_changed) {
    return "replay plans differ: " + r.plan_before + " / " + r.plan_after;
  }
  if (r.runs[0].count != d.count_result || r.runs[1].count != r.runs[0].count ||
      r.runs[2].count != r.runs[0].count) {
    return StrFormat("COUNTs differ: driver %lld, replay %lld/%lld/%lld",
                     static_cast<long long>(d.count_result),
                     static_cast<long long>(r.runs[0].count),
                     static_cast<long long>(r.runs[1].count),
                     static_cast<long long>(r.runs[2].count));
  }
  const RunStatistics* dr[3] = {&d.baseline_run, &d.monitored_run,
                                &d.improved_run};
  for (int i = 0; i < 3; ++i) {
    if (dr[i]->simulated_ms != r.runs[i].stats.simulated_ms) {
      return StrFormat("run %d simulated ms differ: %s vs %s", i,
                       FormatDouble(dr[i]->simulated_ms, 4).c_str(),
                       FormatDouble(r.runs[i].stats.simulated_ms, 4).c_str());
    }
    if (!IoBalanced(r.runs[i].stats.io)) return "replay I/O identity broken";
  }
  if (!SameRecords(d.feedback, r.feedback)) return "replay DPC records differ";
  return "";
}

int64_t JournalDropped(Database* db) {
  EventJournal* j = db->journal();
  return j == nullptr ? 0 : j->dropped_overwritten() + j->dropped_torn();
}

// ---------------------------------------------------------------------------
// Metric output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) Die("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Registry histogram buckets, to take quantiles over the traced replays'
// deltas only (the registry is cumulative and also sees set-up and the
// untraced calls). The deltas add up over every database a run builds (one
// per dml-reuse pass).
struct HistSnapshot {
  const LogHistogram* h = nullptr;
  std::vector<int64_t> base;
  std::vector<int64_t> delta;

  void Attach(const LogHistogram* hist) {
    h = hist;
    base.resize(hist->num_buckets());
    delta.resize(hist->num_buckets());
  }

  void Begin() {
    for (size_t i = 0; i < base.size(); ++i) base[i] = h->bucket_count(i);
  }
  void End() {
    for (size_t i = 0; i < base.size(); ++i) {
      delta[i] += h->bucket_count(i) - base[i];
    }
  }
  // Same interpolation as LogHistogram::Quantile.
  double Quantile(double q) const {
    if (h == nullptr) return 0;
    int64_t n = 0;
    for (int64_t c : delta) n += c;
    if (n == 0) return 0;
    double rank = std::max(1.0, q * static_cast<double>(n));
    int64_t cum = 0;
    for (size_t i = 0; i < delta.size(); ++i) {
      if (delta[i] > 0 && static_cast<double>(cum + delta[i]) >= rank) {
        const double lo = i == 0 ? 0.0 : h->bucket_bound(i - 1);
        const double hi = h->bucket_bound(i);
        return lo + (hi - lo) * ((rank - static_cast<double>(cum)) /
                                 static_cast<double>(delta[i]));
      }
      cum += delta[i];
    }
    return h->bucket_bound(delta.size() - 1);
  }
};

// ---------------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string source_id = "unknown";
  std::string spans_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--source-id") {
      a.source_id = v;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      Die("unknown flag " + k);
    }
  }
  if (a.workload.empty()) Die("--workload is required");
  return a;
}

// Runs the process on one CPU, the one it started on (or the first it may
// use). Threads created later inherit it, so dml-reuse's completion worker
// shares the CPU with the query thread: each ring hand-off costs a context
// switch instead of a cross-core wake-up, whose latency depends on what the
// other cores are doing and made dml-reuse wall times swing by about 10%
// from run to run. Returns the CPU, or -1 when the affinity is left alone.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = sched_getcpu();
  if (cpu < 0 || !CPU_ISSET(cpu, &allowed)) {
    cpu = -1;
    for (int c = 0; c < CPU_SETSIZE && cpu < 0; ++c) {
      if (CPU_ISSET(c, &allowed)) cpu = c;
    }
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

// What one run accumulates.
struct Tally {
  std::vector<double> latency_ms;  // untraced loop calls
  std::vector<double> round_qps;   // loop calls per loop-call second
  // Per query of a pass (round-major), its loop-call ms in every pass.
  std::vector<std::vector<double>> query_ms;
  double sim_saved_ms = 0;         // over the first pass
  double sim_overhead_ms = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  int reported = 0;
  int rounds = 0;
  // dml-reuse write phases.
  int64_t rows_written = 0;
  int64_t physical_writes = 0;
  // Registry deltas over the traced replays.
  int64_t ring_submitted = 0;
  int64_t journal_events = 0;
};

// Registry metrics read around each traced replay.
struct Probes {
  HistSnapshot miss_us;
  HistSnapshot queue_us;
  HistSnapshot service_us;
  Counter* ring_submitted = nullptr;

  void Attach(MetricsRegistry* reg) {
    miss_us.Attach(
        reg->GetHistogram("buffer_pool_miss_read_us", "", 1.0, 2.0, 20));
    queue_us.Attach(reg->GetHistogram("disk_queue_wait_us", "", 1.0, 2.0, 20,
                                      {{"class", "demand"}}));
    service_us.Attach(reg->GetHistogram("disk_service_time_us", "", 1.0, 2.0,
                                        20, {{"class", "demand"}}));
    ring_submitted = reg->GetCounter("disk_async_submitted_total", "");
  }

  void Begin() {
    for (HistSnapshot* h : {&miss_us, &queue_us, &service_us}) h->Begin();
  }
  void End() {
    for (HistSnapshot* h : {&miss_us, &queue_us, &service_us}) h->End();
  }
};

Tuple ToTuple(const std::array<int64_t, 5>& r) {
  Tuple row;
  for (int64_t v : r) row.push_back(Value::Int64(v));
  row.push_back(Value::String("pad"));
  return row;
}

// One dml-reuse write phase: appends and in-place updates (C1 and C2 keep
// their values, C3..C5 are redrawn), then a checkpoint. The row model
// follows every write.
void WriteRound(Database* db, RowModel* m, Rng* rng, SpanRecorder* tracer,
                Tally* tally) {
  SpanRecorder::Scope round_span(tracer, "write_round");
  const int64_t writes0 = db->disk()->io_stats()->physical_writes;
  const int64_t n = static_cast<int64_t>(m->rows.size());
  for (int i = 0; i < kDmlInsertsPerRound; ++i) {
    const int64_t key = n + i + 1;
    const std::array<int64_t, 5> r = {
        key, key, Jitter(rng, key, kDmlRows / 64),
        Jitter(rng, key, kDmlRows / 16), rng->NextInt(1, key)};
    Result<Rid> rid = Status::Internal("not inserted");
    {
      SpanRecorder::Scope s(tracer, "storage.insert_row");
      rid = db->InsertRow("D", ToTuple(r));
    }
    if (!rid.ok()) Die("InsertRow: " + rid.status().ToString());
    m->rows.push_back(r);
    m->rids.push_back(*rid);
  }
  const int64_t total = static_cast<int64_t>(m->rows.size());
  for (int i = 0; i < kDmlUpdatesPerRound; ++i) {
    const size_t p = static_cast<size_t>(rng->NextInt(0, total - 1));
    std::array<int64_t, 5>& r = m->rows[p];
    r[2] = Jitter(rng, r[0], kDmlRows / 64);
    r[3] = Jitter(rng, r[0], kDmlRows / 16);
    r[4] = rng->NextInt(1, total);
    Status st;
    {
      SpanRecorder::Scope s(tracer, "storage.update_row");
      st = db->UpdateRow("D", m->rids[p], ToTuple(r));
    }
    if (!st.ok()) Die("UpdateRow: " + st.ToString());
  }
  {
    SpanRecorder::Scope s(tracer, "storage.checkpoint");
    MustOk(db->Checkpoint(), "Checkpoint");
  }
  tally->physical_writes += db->disk()->io_stats()->physical_writes - writes0;
  tally->rows_written += kDmlInsertsPerRound + kDmlUpdatesPerRound;
}

// The paper-shape property one pass over the fig6 / fig8 suite must have;
// "" when it holds.
std::string ShapeViolation(Kind kind,
                           std::map<int, std::vector<double>>& speedups,
                           std::map<int, int>& flips) {
  if (kind == Kind::kSingle) {
    std::vector<double> mean;
    for (int col : kPredCols) {
      double sum = 0;
      for (double v : speedups[col]) sum += v;
      mean.push_back(speedups[col].empty()
                         ? 0
                         : sum / static_cast<double>(speedups[col].size()));
    }
    if (!(mean[0] > mean[1] && mean[1] > mean[2] && mean[2] > mean[3] &&
          mean[3] == 0)) {
      return StrFormat("fig6 shape: mean speedup C2..C5 = %.4f %.4f %.4f %.4f",
                       mean[0], mean[1], mean[2], mean[3]);
    }
  } else if (kind == Kind::kJoin) {
    if (flips[kC2] == 0 || flips[kC3] == 0 || flips[kC4] == 0 ||
        flips[kC5] != 0) {
      return StrFormat("fig8 shape: plan flips C2..C5 = %d %d %d %d",
                       flips[kC2], flips[kC3], flips[kC4], flips[kC5]);
    }
  }
  return "";
}

// One loop call; dml-reuse queries arrive as SQL text.
Result<FeedbackOutcome> DriverCall(FeedbackDriver* driver, Database* db,
                                   const LoopQuery& q) {
  if (q.sql.empty()) {
    return q.is_join ? driver->RunJoin(q.join)
                     : driver->RunSingleTable(q.single);
  }
  DPCF_ASSIGN_OR_RETURN(BoundQuery bound, BindSql(*db, q.sql));
  return bound.is_join ? driver->RunJoin(bound.join)
                       : driver->RunSingleTable(bound.single);
}

// The traced replay of one loop call, under a root span tagged `query`.
Result<ReplayOutcome> ReplayCall(TracedLoop* replay, Database* db,
                                 const LoopQuery& q, SpanRecorder* spans,
                                 uint64_t query) {
  spans->set_query(query);
  Result<ReplayOutcome> out = Status::Internal("not run");
  {
    SpanRecorder::Scope loop(spans, "loop");
    if (q.sql.empty()) {
      out = q.is_join ? replay->RunJoin(q.join)
                      : replay->RunSingleTable(q.single);
    } else {
      Result<BoundQuery> bound = Status::Internal("not bound");
      {
        SpanRecorder::Scope s(spans, "sql.bind");
        bound = BindSql(*db, q.sql);
      }
      out = !bound.ok()      ? Result<ReplayOutcome>(bound.status())
            : bound->is_join ? replay->RunJoin(bound->join)
                             : replay->RunSingleTable(bound->single);
    }
  }
  spans->set_query(0);
  return out;
}

// Loop calls per second of a typical pass: each query's median time over the
// passes, summed. The host's speed drifts by 10-20% over seconds to minutes;
// a per-query median keeps a slow or fast stretch that covers only some
// passes out of the figure.
double TypicalPassQps(const Tally& t) {
  double pass_ms = 0;
  for (const std::vector<double>& v : t.query_ms) pass_ms += Median(v);
  return static_cast<double>(t.query_ms.size()) / (pass_ms / 1e3);
}

std::vector<Metric> EndToEndMetrics(const std::vector<double>& setup_s,
                                    const Tally& t) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"setup_s", Median(setup_s), "s"},
      {"queries_per_s", TypicalPassQps(t), "1/s"},
      {"query_ms.p50", Percentile(t.latency_ms, 0.5), "ms"},
      {"query_ms.p90", Percentile(t.latency_ms, 0.9), "ms"},
      {"sim_saved_ms", t.sim_saved_ms, "sim_ms"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
  };
}

// Per-query means over the traced loop calls (write metrics per round).
std::vector<Metric> PerLayerMetrics(const Setup& setup,
                                    const SpanRecorder& spans,
                                    const LayerCounters& c, const Tally& t,
                                    const Probes& probes) {
  std::map<std::string, SpanRecorder::Totals> by = spans.ByName();
  const double nq = static_cast<double>(by["loop"].calls);
  const double nr = std::max(1, t.rounds);
  auto per_q = [&](double v) { return nq > 0 ? v / nq : 0.0; };
  auto count = [&](int64_t v) { return per_q(static_cast<double>(v)); };
  auto total = [&](const char* name) { return by[name].total_ms; };
  auto calls = [&](const char* name) {
    return per_q(static_cast<double>(by[name].calls));
  };
  // Self time by module (the span name's prefix), over query spans only;
  // the root span's self time is the unattributed rest.
  std::map<std::string, double> module_self;
  const std::vector<double> self = spans.SelfMs();
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const SpanRecorder::Span& s = spans.spans()[i];
    if (s.query == 0) continue;
    const std::string name = s.name;
    const size_t dot = name.find('.');
    module_self[dot == std::string::npos ? "unattributed"
                                         : name.substr(0, dot)] += self[i];
  }
  double untraced_ms = 0;
  for (double v : t.latency_ms) untraced_ms += v;
  untraced_ms /= std::max<double>(1, static_cast<double>(t.latency_ms.size()));
  const double write_ms =
      total("storage.insert_row") + total("storage.update_row");
  const double checkpoint_ms = total("storage.checkpoint");
  const double write_s = (write_ms + checkpoint_ms) / 1e3;
  const IoStats& io = c.io;
  std::vector<Metric> m = {
      {"workload.load_s", setup.load_s, "s"},
      {"optimizer.stats_build_s", setup.stats_s, "s"},
      {"loop.untraced_ms", untraced_ms, "ms"},
      {"loop.traced_ms", per_q(total("loop")), "ms"},
      {"unattributed_ms", per_q(module_self["unattributed"]), "ms"},
      {"obs.tracing_overhead_ms", per_q(total("loop")) - untraced_ms, "ms"},
      {"obs.journal_events", count(t.journal_events), "count"},
      {"core.exact_card_ms", per_q(total("core.exact_card")), "ms"},
      {"core.exact_card_calls", calls("core.exact_card"), "count"},
      {"core.exact_card_rows", count(c.exact_card_rows), "rows"},
      {"core.instrument_ms", per_q(total("core.instrument")), "ms"},
      {"core.feedback_fold_ms", per_q(total("core.feedback_fold")), "ms"},
      {"core.feedback_store_entries", count(c.store_entries), "count"},
      {"optimizer.optimize_ms", per_q(total("optimizer.optimize")), "ms"},
      {"optimizer.optimize_calls", calls("optimizer.optimize"), "count"},
      {"optimizer.estimate_ms", per_q(total("optimizer.estimate")), "ms"},
      {"sql.bind_ms", per_q(total("sql.bind")), "ms"},
      {"storage.cold_cache_ms", per_q(total("storage.cold_cache")), "ms"},
      {"storage.cold_cache_calls", calls("storage.cold_cache"), "count"},
      {"exec.baseline_ms", per_q(total("exec.execute.baseline")), "ms"},
      {"exec.monitored_ms", per_q(total("exec.execute.monitored")), "ms"},
      {"exec.improved_ms", per_q(total("exec.execute.improved")), "ms"},
      // Per-layer rather than end-to-end: on single-table it reads the same
      // for every seed (each baseline is a full scan whose grouped page
      // counting costs one flag operation per row).
      {"sim_monitor_overhead_ms", t.sim_overhead_ms, "sim_ms"},
      {"exec.monitor_overhead_ms",
       per_q(total("exec.execute.monitored") -
             total("exec.execute.baseline")),
       "ms"},
      {"exec.build_ms", per_q(total("exec.build")), "ms"},
      {"exec.rows_processed", count(c.cpu.rows_processed), "count"},
      {"exec.predicate_atom_evals", count(c.cpu.predicate_atom_evals),
       "count"},
      {"exec.monitor_row_ops", count(c.cpu.monitor_row_ops), "count"},
      {"exec.hash_table_ops", count(c.cpu.hash_table_ops), "count"},
      {"storage.logical_reads", count(io.logical_reads), "count"},
      {"storage.buffer_hits", count(io.buffer_hits), "count"},
      {"storage.buffer_hit_ratio",
       io.logical_reads > 0 ? static_cast<double>(io.buffer_hits) /
                                  static_cast<double>(io.logical_reads)
                            : 0.0,
       "ratio"},
      {"storage.physical_seq_reads", count(io.physical_seq_reads), "count"},
      {"storage.physical_rand_reads", count(io.physical_rand_reads),
       "count"},
      {"storage.raw_page_reads", count(c.raw_page_reads), "count"},
      {"storage.miss_read_us.p50", probes.miss_us.Quantile(0.5), "us"},
      {"storage.ring_submitted", count(t.ring_submitted), "count"},
      {"storage.ring_queue_wait_us.p50", probes.queue_us.Quantile(0.5),
       "us"},
      {"storage.ring_service_us.p50", probes.service_us.Quantile(0.5), "us"},
      {"storage.write_ms", write_ms / nr, "ms"},
      {"storage.checkpoint_ms", checkpoint_ms / nr, "ms"},
      {"storage.physical_writes",
       static_cast<double>(t.physical_writes) / nr, "count"},
      {"writes_per_s",
       write_s > 0 ? static_cast<double>(t.rows_written) / write_s : 0.0,
       "rows/s"},
  };
  for (size_t k = 0; k < OpKinds::kCount; ++k) {
    m.push_back({StrFormat("exec.op.%s.self_ms", OpKinds::kNames[k]),
                 per_q(c.op_self_ms[k]), "ms"});
  }
  for (const char* mod :
       {"storage", "optimizer", "core", "exec", "sql", "obs"}) {
    m.push_back({StrFormat("self.%s_ms", mod), per_q(module_self[mod]),
                 "ms"});
  }
  std::printf("# spans: %-30s %10s %12s %12s\n", "name", "calls",
              "total_ms", "self_ms");
  for (const auto& [name, tot] : by) {
    std::printf("# spans: %-30s %10lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(tot.calls), tot.total_ms,
                tot.self_ms);
  }
  if (total("loop") > 0) {
    std::printf("# unattributed share of traced loop time: %.3f%%\n",
                100.0 * module_self["unattributed"] / total("loop"));
  }
  return m;
}

void PrintResult(const Args& args, const Tally& t,
                 const std::vector<Metric>& metrics) {
  std::string deciles;
  for (int d = 1; d <= 9; ++d) {
    deciles += StrFormat(" %.2f", Percentile(t.latency_ms, d / 10.0));
  }
  std::printf("# loop-call ms deciles (untraced, %zu calls):%s\n",
              t.latency_ms.size(), deciles.c_str());
  std::string per_round;
  for (double v : t.round_qps) per_round += StrFormat(" %.2f", v);
  std::printf("# loop calls per second, by round:%s\n", per_round.c_str());
  std::printf("# %s: %d rounds, %lld queries attempted, %lld failed\n",
              args.workload.c_str(), t.rounds,
              static_cast<long long>(t.attempted),
              static_cast<long long>(t.failed));
  for (const Metric& m : metrics) {
    std::printf("# metric %-38s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      t.correct ? "true" : "false", static_cast<long long>(t.attempted),
      static_cast<long long>(t.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " +
            JsonString(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
}

int Run(const Args& args) {
  const Kind kind = ParseKind(args.workload);
  const int cpu = PinToOneCpu();
  std::printf(
      "# stamp {\"source\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"simd_isa\": %s, \"nproc\": %ld, \"threads\": %d, "
      "\"pinned_cpu\": %d, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      JsonString(args.source_id).c_str(),
      JsonString(DPCF_BENCH_COMPILER).c_str(),
      JsonString(DPCF_BENCH_BUILD_TYPE).c_str(),
      JsonString(SimdIsaName(ActiveSimdIsa())).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), kind == Kind::kDml ? 2 : 1, cpu,
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);

  SpanRecorder spans;
  SpanRecorder* tracer = args.trace ? &spans : nullptr;

  // Set-up: several times untraced (median reported), once traced.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    setup.reset();
    const int64_t t0 = NowNs();
    setup = BuildSetup(kind, args.seed, tracer);
    setup_s.push_back(MsSince(t0) / 1e3);
  }
  FeedbackRunOptions options;
  // fig6/fig8 optimize each query independently; dml-reuse keeps learning.
  options.learn_dpc_histograms = kind == Kind::kDml;
  const int pass_rounds = kind == Kind::kDml ? kDmlPassRounds : 1;
  LayerCounters counters;
  Probes probes;
  Tally t;

  const int64_t phase_start = NowNs();
  for (int pass = 0;; ++pass) {
    if (kind == Kind::kDml && pass > 0) {
      // A fresh D for every dml-reuse pass; its set-up counts as one more.
      setup.reset();
      const int64_t t0 = NowNs();
      setup = BuildSetup(kind, args.seed, tracer);
      setup_s.push_back(MsSince(t0) / 1e3);
    }
    Database* db = setup->db.get();
    std::vector<LoopQuery> suite;
    switch (kind) {
      case Kind::kSingle:
        suite = SingleTableSuite(setup->t, Mix(args.seed, 2));
        break;
      case Kind::kJoin:
        suite = JoinSuite(setup->t, setup->t1, Mix(args.seed, 2));
        break;
      case Kind::kDml:
        suite = DmlSuite(setup->t);
        break;
    }
    FeedbackDriver driver(db, &setup->stats, options);
    std::unique_ptr<TracedLoop> replay;
    if (args.trace) {
      replay = std::make_unique<TracedLoop>(db, &setup->stats, options,
                                            &spans, &counters);
    }
    probes.Attach(db->metrics());
    Rng write_rng(Mix(args.seed, 5));
    t.query_ms.resize(suite.size() * static_cast<size_t>(pass_rounds));

    for (int round = 0; round < pass_rounds; ++round) {
      if (kind == Kind::kDml) {
        WriteRound(db, &setup->model, &write_rng, tracer, &t);
        driver.hints()->Clear();
        if (replay) replay->hints()->Clear();
        for (LoopQuery& q : suite) {
          q.expected_count = setup->model.Count(q.atoms);
        }
      }

      std::map<int, std::vector<double>> speedups;
      std::map<int, int> flips;
      // A query fails when its loop call returns an error (failed only) or
      // an output check does not hold (failed, and the run is not correct).
      std::vector<bool> round_failed(suite.size(), false);
      auto fail = [&](size_t qi, const std::string& why, bool mismatch) {
        if (t.reported++ < 5) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
        if (!round_failed[qi]) ++t.failed;
        round_failed[qi] = true;
        if (mismatch) t.correct = false;
      };
      double round_ms = 0;
      for (size_t qi = 0; qi < suite.size(); ++qi) {
        const LoopQuery& q = suite[qi];
        ++t.attempted;
        if (kind != Kind::kDml) {
          // Each fig6/fig8 query starts from fresh hints and an empty store.
          driver.hints()->Clear();
          driver.store()->Clear();
          if (replay) {
            replay->hints()->Clear();
            replay->store()->Clear();
          }
        }
        Result<ReplayOutcome> rep = Status::Internal("not run");
        auto run_replay = [&] {
          EventJournal* journal = db->journal();
          if (journal != nullptr) journal->Drain();
          const int64_t dropped0 = JournalDropped(db);
          const int64_t submitted0 = probes.ring_submitted->value();
          probes.Begin();
          rep = ReplayCall(replay.get(), db, q, &spans,
                           static_cast<uint64_t>(t.attempted));
          probes.End();
          t.ring_submitted += probes.ring_submitted->value() - submitted0;
          if (journal != nullptr) {
            t.journal_events += static_cast<int64_t>(journal->Drain().size()) +
                                JournalDropped(db) - dropped0;
          }
        };
        // Alternate which of the two goes first, so neither always runs on
        // caches the other warmed.
        if (replay && t.attempted % 2 == 0) run_replay();
        const int64_t t0 = NowNs();
        Result<FeedbackOutcome> res = DriverCall(&driver, db, q);
        const double ms = MsSince(t0);
        if (replay && t.attempted % 2 == 1) run_replay();
        t.latency_ms.push_back(ms);
        round_ms += ms;
        t.query_ms[static_cast<size_t>(round) * suite.size() + qi].push_back(
            ms);

        if (!res.ok()) {
          fail(qi, "loop call: " + res.status().ToString(), false);
          continue;
        }
        const FeedbackOutcome& out = *res;
        if (pass == 0) {
          t.sim_saved_ms += out.time_before_ms - out.time_after_ms;
          t.sim_overhead_ms +=
              out.monitored_run.simulated_ms - out.time_before_ms;
        }
        speedups[q.column].push_back(out.speedup);
        flips[q.column] += out.plan_changed;
        std::string why = CheckOutcome(q, out);
        if (why.empty() && replay) {
          why = rep.ok() ? CheckReplay(out, *rep)
                         : "replay: " + rep.status().ToString();
        }
        if (!why.empty()) fail(qi, why, true);
      }
      ++t.rounds;
      t.round_qps.push_back(static_cast<double>(suite.size()) /
                            (round_ms / 1e3));
      const std::string shape = ShapeViolation(kind, speedups, flips);
      if (!shape.empty()) {
        // The property belongs to the whole round: every query of it fails.
        for (size_t qi = 0; qi < suite.size(); ++qi) fail(qi, shape, true);
      }
    }

    // query_ms.p90 needs kMinTimedQueries calls; traced runs report no
    // percentile, and their profiled replays cost up to 2.6x the loop.
    if (MsSince(phase_start) / 1e3 >= args.seconds &&
        (args.trace ||
         static_cast<int64_t>(t.latency_ms.size()) >= kMinTimedQueries)) {
      break;
    }
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayerMetrics(*setup, spans, counters, t, probes);
    if (!args.spans_out.empty() && !spans.WriteTsv(args.spans_out)) {
      Die("cannot write " + args.spans_out);
    }
  } else {
    metrics = EndToEndMetrics(setup_s, t);
  }
  PrintResult(args, t, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
