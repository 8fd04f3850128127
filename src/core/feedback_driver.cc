#include "core/feedback_driver.h"

#include <algorithm>
#include <atomic>

#include "common/flat_int64_map.h"
#include "common/string_util.h"
#include "exec/predicate_kernel.h"
#include "obs/op_profile.h"

namespace dpcf {

FeedbackDriver::FeedbackDriver(Database* db, StatisticsCatalog* stats,
                               FeedbackRunOptions options)
    : db_(db),
      stats_(stats),
      options_(options),
      drift_monitor_(options.drift) {
  drift_monitor_.AttachObservability(
      db_->options().observability.metrics ? db_->metrics() : nullptr,
      db_->journal());
}

namespace {
// Hands `visit` every non-empty page image of `table` bound to one
// RowBlock. Pages are read through the charging RawPage, one read per page.
template <typename Visit>
void ForEachPage(DiskManager* disk, const Table& table, Visit&& visit) {
  const HeapFile* file = table.file();
  RowBlock block(&table.schema());
  for (PageNo p = 0; p < file->page_count(); ++p) {
    const char* page = disk->RawPage(PageId{file->segment(), p});
    block.Reset(HeapFile::PageRows(page), HeapFile::PageRowCount(page));
    if (block.size() > 0) visit(block);
  }
}
}  // namespace

// The exact counts are methodology, not query work: the kernels charge a
// local CpuStats that is dropped, so no run's statistics see this pass.
std::vector<int64_t> ExactCardinalities(DiskManager* disk, const Table& table,
                                        std::span<const Predicate> preds) {
  std::vector<int64_t> counts(preds.size(), 0);
  if (preds.empty()) return counts;
  std::vector<PredicateKernel> kernels;
  kernels.reserve(preds.size());
  for (const Predicate& pred : preds) {
    kernels.emplace_back(pred, &table.schema());
  }
  CpuStats discarded;
  std::vector<uint32_t> sel;
  ForEachPage(disk, table, [&](RowBlock& block) {
    sel.resize(block.size());
    for (size_t k = 0; k < kernels.size(); ++k) {
      counts[k] += kernels[k].EvalBatch(&block, &discarded, sel.data(),
                                        nullptr);
    }
  });
  return counts;
}

int64_t ExactCardinality(DiskManager* disk, const Table& table,
                         const Predicate& pred) {
  return ExactCardinalities(disk, table, std::span(&pred, 1))[0];
}

Result<ExactJoinCardinalities> ExactJoinCardinality(DiskManager* disk,
                                                    const JoinQuery& query) {
  ExactJoinCardinalities out;
  CpuStats discarded;
  // Filtered outer keys, gathered first so the multiset is sized once.
  std::vector<int64_t> keys;
  {
    const Table& t = *query.outer_table;
    const PredicateKernel kernel(query.outer_pred, &t.schema());
    const size_t key_col = static_cast<size_t>(query.outer_col);
    std::vector<uint32_t> sel;
    ForEachPage(disk, t, [&](RowBlock& block) {
      sel.resize(block.size());
      const uint32_t m =
          kernel.EvalBatch(&block, &discarded, sel.data(), nullptr);
      for (uint32_t i = 0; i < m; ++i) {
        keys.push_back(
            RowView(block.row(sel[i]), &t.schema()).GetInt64(key_col));
      }
    });
  }
  FlatInt64Map<int64_t> outer_keys(keys.size());
  for (int64_t key : keys) ++*outer_keys.FindOrInsert(key).first;
  {
    const Table& t = *query.inner_table;
    const PredicateKernel kernel(query.inner_pred, &t.schema());
    const size_t key_col = static_cast<size_t>(query.inner_col);
    std::vector<uint8_t> pass;
    ForEachPage(disk, t, [&](RowBlock& block) {
      pass.resize(block.size());
      kernel.EvalBatchDense(&block, &discarded, pass.data());
      for (uint32_t r = 0; r < block.size(); ++r) {
        const int64_t* n = outer_keys.Find(
            RowView(block.row(r), &t.schema()).GetInt64(key_col));
        if (n == nullptr) continue;
        ++out.semi_join_rows;
        if (pass[r] != 0) out.join_rows += *n;
      }
    });
  }
  return out;
}

Status FeedbackDriver::InjectSelectionCardinalities(Table* table,
                                                    const Predicate& pred) {
  if (pred.empty()) return Status::OK();
  // Gather every expression the optimizer may cost, then count them all in
  // one walk of the table. The full conjunction is always refreshed; the
  // others are skipped when already hinted, and each key is counted once.
  std::vector<std::string> keys;
  std::vector<Predicate> exprs;
  auto want = [&](const Predicate& expr, bool refresh) {
    std::string key = SelPredKey(*table, expr);
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) return;
    if (!refresh && hints_.Cardinality(key).has_value()) return;
    keys.push_back(std::move(key));
    exprs.push_back(expr);
  };
  // Full conjunction…
  want(pred, /*refresh=*/true);
  // …the sargable expression of every index the optimizer could seek…
  const std::vector<Index*> indexes = db_->catalog().IndexesForTable(table);
  for (Index* index : indexes) {
    if (auto range = BuildIndexRange(pred, index)) {
      want(range->sargable, /*refresh=*/false);
    }
  }
  // …and pairwise sargable combinations (index intersections).
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
      want(combined, /*refresh=*/false);
    }
  }
  const std::vector<int64_t> counts =
      ExactCardinalities(db_->disk(), *table, exprs);
  for (size_t k = 0; k < keys.size(); ++k) {
    hints_.SetCardinality(keys[k], static_cast<double>(counts[k]));
  }
  return Status::OK();
}

Status FeedbackDriver::InjectJoinCardinalities(const JoinQuery& query) {
  DPCF_RETURN_IF_ERROR(
      InjectSelectionCardinalities(query.outer_table, query.outer_pred));
  DPCF_RETURN_IF_ERROR(
      InjectSelectionCardinalities(query.inner_table, query.inner_pred));
  DPCF_ASSIGN_OR_RETURN(ExactJoinCardinalities exact,
                        ExactJoinCardinality(db_->disk(), query));
  hints_.SetCardinality(
      JoinPredKey(*query.outer_table, query.outer_col, *query.inner_table,
                  query.inner_col),
      static_cast<double>(exact.join_rows));
  return Status::OK();
}

namespace {
void ExtractCount(const RunResult& result, int64_t* count_result) {
  if (count_result == nullptr) return;
  *count_result = result.output.empty() || result.output[0].empty()
                      ? -1
                      : result.output[0][0].AsInt64();
}

// Process-wide query-id sequence for trace-span tagging: concurrent
// sessions (multiple drivers on one Database) must never share an id. Ids
// only label trace output — feedback never reads them — so a process-global
// counter does not compromise feedback determinism.
std::atomic<uint64_t> g_next_query_id{1};

void AttachObservability(ExecContext* ctx, Database* db,
                         const FeedbackRunOptions& options) {
  ctx->set_trace(db->trace());
  ctx->set_profiling(options.profile_operators);
  ctx->set_query_id(g_next_query_id.fetch_add(1, std::memory_order_relaxed));
  if (db->options().observability.metrics) ctx->set_metrics(db->metrics());
  ctx->set_journal(db->journal());
}
}  // namespace

Result<RunStatistics> FeedbackDriver::ExecuteSingle(
    const AccessPathPlan& path, const SingleTableQuery& query,
    bool monitored, std::vector<MonitoredExpr>* entries,
    int64_t* count_result) {
  DPCF_RETURN_IF_ERROR(db_->ColdCache());
  ExecContext ctx(db_->buffer_pool(), options_.exec_seed);
  AttachObservability(&ctx, db_, options_);
  PlanMonitorHooks hooks = BaseHooks(options_.monitor);
  if (monitored) {
    MonitorManager mm(db_, options_.monitor);
    DPCF_ASSIGN_OR_RETURN(InstrumentedHooks ih,
                          mm.ForSingleTable(path, query));
    hooks = std::move(ih.hooks);
    if (entries != nullptr) *entries = std::move(ih.entries);
  }
  DPCF_ASSIGN_OR_RETURN(OperatorPtr root,
                        BuildSingleTableExec(path, query, hooks));
  DPCF_ASSIGN_OR_RETURN(RunResult result,
                        ExecutePlan(root.get(), &ctx, options_.cost_params));
  ExtractCount(result, count_result);
  return result.stats;
}

Result<RunStatistics> FeedbackDriver::ExecuteJoin(
    const JoinPlan& plan, const JoinQuery& query, bool monitored,
    std::vector<MonitoredExpr>* entries, int64_t* count_result) {
  DPCF_RETURN_IF_ERROR(db_->ColdCache());
  ExecContext ctx(db_->buffer_pool(), options_.exec_seed);
  AttachObservability(&ctx, db_, options_);
  PlanMonitorHooks hooks = BaseHooks(options_.monitor);
  if (monitored) {
    MonitorManager mm(db_, options_.monitor);
    DPCF_ASSIGN_OR_RETURN(InstrumentedHooks ih,
                          mm.ForJoin(plan, query, &ctx));
    hooks = std::move(ih.hooks);
    if (entries != nullptr) *entries = std::move(ih.entries);
  }
  DPCF_ASSIGN_OR_RETURN(OperatorPtr root,
                        BuildJoinExec(plan, query, hooks));
  DPCF_ASSIGN_OR_RETURN(RunResult result,
                        ExecutePlan(root.get(), &ctx, options_.cost_params));
  ExtractCount(result, count_result);
  return result.stats;
}

void FeedbackDriver::AttachEstimates(
    const Optimizer& opt, const std::vector<MonitoredExpr>& entries,
    const JoinQuery* join_query, RunStatistics* stats) {
  for (MonitorRecord& rec : stats->monitors) {
    auto it = std::find_if(entries.begin(), entries.end(),
                           [&rec](const MonitoredExpr& e) {
                             return e.label == rec.label;
                           });
    if (it == entries.end()) continue;
    if (it->is_join && join_query != nullptr) {
      double outer_rows = opt.cardinality().EstimateRows(
          *join_query->outer_table, join_query->outer_pred);
      // Join predicate only — the inner selection is not part of the
      // monitored expression (paper Section IV).
      double semi_est = opt.cardinality().EstimateJoinRows(
          *join_query->outer_table, outer_rows, join_query->outer_col,
          *join_query->inner_table,
          static_cast<double>(join_query->inner_table->row_count()),
          join_query->inner_col);
      semi_est = std::min(
          semi_est,
          static_cast<double>(join_query->inner_table->row_count()));
      rec.estimated_cardinality = semi_est;
      rec.estimated_dpc =
          opt.EstimateJoinDpc(*join_query, semi_est, nullptr);
    } else {
      double est_rows = opt.cardinality().EstimateRows(*it->table, it->expr);
      rec.estimated_cardinality = est_rows;
      rec.estimated_dpc =
          opt.EstimateDpc(*it->table, it->expr, est_rows, nullptr);
    }
  }
}

void FeedbackDriver::LearnDpcHistograms(
    const std::vector<MonitoredExpr>& entries, const RunStatistics& stats) {
  for (const MonitorRecord& rec : stats.monitors) {
    for (const MonitoredExpr& e : entries) {
      if (e.label != rec.label || e.is_join || e.expr.empty()) continue;
      const int col = e.expr.atoms()[0].col();
      auto range = ExtractColumnRange(e.expr, col);
      if (!range.has_value() || range->atoms.size() != e.expr.size()) {
        continue;  // not a pure single-column range
      }
      if (rec.actual_cardinality <= 0) continue;
      dpc_histograms_.Observe(*e.table, col, range->lo, range->hi,
                              rec.actual_dpc, rec.actual_cardinality);
    }
  }
}

Result<FeedbackOutcome> FeedbackDriver::RunSingleTable(
    const SingleTableQuery& query) {
  FeedbackOutcome out;
  if (options_.inject_accurate_cardinalities) {
    DPCF_RETURN_IF_ERROR(
        InjectSelectionCardinalities(query.table, query.pred));
  }
  Optimizer opt(db_, stats_, &hints_, options_.cost_params,
                options_.learn_dpc_histograms ? &dpc_histograms_ : nullptr);

  DPCF_ASSIGN_OR_RETURN(AccessPathPlan before,
                        opt.OptimizeSingleTable(query));
  out.plan_before = before.Describe();

  DPCF_ASSIGN_OR_RETURN(out.baseline_run,
                        ExecuteSingle(before, query, false, nullptr,
                                      &out.count_result));
  std::vector<MonitoredExpr> entries;
  DPCF_ASSIGN_OR_RETURN(out.monitored_run,
                        ExecuteSingle(before, query, true, &entries));
  AttachEstimates(opt, entries, nullptr, &out.monitored_run);
  out.feedback = out.monitored_run.monitors;
  error_tracker_.RecordAll(out.feedback);
  out.reoptimization_advised = drift_monitor_.ObserveAll(out.feedback);
  if (out.monitored_run.profile != nullptr) {
    out.annotated_plan = RenderAnnotatedPlan(
        *out.monitored_run.profile, out.feedback, options_.cost_params);
  }

  store_.RecordRun(out.monitored_run);
  store_.ApplyToHints(&hints_);
  if (options_.learn_dpc_histograms) {
    LearnDpcHistograms(entries, out.monitored_run);
  }

  DPCF_ASSIGN_OR_RETURN(AccessPathPlan after,
                        opt.OptimizeSingleTable(query));
  out.plan_after = after.Describe();
  out.plan_changed = after.Signature() != before.Signature();

  DPCF_ASSIGN_OR_RETURN(out.improved_run,
                        ExecuteSingle(after, query, false, nullptr));

  out.time_before_ms = out.baseline_run.simulated_ms;
  out.time_after_ms = out.improved_run.simulated_ms;
  if (out.time_before_ms > 0) {
    out.speedup =
        (out.time_before_ms - out.time_after_ms) / out.time_before_ms;
    out.monitor_overhead =
        (out.monitored_run.simulated_ms - out.time_before_ms) /
        out.time_before_ms;
  }
  return out;
}

Result<FeedbackOutcome> FeedbackDriver::RunJoin(const JoinQuery& query) {
  FeedbackOutcome out;
  if (options_.inject_accurate_cardinalities) {
    DPCF_RETURN_IF_ERROR(InjectJoinCardinalities(query));
  }
  Optimizer opt(db_, stats_, &hints_, options_.cost_params,
                options_.learn_dpc_histograms ? &dpc_histograms_ : nullptr);

  DPCF_ASSIGN_OR_RETURN(JoinPlan before, opt.OptimizeJoin(query));
  out.plan_before = before.Describe();

  DPCF_ASSIGN_OR_RETURN(out.baseline_run,
                        ExecuteJoin(before, query, false, nullptr,
                                    &out.count_result));
  std::vector<MonitoredExpr> entries;
  DPCF_ASSIGN_OR_RETURN(out.monitored_run,
                        ExecuteJoin(before, query, true, &entries));
  AttachEstimates(opt, entries, &query, &out.monitored_run);
  out.feedback = out.monitored_run.monitors;
  error_tracker_.RecordAll(out.feedback);
  out.reoptimization_advised = drift_monitor_.ObserveAll(out.feedback);
  if (out.monitored_run.profile != nullptr) {
    out.annotated_plan = RenderAnnotatedPlan(
        *out.monitored_run.profile, out.feedback, options_.cost_params);
  }

  store_.RecordRun(out.monitored_run);
  store_.ApplyToHints(&hints_);
  if (options_.learn_dpc_histograms) {
    LearnDpcHistograms(entries, out.monitored_run);
  }

  DPCF_ASSIGN_OR_RETURN(JoinPlan after, opt.OptimizeJoin(query));
  out.plan_after = after.Describe();
  out.plan_changed = after.Signature() != before.Signature();

  DPCF_ASSIGN_OR_RETURN(out.improved_run,
                        ExecuteJoin(after, query, false, nullptr));

  out.time_before_ms = out.baseline_run.simulated_ms;
  out.time_after_ms = out.improved_run.simulated_ms;
  if (out.time_before_ms > 0) {
    out.speedup =
        (out.time_before_ms - out.time_after_ms) / out.time_before_ms;
    out.monitor_overhead =
        (out.monitored_run.simulated_ms - out.time_before_ms) /
        out.time_before_ms;
  }
  return out;
}

}  // namespace dpcf
