// Row-at-a-time reference evaluators for the exact-cardinality walks
// (DESIGN.md section 17). The library counts with the batch predicate
// kernel over whole pages; these walk the same page images one row and
// one atom at a time, the way the counts were first defined, so tests can
// check the kernel path against them.

#pragma once

#include <cstdint>
#include <map>

#include "core/feedback_driver.h"
#include "table/heap_file.h"
#include "table/row_codec.h"

namespace dpcf::testing {

/// Calls visit(row) for every row of `table`, in page and slot order.
template <typename Visit>
void ForEachRowReference(DiskManager* disk, const Table& table,
                         Visit&& visit) {
  const HeapFile* file = table.file();
  for (PageNo p = 0; p < file->page_count(); ++p) {
    const char* page = disk->RawPage(PageId{file->segment(), p});
    const uint32_t n = HeapFile::PageRowCount(page);
    for (uint32_t s = 0; s < n; ++s) {
      visit(RowView(file->RowInPage(page, static_cast<uint16_t>(s)),
                    &table.schema()));
    }
  }
}

inline bool PassesReference(const Predicate& pred, const RowView& row) {
  for (const PredicateAtom& a : pred.atoms()) {
    if (!a.Eval(row)) return false;
  }
  return true;
}

inline int64_t ReferenceCardinality(DiskManager* disk, const Table& table,
                                    const Predicate& pred) {
  int64_t count = 0;
  ForEachRowReference(disk, table, [&](const RowView& row) {
    count += PassesReference(pred, row) ? 1 : 0;
  });
  return count;
}

inline ExactJoinCardinalities ReferenceJoinCardinality(
    DiskManager* disk, const JoinQuery& query) {
  std::map<int64_t, int64_t> outer_keys;  // filtered outer key multiset
  ForEachRowReference(disk, *query.outer_table, [&](const RowView& row) {
    if (PassesReference(query.outer_pred, row)) {
      ++outer_keys[row.GetInt64(static_cast<size_t>(query.outer_col))];
    }
  });
  ExactJoinCardinalities out;
  ForEachRowReference(disk, *query.inner_table, [&](const RowView& row) {
    auto it =
        outer_keys.find(row.GetInt64(static_cast<size_t>(query.inner_col)));
    if (it == outer_keys.end()) return;
    ++out.semi_join_rows;
    if (PassesReference(query.inner_pred, row)) out.join_rows += it->second;
  });
  return out;
}

}  // namespace dpcf::testing
