#include "storage/column_batch.h"

#include <mutex>

#include "common/exec_context.h"
#include "common/failpoint.h"

namespace hql {

namespace {

// Guards lazy allocation of a Relation's batch_cache_ pointer; same
// rationale as the index cache's global allocation mutex (index.cc).
std::mutex& BatchCacheAllocMutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

const char* ColumnarModeName(ColumnarMode mode) {
  switch (mode) {
    case ColumnarMode::kOff:
      return "off";
    case ColumnarMode::kAuto:
      return "auto";
  }
  return "?";
}

ColumnBatch::ColumnBatch(const Relation& base) {
  HQL_FAIL_POINT(kFailPointColumnBatchBuild);
  rows_ = base.size();
  columns_.resize(base.arity());
  const std::vector<Tuple>& tuples = base.tuples();
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& col = columns_[c];
    // One type-discovery pass: a column is typed iff every value shares
    // one numeric type. The common case (machine-generated int keys) hits
    // the first branch for the whole column.
    bool all_int = true;
    bool all_double = true;
    for (const Tuple& t : tuples) {
      const ValueType vt = t[c].type();
      all_int = all_int && vt == ValueType::kInt;
      all_double = all_double && vt == ValueType::kDouble;
      if (!all_int && !all_double) break;
    }
    if (rows_ > 0 && all_int) {
      col.encoding = ColumnEncoding::kInt64;
      col.i64.reserve(rows_);
      for (const Tuple& t : tuples) col.i64.push_back(t[c].AsInt());
    } else if (rows_ > 0 && all_double) {
      col.encoding = ColumnEncoding::kFloat64;
      col.f64.reserve(rows_);
      for (const Tuple& t : tuples) col.f64.push_back(t[c].AsDouble());
    } else {
      col.encoding = ColumnEncoding::kGeneric;
      col.vals.reserve(rows_);
      for (const Tuple& t : tuples) col.vals.push_back(t[c]);
    }
  }
}

Value ColumnBatch::ValueAt(size_t row, size_t c) const {
  const Column& col = columns_[c];
  switch (col.encoding) {
    case ColumnEncoding::kInt64:
      return Value::Int(col.i64[row]);
    case ColumnEncoding::kFloat64:
      return Value::Double(col.f64[row]);
    case ColumnEncoding::kGeneric:
      return col.vals[row];
  }
  return Value::Nul();
}

struct Relation::BatchCache {
  std::mutex mu;
  ColumnBatchPtr batch;
};

std::shared_ptr<const ColumnBatch> Relation::ColumnarBatch() const {
  std::shared_ptr<BatchCache> cache;
  {
    std::lock_guard<std::mutex> lock(BatchCacheAllocMutex());
    if (batch_cache_ == nullptr) batch_cache_ = std::make_shared<BatchCache>();
    cache = batch_cache_;
  }
  // Build under the per-relation lock: concurrent first requests wait on
  // one transposition and then share it.
  std::lock_guard<std::mutex> lock(cache->mu);
  if (cache->batch != nullptr) {
    AmbientExecContext().Add(ExecCounter::kColumnarBatchesReused);
    return cache->batch;
  }
  cache->batch = std::make_shared<const ColumnBatch>(*this);
  AmbientExecContext().Add(ExecCounter::kColumnarBatchesBuilt);
  return cache->batch;
}

std::shared_ptr<const ColumnBatch> Relation::ExistingColumnarBatch() const {
  std::shared_ptr<BatchCache> cache;
  {
    std::lock_guard<std::mutex> lock(BatchCacheAllocMutex());
    cache = batch_cache_;
  }
  if (cache == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(cache->mu);
  if (cache->batch != nullptr) {
    AmbientExecContext().Add(ExecCounter::kColumnarBatchesReused);
  }
  return cache->batch;
}

}  // namespace hql
