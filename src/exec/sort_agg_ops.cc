#include "exec/sort_agg_ops.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "storage/serde.h"

namespace wsq {

namespace {

/// Approximate footprint of one buffered (keys, row) pair / group
/// entry. The container-node constant keeps the ledger honest about
/// bookkeeping overhead without per-allocator precision.
constexpr size_t kEntryOverhead = 64;

size_t KeysApproxBytes(const std::vector<Value>& keys) {
  size_t bytes = sizeof(std::vector<Value>);
  for (const Value& k : keys) bytes += k.ApproxBytes();
  return bytes;
}

/// One spill record: [u32 key_len][key blob][payload blob]. The key
/// blob is decoded for merge ordering without re-evaluating any
/// expression; the payload is the data row (Sort) or the flattened
/// accumulators (Aggregate).
std::string EncodeSpillRecord(const Row& key_row, const Row& payload) {
  std::string key_blob = SerializeSpillRow(key_row);
  std::string record;
  uint32_t klen = static_cast<uint32_t>(key_blob.size());
  char len[4];
  std::memcpy(len, &klen, 4);
  record.append(len, 4);
  record += key_blob;
  record += SerializeSpillRow(payload);
  return record;
}

Status DecodeSpillRecord(const std::string& record, Row* key_row,
                         Row* payload) {
  if (record.size() < 4) {
    return Status::DataLoss("spill record truncated: missing key length");
  }
  uint32_t klen;
  std::memcpy(&klen, record.data(), 4);
  if (record.size() - 4 < klen) {
    return Status::DataLoss("spill record truncated: key past end");
  }
  std::string_view rest(record);
  rest.remove_prefix(4);
  WSQ_ASSIGN_OR_RETURN(*key_row, DeserializeSpillRow(rest.substr(0, klen)));
  WSQ_ASSIGN_OR_RETURN(*payload, DeserializeSpillRow(rest.substr(klen)));
  return Status::OK();
}

}  // namespace

// --- SortOperator ---

bool SortOperator::KeyLess(const std::vector<Value>& a,
                           const std::vector<Value>& b) const {
  const auto& key_specs = node_->keys();
  for (size_t i = 0; i < key_specs.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c == 0) continue;
    return key_specs[i].descending ? c > 0 : c < 0;
  }
  return false;
}

void SortOperator::SortBatch(std::vector<Keyed>* batch) const {
  std::stable_sort(batch->begin(), batch->end(),
                   [this](const Keyed& a, const Keyed& b) {
                     return KeyLess(a.first, b.first);
                   });
}

Status SortOperator::SpillBatch(std::vector<Keyed>* batch) {
  if (batch->empty()) return Status::OK();
  if (ctx_->spill == nullptr) {
    return Status::ResourceExhausted(
        "sort: memory budget exhausted and spilling is unavailable");
  }
  SortBatch(batch);
  if (spill_file_ == nullptr) {
    WSQ_ASSIGN_OR_RETURN(spill_file_, ctx_->spill->Create());
  }
  SpillWriter writer(spill_file_.get());
  for (const Keyed& entry : *batch) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    WSQ_RETURN_IF_ERROR(
        writer.Append(EncodeSpillRecord(Row(entry.first), entry.second)));
  }
  WSQ_ASSIGN_OR_RETURN(SpillRun run, writer.Finish());
  runs_.push_back(run);
  // Free the batch's capacity, not just its size: the point of the
  // spill is to give the bytes back.
  std::vector<Keyed>().swap(*batch);
  mem_.ReleaseAll();
  CountSpill(run.bytes, 1);
  ctx_->stats.spilled_bytes += run.bytes;
  ++ctx_->stats.spill_runs;
  if (tracer() != nullptr) {
    tracer()->Event("op", "spill",
                    StrFormat("%s run=%zu records=%llu bytes=%llu",
                              label().c_str(), runs_.size() - 1,
                              (unsigned long long)run.records,
                              (unsigned long long)run.bytes));
  }
  return Status::OK();
}

Status SortOperator::AdvanceSource(size_t i) {
  MergeSource& src = merge_[i];
  std::string record;
  WSQ_ASSIGN_OR_RETURN(bool more, src.reader->Next(&record));
  if (!more) {
    src.done = true;
    src.keys.clear();
    src.row = Row();
    return Status::OK();
  }
  Row key_row;
  WSQ_RETURN_IF_ERROR(DecodeSpillRecord(record, &key_row, &src.row));
  src.keys = key_row.values();
  return Status::OK();
}

Status SortOperator::OpenImpl() {
  rows_.clear();
  runs_.clear();
  merge_.clear();
  spill_file_.reset();
  next_ = 0;
  mem_.ReleaseAll();
  mem_.Bind(ctx_->memory);
  WSQ_RETURN_IF_ERROR(child_->Open());
  child_open_ = true;

  // Materialize rows with their precomputed sort keys, charging every
  // buffered pair to the query's memory budget.
  std::vector<Keyed> keyed;
  Row row;
  while (true) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    WSQ_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
    if (!more) break;
    std::vector<Value> keys;
    keys.reserve(node_->keys().size());
    for (const SortNode::SortKey& k : node_->keys()) {
      WSQ_ASSIGN_OR_RETURN(Value v, k.expr->Eval(row));
      if (v.is_placeholder()) {
        return Status::ExecutionError(
            "sort key is an incomplete (placeholder) value");
      }
      keys.push_back(std::move(v));
    }
    size_t delta =
        KeysApproxBytes(keys) + row.ApproxBytes() + kEntryOverhead;
    if (!mem_.TryAdd(delta)) {
      // Tier 1: degrade to external sort instead of dying.
      WSQ_RETURN_IF_ERROR(SpillBatch(&keyed));
      if (!mem_.TryAdd(delta)) {
        // A single row larger than the whole budget: admit it as a
        // tracked overage rather than deadlocking on an empty batch.
        mem_.ForceAdd(delta);
      }
    }
    keyed.emplace_back(std::move(keys), std::move(row));
  }
  child_open_ = false;
  WSQ_RETURN_IF_ERROR(child_->Close());

  if (runs_.empty()) {
    // Everything fit: the classic in-memory stable sort.
    SortBatch(&keyed);
    rows_.reserve(keyed.size());
    for (auto& [keys, r] : keyed) rows_.push_back(std::move(r));
    RecordPeakBytes(mem_.peak_bytes());
    return Status::OK();
  }

  // Spilled: flush the tail batch and open one merge source per run.
  WSQ_RETURN_IF_ERROR(SpillBatch(&keyed));
  merge_.resize(runs_.size());
  for (size_t i = 0; i < runs_.size(); ++i) {
    merge_[i].reader =
        std::make_unique<SpillReader>(spill_file_.get(), runs_[i]);
    WSQ_RETURN_IF_ERROR(AdvanceSource(i));
  }
  if (tracer() != nullptr) {
    tracer()->Event("op", "merge",
                    StrFormat("%s runs=%zu", label().c_str(),
                              runs_.size()));
  }
  RecordPeakBytes(mem_.peak_bytes());
  return Status::OK();
}

Result<bool> SortOperator::NextImpl(Row* row) {
  if (merge_.empty()) {
    if (next_ >= rows_.size()) return false;
    *row = rows_[next_++];
    return true;
  }
  WSQ_RETURN_IF_ERROR(CheckAlive());
  // K-way merge, smallest key first; ties go to the lowest run index
  // (runs partition the input in order, so this preserves the stable
  // sort's tie order exactly).
  size_t best = merge_.size();
  for (size_t i = 0; i < merge_.size(); ++i) {
    if (merge_[i].done) continue;
    if (best == merge_.size() || KeyLess(merge_[i].keys, merge_[best].keys)) {
      best = i;
    }
  }
  if (best == merge_.size()) return false;
  *row = std::move(merge_[best].row);
  WSQ_RETURN_IF_ERROR(AdvanceSource(best));
  return true;
}

Status SortOperator::CloseImpl() {
  rows_.clear();
  merge_.clear();
  runs_.clear();
  spill_file_.reset();
  mem_.ReleaseAll();
  if (child_open_) {
    child_open_ = false;
    return child_->Close();
  }
  return Status::OK();
}

// --- AggregateOperator ---

Status AggregateOperator::Accumulate(const Row& input,
                                     std::vector<Accumulator>* accs) {
  const auto& specs = node_->aggs();
  for (size_t i = 0; i < specs.size(); ++i) {
    Accumulator& acc = (*accs)[i];
    if (specs[i].func == AggFunc::kCountStar) {
      ++acc.count;
      continue;
    }
    WSQ_ASSIGN_OR_RETURN(Value v, specs[i].arg->Eval(input));
    if (v.is_null()) continue;  // aggregates skip NULLs
    if (v.is_placeholder()) {
      return Status::ExecutionError(
          "aggregate over an incomplete (placeholder) value");
    }
    ++acc.count;
    switch (specs[i].func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (!v.is_numeric()) {
          return Status::TypeError("SUM/AVG require numeric input");
        }
        if (v.is_double() || acc.sum_is_double) {
          if (!acc.sum_is_double) {
            acc.sum_double = static_cast<double>(acc.sum_int);
            acc.sum_is_double = true;
          }
          acc.sum_double += v.NumericAsDouble();
        } else {
          acc.sum_int += v.AsInt();
        }
        break;
      case AggFunc::kMin:
        if (!acc.has_value || v.Compare(acc.min) < 0) acc.min = v;
        break;
      case AggFunc::kMax:
        if (!acc.has_value || v.Compare(acc.max) > 0) acc.max = v;
        break;
      case AggFunc::kCountStar:
        break;
    }
    acc.has_value = true;
  }
  return Status::OK();
}

Result<Value> AggregateOperator::Finalize(
    const AggregateNode::AggSpec& spec, const Accumulator& acc) const {
  switch (spec.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int(acc.count);
    case AggFunc::kSum:
      if (acc.count == 0) return Value::Null();
      return acc.sum_is_double ? Value::Real(acc.sum_double)
                               : Value::Int(acc.sum_int);
    case AggFunc::kAvg: {
      if (acc.count == 0) return Value::Null();
      double total = acc.sum_is_double
                         ? acc.sum_double
                         : static_cast<double>(acc.sum_int);
      return Value::Real(total / static_cast<double>(acc.count));
    }
    case AggFunc::kMin:
      return acc.has_value ? acc.min : Value::Null();
    case AggFunc::kMax:
      return acc.has_value ? acc.max : Value::Null();
  }
  return Status::Internal("unknown aggregate function");
}

// Spill payload layout: 7 values per aggregate — count, sum_int,
// sum_double, sum_is_double, has_value, min, max. min/max ride as
// plain Values (Null when the accumulator never saw one).
Status AggregateOperator::SpillGroups(GroupMap* groups) {
  if (groups->empty()) return Status::OK();
  if (ctx_->spill == nullptr) {
    return Status::ResourceExhausted(
        "aggregate: memory budget exhausted and spilling is unavailable");
  }
  if (spill_file_ == nullptr) {
    WSQ_ASSIGN_OR_RETURN(spill_file_, ctx_->spill->Create());
  }
  SpillWriter writer(spill_file_.get());
  for (const auto& [key, accs] : *groups) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    Row payload;
    for (const Accumulator& acc : accs) {
      payload.Append(Value::Int(acc.count));
      payload.Append(Value::Int(acc.sum_int));
      payload.Append(Value::Real(acc.sum_double));
      payload.Append(Value::Int(acc.sum_is_double ? 1 : 0));
      payload.Append(Value::Int(acc.has_value ? 1 : 0));
      payload.Append(acc.min);
      payload.Append(acc.max);
    }
    WSQ_RETURN_IF_ERROR(writer.Append(EncodeSpillRecord(key, payload)));
  }
  WSQ_ASSIGN_OR_RETURN(SpillRun run, writer.Finish());
  runs_.push_back(run);
  groups->clear();
  mem_.ReleaseAll();
  CountSpill(run.bytes, 1);
  ctx_->stats.spilled_bytes += run.bytes;
  ++ctx_->stats.spill_runs;
  if (tracer() != nullptr) {
    tracer()->Event("op", "spill",
                    StrFormat("%s run=%zu records=%llu bytes=%llu",
                              label().c_str(), runs_.size() - 1,
                              (unsigned long long)run.records,
                              (unsigned long long)run.bytes));
  }
  return Status::OK();
}

void AggregateOperator::MergeAccumulator(const Accumulator& from,
                                         Accumulator* into) {
  into->count += from.count;
  if (into->sum_is_double || from.sum_is_double) {
    double total =
        (into->sum_is_double ? into->sum_double
                             : static_cast<double>(into->sum_int)) +
        (from.sum_is_double ? from.sum_double
                            : static_cast<double>(from.sum_int));
    into->sum_double = total;
    into->sum_is_double = true;
  } else {
    into->sum_int += from.sum_int;
  }
  if (from.has_value) {
    if (!into->has_value) {
      into->min = from.min;
      into->max = from.max;
    } else {
      if (from.min.Compare(into->min) < 0) into->min = from.min;
      if (from.max.Compare(into->max) > 0) into->max = from.max;
    }
    into->has_value = true;
  }
}

Status AggregateOperator::AdvanceSource(size_t i) {
  MergeSource& src = merge_[i];
  std::string record;
  WSQ_ASSIGN_OR_RETURN(bool more, src.reader->Next(&record));
  if (!more) {
    src.done = true;
    src.key = Row();
    src.accs.clear();
    return Status::OK();
  }
  Row payload;
  WSQ_RETURN_IF_ERROR(DecodeSpillRecord(record, &src.key, &payload));
  size_t naggs = node_->aggs().size();
  if (payload.size() != naggs * 7) {
    return Status::DataLoss("spill record has wrong accumulator arity");
  }
  src.accs.assign(naggs, Accumulator{});
  for (size_t a = 0; a < naggs; ++a) {
    size_t base = a * 7;
    Accumulator& acc = src.accs[a];
    acc.count = payload.value(base + 0).AsInt();
    acc.sum_int = payload.value(base + 1).AsInt();
    acc.sum_double = payload.value(base + 2).AsDouble();
    acc.sum_is_double = payload.value(base + 3).AsInt() != 0;
    acc.has_value = payload.value(base + 4).AsInt() != 0;
    acc.min = payload.value(base + 5);
    acc.max = payload.value(base + 6);
  }
  return Status::OK();
}

Result<Row> AggregateOperator::FinalizeGroup(
    const Row& key, const std::vector<Accumulator>& accs) const {
  Row out = key;
  for (size_t i = 0; i < node_->aggs().size(); ++i) {
    WSQ_ASSIGN_OR_RETURN(Value v, Finalize(node_->aggs()[i], accs[i]));
    out.Append(std::move(v));
  }
  return out;
}

Status AggregateOperator::OpenImpl() {
  results_.clear();
  runs_.clear();
  merge_.clear();
  spill_file_.reset();
  merging_ = false;
  next_ = 0;
  mem_.ReleaseAll();
  mem_.Bind(ctx_->memory);
  WSQ_RETURN_IF_ERROR(child_->Open());
  child_open_ = true;

  // Group rows by key; std::map keeps deterministic group order.
  GroupMap groups(
      +[](const Row& a, const Row& b) { return a.Compare(b) < 0; });

  Row input;
  bool any_input = false;
  while (true) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    WSQ_ASSIGN_OR_RETURN(bool more, child_->Next(&input));
    if (!more) break;
    any_input = true;
    Row key;
    for (const BoundExprPtr& g : node_->group_by()) {
      WSQ_ASSIGN_OR_RETURN(Value v, g->Eval(input));
      key.Append(std::move(v));
    }
    size_t delta = key.ApproxBytes() +
                   node_->aggs().size() * sizeof(Accumulator) +
                   kEntryOverhead;
    auto it = groups.find(key);
    if (it == groups.end()) {
      if (!mem_.TryAdd(delta)) {
        // Tier 1: flush the sorted group map as a run and start fresh.
        WSQ_RETURN_IF_ERROR(SpillGroups(&groups));
        if (!mem_.TryAdd(delta)) mem_.ForceAdd(delta);
      }
      it = groups
               .try_emplace(std::move(key), node_->aggs().size(),
                            Accumulator{})
               .first;
    }
    WSQ_RETURN_IF_ERROR(Accumulate(input, &it->second));
  }
  child_open_ = false;
  WSQ_RETURN_IF_ERROR(child_->Close());

  // Global aggregate over empty input still yields one row.
  if (!any_input && node_->group_by().empty()) {
    groups.try_emplace(Row(), node_->aggs().size(), Accumulator{});
  }

  if (runs_.empty()) {
    for (const auto& [key, accs] : groups) {
      WSQ_ASSIGN_OR_RETURN(Row out, FinalizeGroup(key, accs));
      results_.push_back(std::move(out));
    }
    RecordPeakBytes(mem_.peak_bytes());
    return Status::OK();
  }

  // Spilled: flush the remaining groups and stream-merge the runs from
  // Next(). Runs are key-sorted (std::map order), so the merged group
  // order is identical to the in-memory path.
  WSQ_RETURN_IF_ERROR(SpillGroups(&groups));
  merging_ = true;
  merge_.resize(runs_.size());
  for (size_t i = 0; i < runs_.size(); ++i) {
    merge_[i].reader =
        std::make_unique<SpillReader>(spill_file_.get(), runs_[i]);
    WSQ_RETURN_IF_ERROR(AdvanceSource(i));
  }
  if (tracer() != nullptr) {
    tracer()->Event("op", "merge",
                    StrFormat("%s runs=%zu", label().c_str(),
                              runs_.size()));
  }
  RecordPeakBytes(mem_.peak_bytes());
  return Status::OK();
}

Result<bool> AggregateOperator::NextImpl(Row* row) {
  if (!merging_) {
    if (next_ >= results_.size()) return false;
    *row = results_[next_++];
    return true;
  }
  WSQ_RETURN_IF_ERROR(CheckAlive());
  // Smallest key across the sources; every source holding an equal key
  // folds its accumulators in and advances (a group may span runs).
  size_t best = merge_.size();
  for (size_t i = 0; i < merge_.size(); ++i) {
    if (merge_[i].done) continue;
    if (best == merge_.size() ||
        merge_[i].key.Compare(merge_[best].key) < 0) {
      best = i;
    }
  }
  if (best == merge_.size()) return false;
  Row key = std::move(merge_[best].key);
  std::vector<Accumulator> accs = std::move(merge_[best].accs);
  WSQ_RETURN_IF_ERROR(AdvanceSource(best));
  for (size_t i = 0; i < merge_.size(); ++i) {
    while (!merge_[i].done && merge_[i].key.Compare(key) == 0) {
      for (size_t a = 0; a < accs.size(); ++a) {
        MergeAccumulator(merge_[i].accs[a], &accs[a]);
      }
      WSQ_RETURN_IF_ERROR(AdvanceSource(i));
    }
  }
  WSQ_ASSIGN_OR_RETURN(*row, FinalizeGroup(key, accs));
  return true;
}

Status AggregateOperator::CloseImpl() {
  results_.clear();
  merge_.clear();
  runs_.clear();
  spill_file_.reset();
  merging_ = false;
  mem_.ReleaseAll();
  if (child_open_) {
    child_open_ = false;
    return child_->Close();
  }
  return Status::OK();
}

}  // namespace wsq
