#include "exec/join.h"

#include <algorithm>
#include <bit>

#include "common/status.h"

namespace popdb {

// ---------------------------------------------------------------- NljnOp

NljnOp::NljnOp(std::unique_ptr<Operator> outer, InnerAccess inner,
               MergeSpec merge, TableSet table_set)
    : Operator(table_set),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      merge_(std::move(merge)) {}

int64_t NljnOp::NumInnerRows() const {
  if (inner_.mv_rows != nullptr) {
    return static_cast<int64_t>(inner_.mv_rows->size());
  }
  return inner_.snapshot.num_rows();
}

bool NljnOp::InnerRowVisible(int64_t rid) const {
  if (inner_.mv_rows != nullptr) return true;
  return rid < inner_.snapshot.num_rows() && inner_.snapshot.alive(rid);
}

ExecStatus NljnOp::OpenImpl(ExecContext* ctx) {
  if (inner_.mv_rows == nullptr) {
    if (!inner_.snapshot.valid()) inner_.snapshot = inner_.table->Snapshot();
    inner_filter_ = ChunkFilter(inner_.local_preds,
                                inner_.snapshot.table()->schema());
    pending_.table = &inner_.snapshot;
  }
  outer_batch_valid_ = false;
  outer_idx_ = 0;
  probing_ = false;
  return outer_->Open(ctx);
}

void NljnOp::StartProbe(ExecContext* ctx, const Value* index_key) {
  ++ctx->work;
  ++mutable_stats().loops;
  if (inner_.index != nullptr) {
    POPDB_DCHECK(index_key != nullptr);
    index_candidates_ = inner_.index->Probe(*index_key, &index_scratch_);
    candidate_pos_ = 0;
  } else {
    scan_rid_ = 0;
  }
}

template <typename OuterAt>
bool NljnOp::InnerMatches(int64_t rid, OuterAt outer_at) const {
  // All conditions are evaluated even on the index path: superset
  // postings mean a candidate may no longer hold the probed value in the
  // pinned snapshot.
  if (inner_.mv_rows != nullptr) {
    const Row& row = (*inner_.mv_rows)[static_cast<size_t>(rid)];
    for (const InnerAccess::JoinCond& jc : inner_.join_conds) {
      if (outer_at(jc.outer_pos) != row[static_cast<size_t>(jc.inner_pos)]) {
        return false;
      }
    }
    for (const ResolvedPredicate& p : inner_.local_preds) {
      if (!EvalPredicate(p, row)) return false;
    }
    return true;
  }
  const TableChunk& chunk = inner_.snapshot.chunk_of(rid);
  const size_t off = ChunkOffset(rid);
  for (const InnerAccess::JoinCond& jc : inner_.join_conds) {
    if (!chunk.columns[static_cast<size_t>(jc.inner_pos)].Equals(
            off, outer_at(jc.outer_pos))) {
      return false;
    }
  }
  return inner_filter_.Test(chunk, off);
}

template <typename OuterAt>
ExecStatus NljnOp::NextMatch(ExecContext* ctx, OuterAt outer_at,
                             int64_t* match) {
  while (true) {
    if (ctx->CancelPending()) return ExecStatus::kCancelled;
    int64_t rid;
    if (inner_.index != nullptr) {
      if (candidate_pos_ >= index_candidates_.size()) return ExecStatus::kEof;
      rid = index_candidates_[candidate_pos_++];
    } else {
      if (scan_rid_ >= NumInnerRows()) return ExecStatus::kEof;
      rid = scan_rid_++;
    }
    if (!InnerRowVisible(rid)) continue;
    ++ctx->work;
    if (InnerMatches(rid, outer_at)) {
      *match = rid;
      return ExecStatus::kRow;
    }
  }
}

ExecStatus NljnOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  // Pull outer batches, probe each active row (one work unit and one loop
  // per outer row, one unit per visible candidate), and collect matches
  // until the output batch fills. The current outer row is read in place
  // from the held batch (`outer_idx_`) — never materialized row-major —
  // and matches are gathered column-wise before the held batch is replaced
  // and before every return. An outer row's candidate cursor survives
  // across output batches; an abort from the outer subtree can only arrive
  // once the held batch is fully probed, so every match found before it is
  // flushed ahead of the abort status.
  const int64_t target =
      BatchTarget(ctx, static_cast<int>(merge_.sources.size()));
  out->Reset(static_cast<int>(merge_.sources.size()));
  while (true) {
    if (!probing_) {
      if (!outer_batch_valid_ || outer_idx_ >= outer_batch_.ActiveRows()) {
        merge_.Gather(&outer_batch_, &pending_, out);
        const ExecStatus s = outer_->NextBatch(ctx, &outer_batch_);
        if (s != ExecStatus::kRow) {
          outer_batch_valid_ = false;
          return FlushOrStatus(out, s);
        }
        outer_batch_valid_ = true;
        outer_idx_ = 0;
      }
      probing_ = true;
      StartProbe(ctx,
                 inner_.index != nullptr
                     ? &outer_batch_.At(inner_.join_conds[0].outer_pos,
                                        outer_idx_)
                     : nullptr);
    }
    const int32_t raw = outer_batch_.RawIndex(outer_idx_);
    const auto outer_at = [this, raw](int pos) -> const Value& {
      return outer_batch_.cols[static_cast<size_t>(pos)]
                              [static_cast<size_t>(raw)];
    };
    while (true) {
      if (out->num_rows + static_cast<int64_t>(pending_.size()) >= target) {
        merge_.Gather(&outer_batch_, &pending_, out);
        return ExecStatus::kRow;
      }
      int64_t rid = -1;
      const ExecStatus s = NextMatch(ctx, outer_at, &rid);
      if (s == ExecStatus::kCancelled) {
        merge_.Gather(&outer_batch_, &pending_, out);
        return FlushOrStatus(out, ExecStatus::kCancelled);
      }
      if (s != ExecStatus::kRow) break;
      if (inner_.mv_rows != nullptr) {
        pending_.Add(raw, &(*inner_.mv_rows)[static_cast<size_t>(rid)]);
      } else {
        pending_.Add(raw, rid);
      }
    }
    probing_ = false;  // Candidates exhausted; next outer row.
    ++outer_idx_;
  }
}

void NljnOp::CloseImpl(ExecContext* ctx) {
  // Outer rows past the one being probed were never reached.
  if (outer_batch_valid_) {
    const int64_t rest =
        outer_batch_.ActiveRows() - outer_idx_ - (probing_ ? 1 : 0);
    outer_->ReturnUnconsumed(ctx, rest);
    outer_batch_valid_ = false;
  }
  outer_->Close(ctx);
}

// ---------------------------------------------------------------- HsjnOp

HsjnOp::HsjnOp(std::unique_ptr<Operator> probe,
               std::unique_ptr<Operator> build, std::vector<int> probe_keys,
               std::vector<int> build_keys, MergeSpec merge,
               TableSet table_set, CheckSpec build_check,
               bool offer_build_for_reuse)
    : Operator(table_set),
      probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      merge_(std::move(merge)),
      build_check_(build_check),
      offer_build_for_reuse_(offer_build_for_reuse) {}

void HsjnOp::HashTable::Link() {
  const size_t n = hashes.size();
  POPDB_DCHECK(n < kEnd);
  head.assign(std::bit_ceil(std::max<size_t>(2 * n, 16)), kEnd);
  next.resize(n);
  const size_t mask = head.size() - 1;
  // Last row first, so each chain ends up in ascending row order.
  for (size_t i = n; i-- > 0;) {
    uint32_t& bucket = head[hashes[i] & mask];
    next[i] = bucket;
    bucket = static_cast<uint32_t>(i);
  }
}

namespace {

/// HashRow of the key values `at(0..nkeys)`, computed in place.
template <typename ValueAt>
size_t HashKey(size_t nkeys, ValueAt at) {
  size_t h = kHashRowSeed;
  for (size_t k = 0; k < nkeys; ++k) h = HashCombine(h, at(k).Hash());
  return h;
}

/// HashRow of `row`'s values at `positions`.
size_t HashRowKey(const Row& row, const std::vector<int>& positions) {
  return HashKey(positions.size(), [&](size_t k) -> const Value& {
    return row[static_cast<size_t>(positions[k])];
  });
}

}  // namespace

void HsjnOp::BuildTable(const std::vector<Row>& rows,
                        HashTable* table) const {
  table->hashes.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    table->hashes[i] = HashRowKey(rows[i], build_keys_);
  }
  table->Link();
}

template <typename ProbeAt>
uint32_t HsjnOp::NextMatch(const HashTable& table,
                           const std::vector<Row>& rows, size_t hash,
                           ProbeAt probe_at, uint32_t* cursor) const {
  for (uint32_t b = *cursor; b != HashTable::kEnd; b = table.next[b]) {
    if (table.hashes[b] != hash) continue;
    const Row& brow = rows[b];
    bool equal = true;
    for (size_t k = 0; k < build_keys_.size(); ++k) {
      if (probe_at(k) != brow[static_cast<size_t>(build_keys_[k])]) {
        equal = false;
        break;
      }
    }
    if (equal) {
      *cursor = table.next[b];
      return b;
    }
  }
  *cursor = HashTable::kEnd;
  return HashTable::kEnd;
}

ExecStatus HsjnOp::OpenImpl(ExecContext* ctx) {
  ctx->materializers.push_back(this);
  ExecStatus s = build_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  std::vector<Row> rows;
  s = DrainChildRows(build_.get(), ctx, &rows);
  build_count_ = static_cast<int64_t>(rows.size());
  if (s != ExecStatus::kEof) return s;
  build_->Close(ctx);
  build_rows_ = std::make_shared<const std::vector<Row>>(std::move(rows));

  if (build_check_.DecideMaterialized(ctx, CheckSite::kHsjnBuild,
                                      build_count_)) {
    return ExecStatus::kReoptimize;
  }

  if (build_count_ <= ctx->mem_rows) {
    // Streaming in-memory mode.
    in_memory_mode_ = true;
    BuildTable(*build_rows_, &table_);
    return probe_->Open(ctx);
  }

  // Build exceeds memory: materialize the probe side and join with
  // recursive partitioning.
  in_memory_mode_ = false;
  s = probe_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  std::vector<Row> probe_rows;
  s = DrainChildRows(probe_.get(), ctx, &probe_rows);
  if (s != ExecStatus::kEof) return s;
  probe_->Close(ctx);
  // Partitioning moves rows: join from a private copy of the build.
  std::vector<Row> build_copy = *build_rows_;
  return Join(ctx, &build_copy, &probe_rows, 0);
}

ExecStatus HsjnOp::Join(ExecContext* ctx, std::vector<Row>* build,
                        std::vector<Row>* probe, int depth) {
  if (static_cast<int64_t>(build->size()) <= ctx->mem_rows || depth > 8) {
    if (depth > 0) ++mutable_stats().partitions;
    HashTable table;
    BuildTable(*build, &table);
    for (const Row& prow : *probe) {
      if (ctx->CancelPending()) return ExecStatus::kCancelled;
      ++ctx->work;
      const auto probe_at = [&](size_t k) -> const Value& {
        return prow[static_cast<size_t>(probe_keys_[k])];
      };
      const size_t h = HashRowKey(prow, probe_keys_);
      uint32_t cursor = table.First(h);
      for (uint32_t b = NextMatch(table, *build, h, probe_at, &cursor);
           b != HashTable::kEnd;
           b = NextMatch(table, *build, h, probe_at, &cursor)) {
        output_.push_back(merge_.Merge(prow, (*build)[b]));
      }
    }
    return ExecStatus::kOk;
  }
  // One extra partitioning pass over both inputs (a "stage" in the paper's
  // multi-stage hash join terminology).
  ++mutable_stats().spills;
  std::vector<std::vector<Row>> bparts(kFanOut), pparts(kFanOut);
  const uint64_t salt = 0x9e3779b9u * static_cast<uint64_t>(depth + 1);
  for (Row& r : *build) {
    ++ctx->work;
    const size_t h = (HashRowKey(r, build_keys_) ^ salt) % kFanOut;
    bparts[h].push_back(std::move(r));
  }
  for (Row& r : *probe) {
    ++ctx->work;
    const size_t h = (HashRowKey(r, probe_keys_) ^ salt) % kFanOut;
    pparts[h].push_back(std::move(r));
  }
  build->clear();
  probe->clear();
  for (int p = 0; p < kFanOut; ++p) {
    const ExecStatus s = Join(ctx, &bparts[p], &pparts[p], depth + 1);
    if (s != ExecStatus::kOk) return s;
  }
  return ExecStatus::kOk;
}

ExecStatus HsjnOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  if (!in_memory_mode_) {
    // Spill mode: serve the precomputed join output in slices, moving rows
    // into the batch (output_ is never harvested).
    const int64_t target =
        BatchTarget(ctx, static_cast<int>(merge_.sources.size()));
    out->Clear();
    while (next_out_ < output_.size() && out->num_rows < target) {
      out->AppendRowMove(std::move(output_[next_out_++]));
    }
    return out->num_rows > 0 ? ExecStatus::kRow : ExecStatus::kEof;
  }
  // Streaming in-memory probe: one probe batch in, all its matches out.
  // Matches are collected per probe row and gathered column-wise straight
  // from the probe batch and the build rows once the batch is probed (or
  // on cancel), so no match is materialized row-major.
  out->Reset(static_cast<int>(merge_.sources.size()));
  const std::vector<Row>& build = *build_rows_;
  while (true) {
    const ExecStatus s = probe_->NextBatch(ctx, &probe_batch_);
    if (s != ExecStatus::kRow) return s;
    const int64_t n = probe_batch_.ActiveRows();
    match_end_.clear();
    for (int64_t i = 0; i < n; ++i) {
      if (ctx->CancelPending()) {
        merge_.Gather(&probe_batch_, &pending_, out);
        return FlushOrStatus(out, ExecStatus::kCancelled);
      }
      ++ctx->work;
      const int32_t raw = probe_batch_.RawIndex(i);
      const auto probe_at = [&](size_t k) -> const Value& {
        return probe_batch_.cols[static_cast<size_t>(probe_keys_[k])]
                                [static_cast<size_t>(raw)];
      };
      const size_t h = HashKey(probe_keys_.size(), probe_at);
      uint32_t cursor = table_.First(h);
      for (uint32_t b = NextMatch(table_, build, h, probe_at, &cursor);
           b != HashTable::kEnd;
           b = NextMatch(table_, build, h, probe_at, &cursor)) {
        pending_.Add(raw, &build[b]);
      }
      match_end_.push_back(static_cast<int64_t>(pending_.size()));
    }
    merge_.Gather(&probe_batch_, &pending_, out);
    if (out->num_rows > 0) return ExecStatus::kRow;
  }
}

void HsjnOp::ReturnUnconsumed(ExecContext* ctx, int64_t unconsumed) {
  Operator::ReturnUnconsumed(ctx, unconsumed);
  if (!in_memory_mode_ || match_end_.empty()) return;
  // The probe row that produced the last kept output row stays consumed
  // (its remaining matches are what went back); every row after it goes
  // back to the probe child. The last entry then ends at the kept count,
  // so a later hand-back from the same batch starts where this one ended.
  const int64_t kept = match_end_.back() - unconsumed;
  const int64_t last =
      kept <= 0 ? -1
                : std::lower_bound(match_end_.begin(), match_end_.end(),
                                   kept) -
                      match_end_.begin();
  const int64_t rest = static_cast<int64_t>(match_end_.size()) - last - 1;
  ctx->work -= rest;
  probe_->ReturnUnconsumed(ctx, rest);
  match_end_.resize(static_cast<size_t>(last + 1));
  if (last >= 0) match_end_.back() = kept;
}

void HsjnOp::CloseImpl(ExecContext* ctx) {
  build_->Close(ctx);
  probe_->Close(ctx);
}

bool HsjnOp::HarvestInfo(HarvestedResult* out) const {
  out->table_set = build_->table_set();
  out->complete = build_rows_ != nullptr;
  out->count = build_count_;
  out->rows = offer_build_for_reuse_ ? build_rows_ : nullptr;
  return true;
}

// ---------------------------------------------------------------- MgjnOp

MgjnOp::MgjnOp(std::unique_ptr<Operator> left,
               std::unique_ptr<Operator> right, std::vector<int> left_keys,
               std::vector<int> right_keys, MergeSpec merge,
               TableSet table_set)
    : Operator(table_set),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      merge_(std::move(merge)) {}

template <typename RightAt>
int MgjnOp::CompareKeys(RightAt right_at) const {
  for (size_t k = 0; k < left_keys_.size(); ++k) {
    const int c = left_in_.At(left_keys_[k]).Compare(right_at(k));
    if (c != 0) return c;
  }
  return 0;
}

ExecStatus MgjnOp::OpenImpl(ExecContext* ctx) {
  ExecStatus s = left_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  s = right_->Open(ctx);
  if (s != ExecStatus::kOk) return s;
  left_in_.op = left_.get();
  right_in_.op = right_.get();
  left_in_.valid = right_in_.valid = false;
  right_group_.clear();
  in_group_ = false;
  // Nothing is pending yet, so no output batch is needed for a gather.
  s = Advance(ctx, &left_in_, nullptr);
  if (IsAbortStatus(s)) return s;
  s = Advance(ctx, &right_in_, nullptr);
  if (IsAbortStatus(s)) return s;
  return ExecStatus::kOk;
}

ExecStatus MgjnOp::Advance(ExecContext* ctx, Input* in, RowBatch* out) {
  if (in->valid && in->idx + 1 < in->batch.ActiveRows()) {
    ++in->idx;
  } else {
    // Pending matches read the held left batch: gather before replacing it.
    if (in == &left_in_) merge_.Gather(&in->batch, &pending_, out);
    in->valid = false;
    const ExecStatus s = in->op->NextBatch(ctx, &in->batch);
    if (s != ExecStatus::kRow) return s;
    in->idx = 0;
  }
  in->valid = true;
  ++ctx->work;
  return ExecStatus::kRow;
}

void MgjnOp::ReturnHeldRows(ExecContext* ctx, Input* in) {
  if (!in->valid) return;
  const int64_t rest = in->batch.ActiveRows() - in->idx - 1;
  in->op->ReturnUnconsumed(ctx, rest);
  in->batch.TruncateActive(in->idx + 1);
}

ExecStatus MgjnOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  const int width = static_cast<int>(merge_.sources.size());
  const int64_t target = BatchTarget(ctx, width);
  out->Reset(width);
  const auto flush = [&](ExecStatus s) {
    merge_.Gather(&left_in_.batch, &pending_, out);
    return FlushOrStatus(out, s);
  };
  const auto right_current = [this](size_t k) -> const Value& {
    return right_in_.At(right_keys_[k]);
  };
  while (true) {
    if (ctx->CancelPending()) return flush(ExecStatus::kCancelled);
    if (in_group_) {
      if (group_pos_ < right_group_.size()) {
        // The current left row against the rest of the group, up to the
        // output target.
        const int32_t raw = left_in_.batch.RawIndex(left_in_.idx);
        const size_t room = static_cast<size_t>(
            target - out->num_rows - static_cast<int64_t>(pending_.size()));
        const size_t end = std::min(right_group_.size(), group_pos_ + room);
        for (; group_pos_ < end; ++group_pos_) {
          pending_.Add(raw, &right_group_[group_pos_]);
        }
        if (out->num_rows + static_cast<int64_t>(pending_.size()) >= target) {
          merge_.Gather(&left_in_.batch, &pending_, out);
          return ExecStatus::kRow;
        }
        continue;
      }
      // The current left row finished its group; the next left row reuses
      // the buffered group when its key is the same.
      const ExecStatus s = Advance(ctx, &left_in_, out);
      if (IsAbortStatus(s)) return flush(s);
      const Row& front = right_group_.front();
      if (left_in_.valid &&
          CompareKeys([&](size_t k) -> const Value& {
            return front[static_cast<size_t>(right_keys_[k])];
          }) == 0) {
        group_pos_ = 0;
        continue;
      }
      // Pending matches point into the group: gather before dropping it.
      merge_.Gather(&left_in_.batch, &pending_, out);
      in_group_ = false;
      right_group_.clear();
    }
    if (!left_in_.valid || !right_in_.valid) {
      ReturnHeldRows(ctx, &left_in_);
      ReturnHeldRows(ctx, &right_in_);
      return flush(ExecStatus::kEof);
    }
    const int cmp = CompareKeys(right_current);
    if (cmp != 0) {
      const ExecStatus s =
          Advance(ctx, cmp < 0 ? &left_in_ : &right_in_, out);
      if (IsAbortStatus(s)) return flush(s);
      continue;
    }
    // Buffer the full right-side key group.
    do {
      Row row;
      right_in_.batch.MaterializeRow(right_in_.idx, &row);
      right_group_.push_back(std::move(row));
      const ExecStatus s = Advance(ctx, &right_in_, out);
      if (IsAbortStatus(s)) return flush(s);
    } while (right_in_.valid && CompareKeys(right_current) == 0);
    in_group_ = true;
    group_pos_ = 0;
  }
}

void MgjnOp::CloseImpl(ExecContext* ctx) {
  // After an abort above the join, rows past the current ones were never
  // reached either.
  ReturnHeldRows(ctx, &left_in_);
  ReturnHeldRows(ctx, &right_in_);
  left_->Close(ctx);
  right_->Close(ctx);
}

}  // namespace popdb
