#include "storage/statistics.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/rng.h"

namespace popdb {

double EquiDepthHistogram::FractionLeq(double x) const {
  if (empty() || total_rows == 0) return 0.5;
  if (x < bounds.front()) return 0.0;
  if (x >= bounds.back()) return 1.0;
  int64_t rows_below = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    const double lo = bounds[b];
    const double hi = bounds[b + 1];
    if (x >= hi) {
      rows_below += counts[b];
      continue;
    }
    // x falls inside bucket b: linear interpolation.
    const double width = hi - lo;
    const double frac = width > 0 ? (x - lo) / width : 1.0;
    rows_below += static_cast<int64_t>(frac * static_cast<double>(counts[b]));
    break;
  }
  return static_cast<double>(rows_below) / static_cast<double>(total_rows);
}

double EquiDepthHistogram::FractionBetween(double lo, double hi) const {
  if (empty() || total_rows == 0) return 0.33;
  if (hi < lo) return 0.0;
  const double f = FractionLeq(hi) - FractionLeq(lo);
  return std::max(0.0, std::min(1.0, f));
}

namespace {

/// Distinct values of a column's non-null cells and, for GEE, how many of
/// them occur exactly once.
struct DistinctRuns {
  int64_t distinct = 0;
  int64_t singletons = 0;
};

/// Counts the runs of `equal` values in sorted `values`.
template <typename T, typename Equal>
DistinctRuns CountRuns(const std::vector<T>& values, Equal equal) {
  DistinctRuns runs;
  for (size_t i = 0; i < values.size();) {
    size_t j = i + 1;
    while (j < values.size() && equal(values[i], values[j])) ++j;
    ++runs.distinct;
    if (j - i == 1) ++runs.singletons;
    i = j;
  }
  return runs;
}

/// Sets the column's distinct count. When `sampled`, null counts are
/// scaled back to the full table and distinct counts are extrapolated with
/// the GEE estimator: values seen once may stand for many unseen ones;
/// values seen repeatedly are probably just frequent.
void SetDistinct(const DistinctRuns& runs, bool sampled,
                 double sample_fraction, int64_t row_count, ColumnStats* cs) {
  if (!sampled) {
    cs->num_distinct = runs.distinct;
    return;
  }
  cs->null_count = static_cast<int64_t>(static_cast<double>(cs->null_count) /
                                        sample_fraction);
  const double estimate =
      std::sqrt(1.0 / sample_fraction) * static_cast<double>(runs.singletons) +
      static_cast<double>(runs.distinct - runs.singletons);
  cs->num_distinct =
      std::max<int64_t>(runs.distinct, static_cast<int64_t>(estimate));
  cs->num_distinct = std::min(cs->num_distinct, row_count);
}

/// Equi-depth histogram over the sorted numeric values of a column.
void BuildHistogram(const std::vector<double>& sorted, int histogram_buckets,
                    EquiDepthHistogram* h) {
  if (sorted.empty()) return;
  const int64_t n = static_cast<int64_t>(sorted.size());
  const int nb = std::max(
      1, std::min<int>(histogram_buckets,
                       static_cast<int>(std::min<int64_t>(n, 1 << 20))));
  h->total_rows = n;
  h->bounds.push_back(sorted.front());
  int64_t consumed = 0;
  for (int b = 0; b < nb; ++b) {
    const int64_t target =
        (n * static_cast<int64_t>(b + 1)) / static_cast<int64_t>(nb);
    h->counts.push_back(target - consumed);
    consumed = target;
    const size_t bound_idx =
        static_cast<size_t>(std::min<int64_t>(target, n - 1));
    h->bounds.push_back(b + 1 == nb ? sorted.back() : sorted[bound_idx]);
  }
}

/// Column stats under Value semantics, for a double column holding a NaN
/// (which Value comparison finds equal to every number, so no typed sort
/// orders it): distinct values counted in a hash map under Value equality,
/// min/max the first-seen extremes.
void CollectGeneric(const TableSnapshot& snap, const std::vector<int64_t>& rids,
                    int c, bool sampled, double sample_fraction,
                    int64_t row_count, int histogram_buckets,
                    ColumnStats* cs) {
  std::unordered_map<Value, int64_t, ValueHash> counts;
  std::vector<double> numeric_values;
  for (int64_t r : rids) {
    const Value v = snap.Cell(r, c);
    if (v.is_null()) {
      ++cs->null_count;
      continue;
    }
    ++counts[v];
    if (!cs->min || v < *cs->min) cs->min = v;
    if (!cs->max || v > *cs->max) cs->max = v;
    numeric_values.push_back(v.AsNumeric());
  }
  DistinctRuns runs;
  runs.distinct = static_cast<int64_t>(counts.size());
  for (const auto& [value, n] : counts) {
    if (n == 1) ++runs.singletons;
  }
  SetDistinct(runs, sampled, sample_fraction, row_count, cs);
  std::sort(numeric_values.begin(), numeric_values.end());
  BuildHistogram(numeric_values, histogram_buckets, &cs->histogram);
}

/// Shared stats computation over a row-id subset of one pinned snapshot.
/// Each column's non-null cells are read from its typed vector and sorted
/// once — int64, double or string pointers — and the distinct count, GEE
/// frequencies, min/max and histogram are read off the sorted runs. A
/// double column holding a NaN takes the generic Value path.
TableStats CollectOverRows(const TableSnapshot& snap, const Schema& schema,
                           const std::vector<int64_t>& rids,
                           bool sampled, double sample_fraction,
                           int histogram_buckets) {
  TableStats stats;
  stats.row_count = snap.live_rows();
  const int ncols = schema.num_columns();
  stats.columns.resize(static_cast<size_t>(ncols));

  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<const std::string*> strings;
  for (int c = 0; c < ncols; ++c) {
    ColumnStats& cs = stats.columns[static_cast<size_t>(c)];
    const ValueType type = schema.column(c).type;
    ints.clear();
    doubles.clear();
    strings.clear();
    bool has_nan = false;
    for (int64_t r : rids) {
      const ColumnChunk& col =
          snap.chunk_of(r).columns[static_cast<size_t>(c)];
      const size_t off = ChunkOffset(r);
      if (col.nulls[off] != 0) {
        ++cs.null_count;
      } else if (type == ValueType::kInt) {
        ints.push_back(col.ints[off]);
      } else if (type == ValueType::kDouble) {
        if (std::isnan(col.doubles[off])) {
          has_nan = true;
          break;
        }
        doubles.push_back(col.doubles[off]);
      } else {
        strings.push_back(&col.strings[off]);
      }
    }
    if (has_nan) {
      cs = ColumnStats();
      CollectGeneric(snap, rids, c, sampled, sample_fraction,
                     stats.row_count, histogram_buckets, &cs);
      continue;
    }
    const bool any = !ints.empty() || !doubles.empty() || !strings.empty();
    const ValueType kind = any ? type : ValueType::kNull;

    DistinctRuns runs;
    if (kind == ValueType::kInt) {
      std::sort(ints.begin(), ints.end());
      runs = CountRuns(ints, std::equal_to<int64_t>());
      cs.min = Value::Int(ints.front());
      cs.max = Value::Int(ints.back());
      // int64 -> double is monotone, so the converted sorted ints are the
      // sorted doubles.
      doubles.assign(ints.begin(), ints.end());
      BuildHistogram(doubles, histogram_buckets, &cs.histogram);
    } else if (kind == ValueType::kDouble) {
      // The first-seen extremes, as Value comparison keeps them: -0.0 and
      // 0.0 are equal but not the same bits.
      double lo = doubles.front();
      double hi = doubles.front();
      for (double d : doubles) {
        if (d < lo) lo = d;
        if (d > hi) hi = d;
      }
      cs.min = Value::Double(lo);
      cs.max = Value::Double(hi);
      std::sort(doubles.begin(), doubles.end());
      runs = CountRuns(doubles, std::equal_to<double>());
      BuildHistogram(doubles, histogram_buckets, &cs.histogram);
    } else if (kind == ValueType::kString) {
      std::sort(strings.begin(), strings.end(),
                [](const std::string* a, const std::string* b) {
                  return *a < *b;
                });
      runs = CountRuns(strings, [](const std::string* a, const std::string* b) {
        return *a == *b;
      });
      cs.min = Value::String(*strings.front());
      cs.max = Value::String(*strings.back());
    }
    SetDistinct(runs, sampled, sample_fraction, stats.row_count, &cs);
  }
  return stats;
}
}  // namespace

TableStats CollectTableStats(const Table& table, int histogram_buckets) {
  const TableSnapshot snap = table.Snapshot();
  std::vector<int64_t> all;
  all.reserve(static_cast<size_t>(snap.live_rows()));
  for (int64_t r = 0; r < snap.num_rows(); ++r) {
    if (snap.alive(r)) all.push_back(r);
  }
  return CollectOverRows(snap, table.schema(), all, /*sampled=*/false, 1.0,
                         histogram_buckets);
}

TableStats CollectTableStatsSampled(const Table& table,
                                    double sample_fraction, uint64_t seed,
                                    int histogram_buckets) {
  sample_fraction = std::clamp(sample_fraction, 1e-6, 1.0);
  Rng rng(seed);
  const TableSnapshot snap = table.Snapshot();
  std::vector<int64_t> sample;
  int64_t first_alive = -1;
  for (int64_t r = 0; r < snap.num_rows(); ++r) {
    if (!snap.alive(r)) continue;
    if (first_alive < 0) first_alive = r;
    if (rng.Bernoulli(sample_fraction)) sample.push_back(r);
  }
  if (sample.empty() && first_alive >= 0) sample.push_back(first_alive);
  return CollectOverRows(snap, table.schema(), sample, /*sampled=*/true,
                         sample_fraction, histogram_buckets);
}

}  // namespace popdb
