#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

namespace popdb::perfbench {

void FillFromTrace(const QueryTrace& trace, OpSample* s) {
  s->query_id = trace.query_id;
  s->total_ms = trace.total_ms;
  s->queue_ms = trace.queue_ms;
  s->work = trace.work;
  s->checks_fired = trace.checks_fired;
  s->reopts = trace.reopts;
  s->cache_hit = IsCacheHit(trace.plan_cache);
  s->optimize_ms = 0.0;
  s->execute_ms = 0.0;
  s->wasted_work = 0;
  for (const TraceAttempt& a : trace.attempts) {
    s->optimize_ms += a.optimize_ms;
    s->execute_ms += a.execute_ms;
    if (a.reoptimized) s->wasted_work += a.work;
  }
}

bool IsCacheHit(const std::string& outcome) {
  return outcome == "hit" || outcome == "validity_hit";
}

int64_t SumSeries(const std::string& text, const std::string& family) {
  int64_t total = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() <= family.size() || line.compare(0, family.size(),
                                                     family) != 0) {
      continue;
    }
    const char next = line[family.size()];
    if (next != ' ' && next != '{') continue;
    const size_t space = line.rfind(' ');
    total += std::strtoll(line.c_str() + space + 1, nullptr, 10);
  }
  return total;
}

EngineSnapshot Snap(QueryService* service, int64_t stats_folds) {
  EngineSnapshot s;
  if (service->plan_cache() != nullptr) s.cache = service->plan_cache()->stats();
  const std::string text = service->MetricsText();
  s.memo_hits = SumSeries(text, "popdb_reopt_incremental_hits");
  s.net_bytes = SumSeries(text, "popdb_net_bytes_read_total") +
                SumSeries(text, "popdb_net_bytes_written_total");
  s.stats_folds = stats_folds;
  return s;
}

std::string Counters::Diff(const Counters& o) const {
  std::string out;
  auto cmp = [&](const char* name, int64_t a, int64_t b) {
    if (a != b) {
      out += std::string(out.empty() ? "" : ", ") + name + " " +
             std::to_string(a) + " vs " + std::to_string(b);
    }
  };
  cmp("ops", ops, o.ops);
  cmp("exec.work_units", work_units, o.work_units);
  cmp("wasted_work", wasted_work, o.wasted_work);
  cmp("core.checks_fired", checks_fired, o.checks_fired);
  cmp("reopts", reopts, o.reopts);
  cmp("opt.candidates", candidates, o.candidates);
  cmp("txn.stats_folds", stats_folds, o.stats_folds);
  cmp("opt.plan_cache_hits", cache_hits, o.cache_hits);
  cmp("opt.plan_cache_lookups", cache_lookups, o.cache_lookups);
  cmp("opt.plan_cache_near_misses", near_misses, o.near_misses);
  cmp("opt.stale_stats_evictions", stale_evictions, o.stale_evictions);
  cmp("core.memo_reused", memo_reused, o.memo_reused);
  return out;
}

Counters CountOps(const std::vector<OpSample>& ops, size_t begin, size_t end,
                  const EngineSnapshot& a, const EngineSnapshot& b) {
  Counters c;
  for (size_t i = begin; i < end && i < ops.size(); ++i) {
    const OpSample& s = ops[i];
    ++c.ops;
    c.work_units += s.work;
    c.wasted_work += s.wasted_work;
    c.checks_fired += s.checks_fired;
    c.reopts += s.reopts;
  }
  c.cache_lookups = b.cache.lookups - a.cache.lookups;
  c.cache_hits = (b.cache.hits + b.cache.validity_hits) -
                 (a.cache.hits + a.cache.validity_hits);
  c.near_misses = b.cache.near_misses - a.cache.near_misses;
  c.stale_evictions =
      b.cache.evictions_stale_stats - a.cache.evictions_stale_stats;
  c.memo_reused = b.memo_hits - a.memo_hits;
  c.stats_folds = b.stats_folds - a.stats_folds;
  return c;
}

TimedPlan TimedPlan::For(const WorkloadSpec& w, double seconds,
                         size_t multiple_of) {
  TimedPlan plan;
  const size_t ops = static_cast<size_t>(std::ceil(w.ops_per_s * seconds));
  plan.ops = (std::max<size_t>(ops, 1) + multiple_of - 1) / multiple_of *
             multiple_of;
  // A 4-vCPU VM needs 0.6-0.85 * seconds; the cap keeps a slower host's
  // run within its time budget.
  plan.cap_s = seconds;
  return plan;
}

TimedPlan TimedPlan::Exactly(size_t ops) {
  TimedPlan plan;
  plan.ops = ops;
  plan.cap_s = 1e9;
  return plan;
}

bool TimedPlan::Over(size_t done, Clock::time_point t0) const {
  return done >= ops || MsSince(t0) >= 1000.0 * cap_s;
}

void TimedPlan::Report(size_t done) const {
  if (done < ops) {
    std::printf("WARNING: the %.0f s cap stopped the timed phase after %zu "
                "of %zu operations; this run measured less work\n",
                cap_s, done, ops);
  }
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

namespace {

constexpr size_t kChunkSamples = 100;
constexpr size_t kMinChunks = 5;
constexpr size_t kRateWindows = 10;

/// Samples strictly above the nearest-rank p90.
size_t BeyondP90(size_t n) {
  const size_t rank =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(0.9 * n)));
  return n - std::min(rank, n);
}

/// Percentile under the chunk rule: a set of at least kMinChunks * 100
/// samples is cut, in the order the samples were taken, into chunks of
/// kChunkSamples (a short tail joins the last chunk); the percentile is taken
/// per chunk and the median across chunks is reported, so a slow stretch of
/// the run (another tenant on the host) moves one chunk instead of the whole
/// tail. A smaller set reports its plain percentile.
double ChunkedPercentile(const std::vector<double>& v, double p) {
  if (v.size() < kMinChunks * kChunkSamples) return Percentile(v, p);
  std::vector<double> per_chunk;
  const size_t chunks = v.size() / kChunkSamples;
  for (size_t c = 0; c < chunks; ++c) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(c * kChunkSamples);
    const auto last = c + 1 == chunks
                          ? v.end()
                          : first + static_cast<std::ptrdiff_t>(kChunkSamples);
    per_chunk.push_back(Percentile(std::vector<double>(first, last), p));
  }
  return Median(per_chunk);
}

Quantiles FromGroups(const std::map<int, std::vector<double>>& groups) {
  Quantiles q;
  if (groups.empty()) {
    q.enough = false;
    return q;
  }
  double log50 = 0.0;
  double log90 = 0.0;
  q.min_samples = SIZE_MAX;
  for (const auto& [group, v] : groups) {
    log50 += std::log(std::max(ChunkedPercentile(v, 0.5), 1e-9));
    log90 += std::log(std::max(ChunkedPercentile(v, 0.9), 1e-9));
    q.min_samples = std::min(q.min_samples, v.size());
    if (BeyondP90(v.size()) < 10) q.enough = false;
  }
  const double n = static_cast<double>(groups.size());
  q.p50 = std::exp(log50 / n);
  q.p90 = std::exp(log90 / n);
  return q;
}

}  // namespace

Quantiles LatencyQuantiles(const std::vector<OpSample>& ops, bool writes,
                           bool per_group, int traced_filter, size_t begin,
                           size_t end) {
  std::map<int, std::vector<double>> groups;
  for (size_t i = begin; i < end && i < ops.size(); ++i) {
    const OpSample& s = ops[i];
    if (s.write != writes || !s.ok) continue;
    if (traced_filter >= 0 && s.traced != (traced_filter == 1)) continue;
    groups[per_group ? s.group : 0].push_back(s.ms);
  }
  return FromGroups(groups);
}

double WindowedRate(const std::vector<OpSample>& ops) {
  const size_t per_window = ops.size() / kRateWindows;
  if (per_window == 0) return 0.0;
  std::vector<double> rates;
  double start_s = 0.0;
  for (size_t w = 0; w < kRateWindows; ++w) {
    const size_t last = w + 1 == kRateWindows ? ops.size() - 1
                                              : (w + 1) * per_window - 1;
    double done = 0.0;
    for (size_t i = w * per_window; i <= last; ++i) done += ops[i].ok ? 1 : 0;
    rates.push_back(done / std::max(ops[last].end_s - start_s, 1e-9));
    start_s = ops[last].end_s;
  }
  return Median(rates);
}

Quantiles PooledQuantiles(const std::vector<double>& values) {
  Quantiles q;
  q.min_samples = values.size();
  q.enough = BeyondP90(values.size()) >= 10;
  q.p50 = Percentile(values, 0.5);
  q.p90 = Percentile(values, 0.9);
  return q;
}

void Report::Fail(const std::string& why) {
  correct = false;
  std::printf("FAIL: %s\n", why.c_str());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {

bool RowLess(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

bool ValuesMatch(const Value& a, const Value& b) {
  const bool numeric_a =
      a.type() == ValueType::kInt || a.type() == ValueType::kDouble;
  const bool numeric_b =
      b.type() == ValueType::kInt || b.type() == ValueType::kDouble;
  if (numeric_a && numeric_b &&
      (a.type() == ValueType::kDouble || b.type() == ValueType::kDouble)) {
    // Floating-point aggregates depend on summation order, which differs
    // between plans; 1e-9 relative is far below any real mismatch.
    const double x = a.AsNumeric();
    const double y = b.AsNumeric();
    return std::fabs(x - y) <=
           1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a.Compare(b) == 0;
}

}  // namespace

std::string CompareRows(std::vector<Row> got, std::vector<Row> want) {
  if (got.size() != want.size()) {
    return "row count " + std::to_string(got.size()) + " vs reference " +
           std::to_string(want.size());
  }
  std::sort(got.begin(), got.end(), RowLess);
  std::sort(want.begin(), want.end(), RowLess);
  for (size_t r = 0; r < got.size(); ++r) {
    bool same = got[r].size() == want[r].size();
    for (size_t c = 0; same && c < got[r].size(); ++c) {
      same = ValuesMatch(got[r][c], want[r][c]);
    }
    if (!same) {
      return "row " + RowToString(got[r]) + " vs reference " +
             RowToString(want[r]);
    }
  }
  return "";
}

namespace {

double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return ProcStatusMb("VmHWM:"); }
double CurrentRssMb() { return ProcStatusMb("VmRSS:"); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace popdb::perfbench
