#include "runtime/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/json.h"

namespace popdb {

namespace {

void ShardsToJson(const std::vector<ShardAttemptInfo>& shards,
                  JsonWriter* w) {
  w->BeginArray();
  for (const ShardAttemptInfo& s : shards) {
    w->BeginObject();
    w->Key("shard").Int(s.shard);
    w->Key("execute_ms").Double(s.execute_ms);
    w->Key("rows").Int(s.rows);
    w->Key("outcome").String(s.outcome);
    w->EndObject();
  }
  w->EndArray();
}

}  // namespace

void FillTraceFromStats(ExecutionStats* stats, QueryTrace* trace) {
  trace->signature = std::move(stats->signature);
  trace->work = stats->total_work;
  trace->result_rows = stats->result_rows;
  trace->reopts = stats->reopts;
  trace->check_events = static_cast<int64_t>(stats->check_events.size());
  trace->plan_cache = PlanCacheOutcomeName(stats->plan_cache);
  trace->plan_cache_age_ms = stats->plan_cache_age_ms;
  trace->checks_fired = 0;
  std::fill(std::begin(trace->fired_by_flavor),
            std::end(trace->fired_by_flavor), 0);
  for (const CheckEvent& ev : stats->check_events) {
    if (!ev.fired) continue;
    ++trace->checks_fired;
    ++trace->fired_by_flavor[static_cast<int>(ev.flavor)];
  }
  trace->attempts = std::move(stats->attempts);
  trace->optimize_ms = 0.0;
  trace->execute_ms = 0.0;
  for (const TraceAttempt& a : trace->attempts) {
    trace->optimize_ms += a.optimize_ms;
    trace->execute_ms += a.execute_ms;
  }
}

uint64_t PlanTextDigest(const std::string& plan_text) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis.
  for (const char c : plan_text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string QueryTrace::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("query_id").Int(query_id);
  w.Key("query").String(query_name);
  w.Key("session").Int(static_cast<int64_t>(session_id));
  w.Key("priority").String(priority);
  w.Key("outcome").String(outcome);
  if (!status_message.empty()) w.Key("status").String(status_message);
  w.Key("shared_feedback").Bool(shared_feedback);
  w.Key("latency_ms")
      .BeginObject()
      .Key("queue")
      .Double(queue_ms)
      .Key("optimize")
      .Double(optimize_ms)
      .Key("execute")
      .Double(execute_ms)
      .Key("total")
      .Double(total_ms)
      .EndObject();
  w.Key("work").Int(work);
  w.Key("result_rows").Int(result_rows);
  w.Key("reopts").Int(reopts);
  w.Key("check_events").Int(check_events);
  w.Key("checks_fired").Int(checks_fired);
  w.Key("plan_cache").String(plan_cache);
  if (plan_cache_age_ms > 0) {
    w.Key("plan_cache_age_ms").Double(plan_cache_age_ms);
  }
  w.Key("attempts").BeginArray();
  for (const TraceAttempt& a : attempts) {
    w.BeginObject();
    w.Key("plan").String(a.plan_text);
    w.Key("optimize_ms").Double(a.optimize_ms);
    w.Key("execute_ms").Double(a.execute_ms);
    w.Key("work").Int(a.work);
    w.Key("rows_returned").Int(a.rows_returned);
    w.Key("reoptimized").Bool(a.reoptimized);
    if (a.reoptimized) {
      w.Key("reopt_flavor").String(CheckFlavorName(a.signal.flavor));
    }
    if (a.has_profile) {
      w.Key("profile");
      ProfileToJson(a.profile, &w);
    }
    if (!a.shards.empty()) {
      w.Key("shards");
      ShardsToJson(a.shards, &w);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string QueryTrace::ToLogJson() const {
  const TraceAttempt* last = attempts.empty() ? nullptr : &attempts.back();
  double peak_qerror = -1.0;
  for (const TraceAttempt& a : attempts) {
    if (a.has_profile) {
      peak_qerror = std::max(peak_qerror, PeakProfileQError(a.profile));
    }
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("query_id").Int(query_id);
  w.Key("end_ms").Double(end_ms);
  w.Key("kind").String(kind);
  w.Key("query").String(query_name);
  if (!signature.empty()) w.Key("signature").String(signature);
  // Two entries with equal signatures but different digests mean the plan
  // changed (re-optimization, epoch bump, stats refresh). Hex keeps the
  // digest lossless (JSON integers are signed 64-bit).
  if (last != nullptr && !last->plan_text.empty()) {
    char hex[19];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      PlanTextDigest(last->plan_text)));
    w.Key("plan_digest").String(hex);
  }
  w.Key("outcome").String(outcome);
  if (!status_message.empty()) w.Key("status").String(status_message);
  w.Key("plan_cache").String(plan_cache);
  w.Key("reopts").Int(reopts);
  w.Key("checks_fired").Int(checks_fired);
  if (checks_fired > 0) {
    w.Key("fired_by_flavor").BeginObject();
    for (int f = 0; f < 6; ++f) {
      if (fired_by_flavor[f] > 0) {
        w.Key(CheckFlavorName(static_cast<CheckFlavor>(f)))
            .Int(fired_by_flavor[f]);
      }
    }
    w.EndObject();
  }
  w.Key("queue_ms").Double(queue_ms);
  w.Key("optimize_ms").Double(optimize_ms);
  w.Key("execute_ms").Double(execute_ms);
  w.Key("total_ms").Double(total_ms);
  w.Key("result_rows").Int(result_rows);
  if (affected_rows >= 0) w.Key("affected_rows").Int(affected_rows);
  if (peak_qerror >= 0) w.Key("peak_qerror").Double(peak_qerror);
  const bool distributed = last != nullptr && !last->shards.empty();
  w.Key("distributed").Bool(distributed);
  if (distributed) {
    w.Key("shards");
    ShardsToJson(last->shards, &w);
  }
  w.EndObject();
  return w.str();
}

void CollectingTraceSink::Emit(const QueryTrace& trace) {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.push_back(trace);
}

std::vector<QueryTrace> CollectingTraceSink::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryTrace> out = std::move(traces_);
  traces_.clear();
  return out;
}

int64_t CollectingTraceSink::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(traces_.size());
}

// ------------------------------------------------------------- TraceStore

void TraceStore::Emit(const QueryTrace& trace) {
  auto record = std::make_shared<const QueryTrace>(trace);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Until the ring is full the next slot is one past its end.
    if (static_cast<int64_t>(ring_.size()) < capacity_) ring_.emplace_back();
    ring_[static_cast<size_t>(total_ % capacity_)].swap(record);
    ++total_;
  }
  // `record` now holds the evicted record (if any): freed outside the lock.
}

std::optional<std::string> TraceStore::Get(int64_t query_id) const {
  std::shared_ptr<const QueryTrace> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t n = static_cast<int64_t>(ring_.size());
    for (int64_t back = 1; back <= n && found == nullptr; ++back) {
      const auto& record = ring_[static_cast<size_t>((total_ - back) %
                                                     capacity_)];
      if (record->query_id == query_id) found = record;
    }
  }
  if (found == nullptr) return std::nullopt;
  return found->ToJson();
}

std::vector<std::shared_ptr<const QueryTrace>> TraceStore::Tail(
    int64_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t n = static_cast<int64_t>(ring_.size());
  const int64_t take = (limit <= 0 || limit > n) ? n : limit;
  std::vector<std::shared_ptr<const QueryTrace>> out;
  out.reserve(static_cast<size_t>(take));
  for (int64_t back = take; back >= 1; --back) {
    out.push_back(ring_[static_cast<size_t>((total_ - back) % capacity_)]);
  }
  return out;
}

std::string TraceStore::LogJson(int64_t limit) const {
  std::string out = "[";
  for (const auto& record : Tail(limit)) {
    if (out.size() > 1) out += ',';
    out += record->ToLogJson();
  }
  out += ']';
  return out;
}

int64_t TraceStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(ring_.size());
}

int64_t TraceStore::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

}  // namespace popdb
