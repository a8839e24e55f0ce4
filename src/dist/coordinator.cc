#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/span.h"
#include "core/explain.h"
#include "dist/observability.h"
#include "dist/plan_json.h"
#include "net/client.h"

namespace popdb::dist {

namespace {

Status CancelStatus(const CancelToken& cancel, const QuerySpec& query) {
  if (cancel.reason() == CancelReason::kDeadline) {
    return Status::DeadlineExceeded("distributed query '" + query.name() +
                                    "' exceeded its deadline");
  }
  return Status::Cancelled("distributed query '" + query.name() +
                           "' cancelled");
}

}  // namespace

/// Everything one gather thread learned about its shard's subquery.
struct Coordinator::ShardOutcome {
  Status status;
  std::string outcome;
  std::vector<Row> rows;
  bool has_violation = false;
  ReoptSignal violation;
  std::vector<EdgeObservation> observations;
  /// True when a query_done frame arrived (protocol completed; the
  /// observation list — possibly empty — is authoritative).
  bool reported = false;
  /// Shard-reported subplan wall time (coordinator-side round trip when
  /// the shard did not report one).
  double execute_ms = 0.0;
  /// Shard-side EXPLAIN ANALYZE snapshot of the executed fragment.
  PlanProfileNode profile;
  bool has_profile = false;
};

/// State shared between Execute() and the per-shard gather threads for one
/// scatter round.
struct Coordinator::ScatterState {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ShardOutcome> shards;
  std::vector<int64_t> query_ids;  ///< Shard-assigned ids (-1 = unknown).
  std::vector<bool> finished;
  int done = 0;
  bool abort = false;  ///< A shard error ended the round.
};

Coordinator::Coordinator(const Catalog& catalog, CoordinatorConfig config)
    : catalog_(catalog),
      config_(std::move(config)),
      pool_(config_.shards, config_.connect) {}

bool Coordinator::CanExecute(const QuerySpec& query) const {
  return !config_.shards.empty() && IsShardable(query, config_.partition);
}

void Coordinator::RegisterMetrics(MetricsRegistry* registry) {
  shards_up_ = registry->GetGauge(
      "popdb_dist_shards_up",
      "Shard endpoints reachable at the last scatter round.");
  queries_total_ = registry->GetCounter(
      "popdb_dist_queries_total",
      "Queries executed through the scatter-gather coordinator.");
  reopts_total_ = registry->GetCounter(
      "popdb_dist_reopts_total",
      "Coordinator-level global re-optimizations triggered by per-shard "
      "CHECK violations.");
  shard_errors_total_ = registry->GetCounter(
      "popdb_dist_shard_errors_total",
      "Shard subqueries that ended in a transport or execution error.");
  // Fan-out wall time spans in-memory merges to multi-second scans;
  // 1ms..~17min in doubling buckets.
  scatter_latency_ = registry->GetHistogram(
      "popdb_dist_scatter_latency_ms",
      "Wall time of one scatter round (fan-out to last shard done).",
      Histogram::LogBuckets(1.0, 2.0, 20));
  shard_rows_total_.clear();
  shard_latency_.clear();
  for (int i = 0; i < num_shards(); ++i) {
    const std::string label = "shard=\"" + std::to_string(i) + "\"";
    shard_rows_total_.push_back(registry->GetCounter(
        "popdb_dist_shard_rows_total",
        "Rows streamed back from each shard (all attempts).", label));
    shard_latency_.push_back(registry->GetHistogram(
        "popdb_dist_shard_latency_ms",
        "Per-shard subplan wall time within a scatter round.",
        Histogram::LogBuckets(1.0, 2.0, 20), label));
  }
  shard_lag_ = registry->GetHistogram(
      "popdb_dist_shard_lag_ms",
      "Straggler lag per scatter round: slowest minus fastest shard wall "
      "time.",
      Histogram::LogBuckets(1.0, 2.0, 16));
}

void Coordinator::GatherFromShard(int shard, const std::string& payload,
                                  const std::string& trace_token,
                                  ScatterState* state) {
  const double shard_start = NowMs();
  TRACE_SPAN_NAMED(gather_span, "gather_shard", "dist");
  gather_span.SetLabel(std::string_view(trace_token));
  gather_span.SetArg("shard", shard);
  ShardOutcome out;
  std::unique_ptr<net::Client> client;

  Result<std::unique_ptr<net::Client>> acquired = pool_.Acquire(shard);
  if (acquired.ok()) {
    client = std::move(acquired).TakeValue();
    Result<int64_t> started = client->SubplanStart(payload);
    if (started.ok()) {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->query_ids[static_cast<size_t>(shard)] = started.value();
      }
      bool streaming = true;
      bool clean = false;
      while (streaming) {
        Result<net::ShardEvent> next = client->SubplanNext();
        if (!next.ok()) {
          out.status = next.status();
          break;
        }
        net::ShardEvent event = std::move(next).TakeValue();
        switch (event.kind) {
          case net::ShardEvent::Kind::kRows:
            for (Row& row : event.rows) out.rows.push_back(std::move(row));
            break;
          case net::ShardEvent::Kind::kViolation: {
            out.has_violation = true;
            out.violation.triggered = true;
            out.violation.edge_set = static_cast<TableSet>(
                event.payload.GetInt("edge_set", 0));
            out.violation.observed_rows =
                event.payload.GetNumber("observed_rows", 0.0);
            out.violation.exact = event.payload.GetBool("exact", false);
            int flavor = static_cast<int>(event.payload.GetInt("flavor", 0));
            if (flavor < 0 ||
                flavor > static_cast<int>(CheckFlavor::kWorkBound)) {
              flavor = 0;
            }
            out.violation.flavor = static_cast<CheckFlavor>(flavor);
            out.violation.check_lo =
                event.payload.GetNumber("check_lo", 0.0);
            // Un-narrowed bounds ship as null; read them back as infinity.
            out.violation.check_hi = event.payload.GetNumber(
                "check_hi", std::numeric_limits<double>::infinity());
            break;
          }
          case net::ShardEvent::Kind::kDone: {
            const std::string wire =
                event.payload.GetString("status", "internal");
            const StatusCode code = net::StatusCodeFromWireName(wire);
            if (code != StatusCode::kOk) {
              out.status = Status(
                  code, event.payload.GetString("message",
                                                "shard subquery failed"));
            }
            out.outcome = event.payload.GetString("outcome", "");
            out.execute_ms = event.payload.GetNumber("execute_ms", 0.0);
            if (const JsonValue* profile = event.payload.Find("profile")) {
              out.has_profile = ProfileFromJson(*profile, &out.profile);
            }
            if (const JsonValue* obs = event.payload.Find("observations")) {
              for (const JsonValue& o : obs->items()) {
                EdgeObservation e;
                e.set = static_cast<TableSet>(o.GetInt("set", 0));
                e.rows = o.GetNumber("rows", 0.0);
                e.exact = o.GetBool("exact", false);
                out.observations.push_back(e);
              }
            }
            out.reported = true;
            streaming = false;
            clean = true;
            break;
          }
        }
      }
      if (clean) pool_.Release(shard, std::move(client));
    } else {
      out.status = started.status();
    }
  } else {
    out.status = acquired.status();
  }

  if (out.execute_ms <= 0.0) out.execute_ms = NowMs() - shard_start;

  std::lock_guard<std::mutex> lock(state->mu);
  const size_t i = static_cast<size_t>(shard);
  state->shards[i] = std::move(out);
  state->finished[i] = true;
  ++state->done;
  if (!state->shards[i].status.ok()) state->abort = true;
  state->cv.notify_all();
}

void Coordinator::CancelShards(ScatterState* state) {
  std::vector<std::pair<int, int64_t>> targets;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    for (int i = 0; i < num_shards(); ++i) {
      const size_t s = static_cast<size_t>(i);
      if (!state->finished[s] && state->query_ids[s] >= 0) {
        targets.emplace_back(i, state->query_ids[s]);
      }
    }
  }
  // The streaming connections are mid-subplan, so cancels ride fresh
  // control connections (server-side cancellation is by query id and works
  // from any session). Best effort: a dead shard simply fails to connect.
  net::ClientConnectOptions options = config_.connect;
  options.retry_refused = false;
  for (const auto& [shard, query_id] : targets) {
    const net::Endpoint& ep = pool_.endpoint(shard);
    Result<net::Client> control =
        net::Client::Connect(ep.host, ep.port, options);
    if (!control.ok()) continue;
    control.value().Cancel(query_id);
    control.value().Close();
  }
}

Result<std::vector<Row>> Coordinator::Execute(const QuerySpec& query,
                                              CancelToken* cancel,
                                              QueryFeedbackStore* store,
                                              ExecutionStats* stats,
                                              const DistQueryInfo& dist_info) {
  const double start_ms = NowMs();
  if (queries_total_ != nullptr) queries_total_->Increment();
  const int n = num_shards();
  if (n == 0) {
    return Status::InvalidArgument("coordinator has no shard endpoints");
  }
  const std::string trace_token =
      dist_info.trace_token.empty()
          ? "q" + std::to_string(dist_info.query_id)
          : dist_info.trace_token;
  TRACE_SPAN_NAMED(dist_span, "dist_execute", "dist");
  dist_span.SetLabel(std::string_view(trace_token));
  dist_span.SetArg("query_id", dist_info.query_id);

  Optimizer optimizer(catalog_, config_.optimizer);
  const CostModel cost_model(config_.optimizer.cost);
  FeedbackCache feedback;
  if (store != nullptr) store->Seed(query, &feedback);
  const TableSet mask = PartitionedMask(query, config_.partition);
  const int max_attempts = config_.pop.max_reopts + 1;
  // Cluster-level global re-optimization uses the same incremental path as
  // local POP: the DP memo survives across scatter-gather attempts, and a
  // shard-reported CHECK violation only invalidates the entries covering
  // the escaped edge.
  IncrementalMemo attempt_memo;
  IncrementalMemo* memo =
      config_.pop.incremental_reopt ? &attempt_memo : nullptr;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (cancel->Expired()) return CancelStatus(*cancel, query);

    // ---- Global optimization, split, per-shard scaling, checkpoints.
    SpanTracer& tracer = SpanTracer::Global();
    const double opt_start = NowMs();
    const int64_t opt_start_us = tracer.enabled() ? tracer.NowUs() : 0;
    AttemptInfo info;
    ValidityRangeAnalyzer analyzer(cost_model, config_.pop.validity);
    const FeedbackMap fmap = feedback.Snapshot();
    Result<OptimizedPlan> planned = optimizer.Optimize(
        query, fmap.empty() ? nullptr : &fmap, nullptr, &analyzer, memo);
    if (!planned.ok()) return planned.status();
    info.candidates = planned.value().candidates;
    if (stats != nullptr) {
      stats->memo_entries_reused += planned.value().memo_reused;
      stats->memo_entries_invalidated += planned.value().memo_invalidated;
    }

    Result<SplitPlan> split_result =
        SplitForShards(std::move(planned.value().root), query);
    if (!split_result.ok()) return split_result.status();
    SplitPlan split = std::move(split_result).TakeValue();
    ScalePlanForShard(split.fragment.get(), mask, n);
    const bool final_attempt = attempt == max_attempts - 1;
    if (!final_attempt) {
      // The fragment's cardinalities and validity ranges are already
      // scaled to one shard's share, so these CHECKs guard per-shard
      // cardinalities.
      info.checks = PlaceCheckpoints(&split.fragment, config_.pop,
                                     cost_model, query.pipelined());
    }
    info.plan_text = split.fragment->ToString();
    info.optimize_ms = NowMs() - opt_start;
    if (tracer.enabled()) {
      tracer.RecordSpan("dist_optimize", "dist", opt_start_us,
                        tracer.NowUs() - opt_start_us, "attempt", attempt,
                        tracer.Intern(trace_token));
    }

    // ---- One subplan payload, identical for every shard.
    JsonWriter w;
    w.BeginObject();
    w.Key("type");
    w.String("subplan");
    w.Key("query");
    AppendQuerySpecJson(query, &w);
    w.Key("plan");
    Status plan_status = AppendPlanJson(*split.fragment, &w);
    if (!plan_status.ok()) return plan_status;
    w.Key("batch_rows");
    w.Int(config_.batch_rows);
    w.Key("trace_token");
    w.String(trace_token);
    w.EndObject();
    const std::string payload = w.str();

    // ---- Scatter: one gather thread per shard; this thread polls for
    // cancellation and fans it out to every in-flight shard subquery.
    const double scatter_start = NowMs();
    const int64_t scatter_start_us = tracer.enabled() ? tracer.NowUs() : 0;
    ScatterState state;
    state.shards.resize(static_cast<size_t>(n));
    state.query_ids.assign(static_cast<size_t>(n), -1);
    state.finished.assign(static_cast<size_t>(n), false);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([this, i, &payload, &trace_token, &state] {
        GatherFromShard(i, payload, trace_token, &state);
      });
    }
    bool fanned_out = false;
    {
      std::unique_lock<std::mutex> lock(state.mu);
      while (state.done < n) {
        state.cv.wait_for(lock, std::chrono::duration<double, std::milli>(
                                    config_.poll_interval_ms));
        if (!fanned_out && (state.abort || cancel->Expired())) {
          fanned_out = true;
          lock.unlock();
          TRACE_INSTANT_TAGGED("cancel_survivors", "dist", trace_token,
                               "attempt", attempt);
          CancelShards(&state);
          lock.lock();
        }
      }
    }
    for (std::thread& t : threads) t.join();
    info.execute_ms = NowMs() - scatter_start;
    if (tracer.enabled()) {
      tracer.RecordSpan("dist_scatter", "dist", scatter_start_us,
                        tracer.NowUs() - scatter_start_us, "attempt", attempt,
                        tracer.Intern(trace_token));
    }
    if (scatter_latency_ != nullptr) {
      scatter_latency_->Observe(info.execute_ms);
    }
    if (shards_up_ != nullptr) shards_up_->Set(pool_.endpoints_up());

    // ---- Per-shard breakdown: metrics, AttemptInfo::shards, straggler lag.
    double fastest_ms = std::numeric_limits<double>::infinity();
    double slowest_ms = 0.0;
    int timed_shards = 0;
    for (int i = 0; i < n; ++i) {
      const ShardOutcome& shard = state.shards[static_cast<size_t>(i)];
      ShardAttemptInfo sai;
      sai.shard = i;
      sai.execute_ms = shard.execute_ms;
      sai.rows = static_cast<int64_t>(shard.rows.size());
      sai.outcome = shard.has_violation ? "reoptimize"
                    : !shard.outcome.empty()
                        ? shard.outcome
                        : (shard.status.ok() ? "ok" : "error");
      info.shards.push_back(std::move(sai));
      if (!shard_rows_total_.empty()) {
        shard_rows_total_[static_cast<size_t>(i)]->Increment(
            static_cast<int64_t>(shard.rows.size()));
        shard_latency_[static_cast<size_t>(i)]->Observe(shard.execute_ms);
      }
      if (shard.reported) {
        fastest_ms = std::min(fastest_ms, shard.execute_ms);
        slowest_ms = std::max(slowest_ms, shard.execute_ms);
        ++timed_shards;
      }
    }
    if (shard_lag_ != nullptr && timed_shards >= 2) {
      shard_lag_->Observe(slowest_ms - fastest_ms);
    }

    // ---- Distributed EXPLAIN ANALYZE: merge the per-shard profile
    // snapshots under a synthetic gather root — one aggregate subtree
    // (per-operator actuals summed across shards, so global Q-error is
    // visible) plus one subtree per shard.
    {
      std::vector<const PlanProfileNode*> shard_profiles;
      for (const ShardOutcome& shard : state.shards) {
        if (shard.has_profile) shard_profiles.push_back(&shard.profile);
      }
      if (!shard_profiles.empty()) {
        PlanProfileNode root;
        root.name = "GATHER";
        root.detail = "scatter-gather over " + std::to_string(n) + " shards";
        PlanProfileNode cluster;
        if (AggregateProfiles(shard_profiles, &cluster)) {
          PlanProfileNode agg;
          agg.name = "CLUSTER";
          agg.detail = "aggregate of " +
                       std::to_string(shard_profiles.size()) + " shards";
          agg.children.push_back(std::move(cluster));
          root.children.push_back(std::move(agg));
        }
        for (int i = 0; i < n; ++i) {
          const ShardOutcome& shard = state.shards[static_cast<size_t>(i)];
          if (!shard.has_profile) continue;
          const net::Endpoint& ep = pool_.endpoint(i);
          PlanProfileNode per_shard;
          per_shard.name = "SHARD";
          per_shard.detail = "shard " + std::to_string(i) + " @" + ep.host +
                             ":" + std::to_string(ep.port);
          per_shard.children.push_back(shard.profile);
          root.children.push_back(std::move(per_shard));
        }
        info.profile = std::move(root);
        info.has_profile = true;
      }
    }

    if (cancel->Expired()) {
      if (stats != nullptr) {
        stats->attempts.push_back(std::move(info));
        stats->total_ms = NowMs() - start_ms;
      }
      return CancelStatus(*cancel, query);
    }

    // ---- Aggregate per-shard observations into global cardinalities:
    // subplans touching partitioned tables sum across shards (exact only
    // when every shard reported exactly); replicated-only subplans see the
    // full data on every shard, so the max (exact if any) is global truth.
    // A shard may observe one set several times (a materializer's count
    // next to its plan edge, the failing CHECK's count); those describe
    // one shard-local cardinality, so each shard contributes one value per
    // set, its exact count if it has one and its largest lower bound
    // otherwise, as a local execution records them.
    struct SetAgg {
      double sum = 0.0;
      double max = 0.0;
      int shards = 0;
      bool all_exact = true;
      bool any_exact = false;
    };
    std::map<TableSet, SetAgg> aggregated;
    for (const ShardOutcome& shard : state.shards) {
      if (!shard.reported) continue;
      std::map<TableSet, EdgeObservation> per_set;
      for (const EdgeObservation& obs : shard.observations) {
        auto [it, inserted] = per_set.emplace(obs.set, obs);
        EdgeObservation& kept = it->second;
        if (inserted || kept.exact > obs.exact) continue;
        kept.rows = kept.exact == obs.exact ? std::max(kept.rows, obs.rows)
                                            : obs.rows;
        kept.exact = obs.exact;
      }
      for (const auto& [set, obs] : per_set) {
        SetAgg& a = aggregated[set];
        a.sum += obs.rows;
        a.max = std::max(a.max, obs.rows);
        ++a.shards;
        a.all_exact = a.all_exact && obs.exact;
        a.any_exact = a.any_exact || obs.exact;
      }
    }
    for (const auto& [set, a] : aggregated) {
      if ((set & mask) != 0) {
        if (a.all_exact && a.shards == n) {
          feedback.RecordExact(set, a.sum);
        } else {
          feedback.RecordLowerBound(set, a.sum);
        }
      } else {
        if (a.any_exact) {
          feedback.RecordExact(set, a.max);
        } else {
          feedback.RecordLowerBound(set, a.max);
        }
      }
    }

    // ---- Decide the round's outcome.
    int violating_shard = -1;
    Status shard_error;
    for (int i = 0; i < n; ++i) {
      const ShardOutcome& shard = state.shards[static_cast<size_t>(i)];
      if (shard.has_violation && violating_shard < 0) violating_shard = i;
      // Cancellations we caused ourselves are not errors.
      if (!shard.status.ok() &&
          shard.status.code() != StatusCode::kCancelled &&
          shard_error.ok()) {
        const net::Endpoint& ep = pool_.endpoint(i);
        shard_error = Status(
            shard.status.code(),
            "shard " + std::to_string(i) + " (" + ep.host + ":" +
                std::to_string(ep.port) + "): " + shard.status.message());
      }
    }

    if (violating_shard >= 0 && shard_error.ok() && !final_attempt) {
      // Cluster-level re-optimization: a shard CHECK left its validity
      // range. The attempt's rows are discarded (no compensation across
      // the wire); the harvested feedback redirects the next global plan.
      info.reoptimized = true;
      info.signal =
          state.shards[static_cast<size_t>(violating_shard)].violation;
      TRACE_INSTANT_TAGGED("check_violation", "dist", trace_token, "shard",
                           violating_shard);
      TRACE_INSTANT_TAGGED("global_reoptimize", "dist", trace_token,
                           "attempt", attempt);
      if (stats != nullptr) {
        ++stats->reopts;
        // Surface the shard CHECK in the service-side diagnostics (flavor
        // metrics, check history) exactly like a local CHECK firing.
        CheckEvent fired;
        fired.edge_set = info.signal.edge_set;
        fired.flavor = info.signal.flavor;
        fired.count = 1;
        fired.fired = true;
        stats->check_events.push_back(fired);
        stats->attempts.push_back(std::move(info));
      }
      if (reopts_total_ != nullptr) reopts_total_->Increment();
      continue;
    }

    if (!shard_error.ok()) {
      if (shard_errors_total_ != nullptr) shard_errors_total_->Increment();
      if (stats != nullptr) {
        stats->attempts.push_back(std::move(info));
        stats->total_ms = NowMs() - start_ms;
      }
      return shard_error;
    }
    if (violating_shard >= 0) {
      // Check-free final attempts cannot fire; a violation here means the
      // shard ran a plan we did not send.
      return Status::Internal("shard reported a CHECK violation on the "
                              "check-free final attempt");
    }

    // ---- Success: merge the shard streams and learn for the future.
    std::vector<std::vector<Row>> shard_rows;
    shard_rows.reserve(static_cast<size_t>(n));
    for (ShardOutcome& shard : state.shards) {
      shard_rows.push_back(std::move(shard.rows));
    }
    std::vector<Row> rows = GatherMerge(split.gather, std::move(shard_rows));
    info.rows_returned = static_cast<int64_t>(rows.size());
    if (store != nullptr && !feedback.empty()) {
      store->Absorb(query, feedback.Snapshot());
    }
    if (stats != nullptr) {
      stats->attempts.push_back(std::move(info));
      stats->total_ms = NowMs() - start_ms;
      stats->result_rows = static_cast<int64_t>(rows.size());
    }
    return rows;
  }
  return Status::Internal("distributed execution exhausted its attempts");
}

Result<std::string> Coordinator::ClusterTraceJson() {
  SpanTracer& tracer = SpanTracer::Global();
  std::vector<ProcessTrace> procs;
  procs.push_back({"coordinator", tracer.ExportChromeTrace(), 0});
  for (int i = 0; i < num_shards(); ++i) {
    Result<std::unique_ptr<net::Client>> acquired = pool_.Acquire(i);
    if (!acquired.ok()) continue;  // Dead shard: partial trace beats none.
    std::unique_ptr<net::Client> client = std::move(acquired).TakeValue();
    Result<net::ClientSpanDump> dump = client->Spans();
    if (!dump.ok()) continue;
    pool_.Release(i, std::move(client));
    const net::Endpoint& ep = pool_.endpoint(i);
    ProcessTrace proc;
    proc.name = "shard " + std::to_string(i) + " @" + ep.host + ":" +
                std::to_string(ep.port);
    proc.trace_json = std::move(dump.value().trace_json);
    // Rough clock alignment: shard tracer epochs differ from ours, so
    // shift each dump by the difference of the two "now" readings at
    // harvest time (network latency bounds the error).
    proc.ts_offset_us = tracer.NowUs() - dump.value().now_us;
    procs.push_back(std::move(proc));
  }
  return StitchChromeTrace(procs);
}

Result<std::string> Coordinator::FederatedMetricsText(
    const std::string& local_text) {
  std::vector<std::pair<std::string, std::string>> shard_texts;
  for (int i = 0; i < num_shards(); ++i) {
    Result<std::unique_ptr<net::Client>> acquired = pool_.Acquire(i);
    if (!acquired.ok()) continue;  // Dead shard: scrape what answers.
    std::unique_ptr<net::Client> client = std::move(acquired).TakeValue();
    Result<std::string> text = client->Metrics();
    if (!text.ok()) continue;
    pool_.Release(i, std::move(client));
    shard_texts.emplace_back(std::to_string(i), std::move(text).TakeValue());
  }
  return FederateMetricsText(local_text, shard_texts);
}

}  // namespace popdb::dist
