#include "tests/test_util.h"

#include <unordered_map>

#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "dmv/dmv_gen.h"
#include "dmv/dmv_queries.h"
#include "exec/agg.h"
#include "exec/expr.h"
#include "exec/layout.h"
#include "opt/optimizer.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace popdb::testing {

void BuildToyCatalog(Catalog* catalog, int64_t emp_rows, int64_t sale_rows) {
  Rng rng(7);
  {
    Table dept("dept", Schema({{"d_id", ValueType::kInt},
                               {"d_name", ValueType::kString},
                               {"d_region", ValueType::kInt}}));
    const char* names[8] = {"eng",   "sales", "hr",    "legal",
                            "mktg",  "ops",   "it",    "finance"};
    for (int64_t d = 0; d < 8; ++d) {
      dept.AppendRow({Value::Int(d), Value::String(names[d]),
                      Value::Int(d % 3)});
    }
    POPDB_DCHECK(catalog->AddTable(std::move(dept)).ok());
  }
  {
    Table emp("emp", Schema({{"e_id", ValueType::kInt},
                             {"e_dept", ValueType::kInt},
                             {"e_age", ValueType::kInt},
                             {"e_name", ValueType::kString}}));
    for (int64_t e = 0; e < emp_rows; ++e) {
      emp.AppendRow({Value::Int(e), Value::Int(rng.UniformInt(0, 7)),
                     Value::Int(rng.UniformInt(21, 65)),
                     Value::String("emp" + std::to_string(e))});
    }
    POPDB_DCHECK(catalog->AddTable(std::move(emp)).ok());
  }
  {
    Table sale("sale", Schema({{"s_emp", ValueType::kInt},
                               {"s_amount", ValueType::kDouble},
                               {"s_year", ValueType::kInt}}));
    for (int64_t s = 0; s < sale_rows; ++s) {
      sale.AppendRow({Value::Int(rng.UniformInt(0, emp_rows - 1)),
                      Value::Double(rng.UniformDouble() * 1000),
                      Value::Int(2015 + rng.UniformInt(0, 9))});
    }
    POPDB_DCHECK(catalog->AddTable(std::move(sale)).ok());
  }
  catalog->AnalyzeAll();
  POPDB_DCHECK(catalog->CreateIndex("dept", "d_id").ok());
  POPDB_DCHECK(catalog->CreateIndex("emp", "e_id").ok());
  POPDB_DCHECK(catalog->CreateIndex("emp", "e_dept").ok());
  POPDB_DCHECK(catalog->CreateIndex("sale", "s_emp").ok());
}

void BuildStarCatalog(Catalog* catalog) {
  Rng rng(4242);
  Table dim1("dim1", Schema({{"d1_id", ValueType::kInt},
                             {"d1_x", ValueType::kInt},
                             {"d1_name", ValueType::kString}}));
  for (int64_t i = 0; i < 60; ++i) {
    dim1.AppendRow({Value::Int(i), Value::Int(i % 6),
                    Value::String("dim" + std::to_string(i % 10))});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(dim1)).ok());
  Table dim2("dim2", Schema({{"d2_id", ValueType::kInt},
                             {"d2_y", ValueType::kInt}}));
  for (int64_t i = 0; i < 40; ++i) {
    dim2.AppendRow({Value::Int(i), Value::Int(i % 4)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(dim2)).ok());
  Table fact("fact", Schema({{"f_id", ValueType::kInt},
                             {"f_dim1", ValueType::kInt},
                             {"f_dim2", ValueType::kInt},
                             {"f_a", ValueType::kInt},
                             {"f_b", ValueType::kInt}}));
  for (int64_t i = 0; i < 1200; ++i) {
    const int64_t a = rng.UniformInt(0, 29);
    // f_b is determined by f_a 80% of the time: a correlation trap.
    const int64_t b =
        rng.Bernoulli(0.8) ? (a * 3) % 20 : rng.UniformInt(0, 19);
    fact.AppendRow({Value::Int(i), Value::Int(rng.UniformInt(0, 59)),
                    Value::Int(rng.UniformInt(0, 39)), Value::Int(a),
                    Value::Int(b)});
  }
  POPDB_DCHECK(catalog->AddTable(std::move(fact)).ok());
  catalog->AnalyzeAll();
  POPDB_DCHECK(catalog->CreateIndex("dim1", "d1_id").ok());
}

QuerySpec RandomStarQuery(Rng* rng) {
  QuerySpec q("fuzz");
  const int f = q.AddTable("fact");
  int d1 = -1, d2 = -1;
  if (rng->Bernoulli(0.7)) {
    d1 = q.AddTable("dim1");
    q.AddJoin({f, 1}, {d1, 0});
  }
  if (rng->Bernoulli(0.5)) {
    d2 = q.AddTable("dim2");
    q.AddJoin({f, 2}, {d2, 0});
  }
  // Random fact predicates, sometimes the correlated pair.
  const int64_t a = rng->UniformInt(0, 29);
  switch (rng->UniformInt(0, 3)) {
    case 0:
      q.AddPred({f, 3}, PredKind::kEq, Value::Int(a));
      break;
    case 1:  // Correlated pair: heavy underestimate.
      q.AddPred({f, 3}, PredKind::kEq, Value::Int(a));
      q.AddPred({f, 4}, PredKind::kEq, Value::Int((a * 3) % 20));
      break;
    case 2:
      q.AddPred({f, 3}, PredKind::kBetween, Value::Int(a / 2),
                Value::Int(a));
      break;
    default:
      if (rng->Bernoulli(0.5)) {
        q.AddParamPred({f, 3}, PredKind::kLt, 0);
        q.BindParam(Value::Int(rng->UniformInt(0, 30)));
      }
      break;
  }
  if (d1 >= 0 && rng->Bernoulli(0.5)) {
    switch (rng->UniformInt(0, 2)) {
      case 0:
        q.AddPred({d1, 1}, PredKind::kEq, Value::Int(rng->UniformInt(0, 5)));
        break;
      case 1:
        q.AddInPred({d1, 1}, {Value::Int(0), Value::Int(2)});
        break;
      default:
        q.AddPred({d1, 2}, PredKind::kLike, Value::String("dim1%"));
        break;
    }
  }
  if (d2 >= 0 && rng->Bernoulli(0.5)) {
    q.AddPred({d2, 1}, PredKind::kGe, Value::Int(rng->UniformInt(0, 3)));
  }
  // Output shape: aggregation or projection.
  if (rng->Bernoulli(0.5)) {
    q.AddGroupBy({f, 3});
    bool has_count = false;
    if (rng->Bernoulli(0.5)) {
      q.AddAgg(AggFunc::kCount);
      has_count = true;
    }
    q.AddAgg(AggFunc::kSum, {f, 4});  // Int column: exact in double.
    if (d1 >= 0 && rng->Bernoulli(0.3)) q.AddGroupBy({d1, 1});
    if (has_count && rng->Bernoulli(0.4)) {
      // HAVING COUNT(*) >= k over the first aggregate column.
      const int count_pos = static_cast<int>(q.group_by().size());
      q.AddHaving(count_pos, PredKind::kGe, Value::Int(rng->UniformInt(1, 4)));
    }
  } else {
    q.AddProjection({f, 0});
    if (d1 >= 0) q.AddProjection({d1, 2});
    if (rng->Bernoulli(0.3)) q.AddProjection({f, 4});
    if (rng->Bernoulli(0.3)) q.SetDistinct(true);
  }
  return q;
}

OptimizerConfig RandomOptimizerConfig(Rng* rng) {
  OptimizerConfig opt;
  opt.methods.enable_nljn = rng->Bernoulli(0.9);
  opt.methods.enable_hsjn = rng->Bernoulli(0.9);
  opt.methods.enable_mgjn = rng->Bernoulli(0.9);
  if (!opt.methods.enable_nljn && !opt.methods.enable_hsjn &&
      !opt.methods.enable_mgjn) {
    opt.methods.enable_hsjn = true;
  }
  if (rng->Bernoulli(0.3)) opt.cost.mem_rows = 64;  // Spill everywhere.
  return opt;
}

PopConfig RandomPopConfig(Rng* rng) {
  PopConfig pop;
  pop.enable_lc = rng->Bernoulli(0.7);
  pop.enable_lcem = rng->Bernoulli(0.7);
  pop.enable_ecb = rng->Bernoulli(0.3);
  pop.enable_ecwc = rng->Bernoulli(0.2);
  pop.enable_ecdc = rng->Bernoulli(0.3);
  pop.require_narrowed_range = rng->Bernoulli(0.8);
  pop.max_reopts = static_cast<int>(rng->UniformInt(0, 3));
  pop.reuse_matviews = rng->Bernoulli(0.8);
  pop.reuse_hsjn_builds = rng->Bernoulli(0.3);
  if (rng->Bernoulli(0.3)) pop.work_bound_factor = 2.0;
  if (rng->Bernoulli(0.2)) pop.min_assumptions_for_checks = 1;
  return pop;
}

Status BuildEngineCorpus(double dmv_scale, EngineCorpus* c) {
  tpch::GenConfig tpch_gen;
  tpch_gen.scale = 0.002;
  Status s = tpch::BuildCatalog(tpch_gen, &c->tpch);
  if (!s.ok()) return s;
  dmv::GenConfig dmv_gen;
  dmv_gen.scale = dmv_scale;
  s = dmv::BuildCatalog(dmv_gen, &c->dmv);
  if (!s.ok()) return s;

  tpch::QueryOptions marked;
  marked.param_markers = true;
  for (int qnum : tpch::PaperQueries()) {
    const std::string label = "tpch/q" + std::to_string(qnum);
    c->queries.push_back({label, &c->tpch, tpch::MakeQuery(qnum)});
    c->queries.push_back(
        {label + "m", &c->tpch, tpch::MakeQuery(qnum, marked)});
  }
  for (int sel : {1, 10, 50, 90}) {
    c->queries.push_back({"tpch/q10m_sel" + std::to_string(sel), &c->tpch,
                          tpch::MakeQ10Selectivity(sel, /*use_marker=*/true)});
  }
  for (QuerySpec& q : dmv::MakeWorkload(dmv::WorkloadConfig{})) {
    c->queries.push_back({"dmv/" + q.name(), &c->dmv, std::move(q)});
  }
  return Status::Ok();
}

LoopbackShard::~LoopbackShard() {
  if (server != nullptr) server->Shutdown();
  if (service != nullptr) service->Shutdown(/*drain=*/false);
}

Status LoopbackCluster::Start(const Catalog& full,
                              const dist::PartitionSpec& spec,
                              const LoopbackClusterOptions& options) {
  shards.clear();
  coordinator.reset();
  Result<std::vector<dist::KeyRange>> ranges =
      dist::ComputeRanges(full, spec, options.num_shards);
  if (!ranges.ok()) return ranges.status();
  std::vector<net::Endpoint> endpoints;
  for (int s = 0; s < options.num_shards; ++s) {
    auto shard = std::make_unique<LoopbackShard>();
    Status built = dist::BuildShardCatalog(full, spec, ranges.value(), s,
                                           /*histogram_buckets=*/32,
                                           &shard->catalog);
    if (!built.ok()) return built;
    ServiceConfig service_config;
    service_config.num_workers = 1;
    service_config.share_feedback = true;
    service_config.trace_sink = &shard->traces;
    shard->service =
        std::make_unique<QueryService>(shard->catalog, service_config);
    dist::ShardExecutorConfig executor_config;
    executor_config.exec_batch_rows = options.exec_batch_rows;
    shard->executor =
        std::make_unique<dist::ShardExecutor>(shard->catalog, executor_config);
    net::NetServerConfig net_config;
    net_config.host = "127.0.0.1";
    net_config.port = 0;
    net_config.subplan_backend = shard->executor.get();
    net_config.subplan_stall_ms = options.stall_ms;
    shard->server = std::make_unique<net::NetServer>(
        shard->service.get(), &shard->traces, net_config);
    Status started = shard->server->Start();
    if (!started.ok()) return started;
    endpoints.push_back({"127.0.0.1", shard->server->port()});
    shards.push_back(std::move(shard));
  }
  dist::CoordinatorConfig config;
  config.shards = endpoints;
  config.partition = spec;
  config.pop = options.pop;
  coordinator = std::make_unique<dist::Coordinator>(full, config);
  return Status::Ok();
}

namespace {

/// One level of the reference join: the table it binds, that table's rows
/// passing its local predicates and, when a join predicate links the table
/// to one bound at an earlier level, those rows keyed on its side of it.
struct RefLevel {
  int table_id = 0;
  std::vector<const Row*> rows;
  int probe_pos = -1;  ///< Layout position of the earlier side; -1 = none.
  std::unordered_map<Value, std::vector<const Row*>, ValueHash> by_key;
  /// Join predicates whose later-bound side is this table.
  std::vector<const JoinPredicate*> checks;
};

struct RefContext {
  RowLayout layout;
  std::vector<RefLevel> levels;
  std::vector<Row> joined;
};

/// Backtracking nested-loop join over the levels: binds one table per
/// level (probing its keyed rows when it has an earlier join partner) and
/// applies every join predicate as soon as both sides are bound.
void Enumerate(RefContext* ctx, size_t level, Row* partial) {
  if (level == ctx->levels.size()) {
    ctx->joined.push_back(*partial);
    return;
  }
  const RefLevel& l = ctx->levels[level];
  const std::vector<const Row*>* candidates = &l.rows;
  if (l.probe_pos >= 0) {
    const auto it =
        l.by_key.find((*partial)[static_cast<size_t>(l.probe_pos)]);
    if (it == l.by_key.end()) return;
    candidates = &it->second;
  }
  const int base = ctx->layout.Resolve(ColRef{l.table_id, 0});
  for (const Row* row : *candidates) {
    for (size_t c = 0; c < row->size(); ++c) {
      (*partial)[static_cast<size_t>(base) + c] = (*row)[c];
    }
    bool pass = true;
    for (const JoinPredicate* jp : l.checks) {
      if ((*partial)[static_cast<size_t>(ctx->layout.Resolve(jp->left))] !=
          (*partial)[static_cast<size_t>(ctx->layout.Resolve(jp->right))]) {
        pass = false;
        break;
      }
    }
    if (pass) Enumerate(ctx, level + 1, partial);
  }
}

/// Orders the join greedily, smallest filtered table first, then always a
/// table joined to the bound ones when there is one (smallest first).
void PlanReference(const Catalog& catalog, const QuerySpec& query,
                   RefContext* ctx) {
  const int n = query.num_tables();
  std::vector<RefLevel> tables(static_cast<size_t>(n));
  std::vector<std::vector<ResolvedPredicate>> local(static_cast<size_t>(n));
  for (const Predicate& p : query.local_preds()) {
    local[static_cast<size_t>(p.col.table_id)].push_back(
        ResolvePredicate(p, p.col.column, query.params()));
  }
  for (int t = 0; t < n; ++t) {
    RefLevel& l = tables[static_cast<size_t>(t)];
    l.table_id = t;
    const Table* table = catalog.GetTable(query.table_name(t));
    for (int64_t r = 0; r < table->num_rows(); ++r) {
      const Row& row = table->row(r);
      bool pass = true;
      for (const ResolvedPredicate& p : local[static_cast<size_t>(t)]) {
        if (!EvalPredicate(p, row)) {
          pass = false;
          break;
        }
      }
      if (pass) l.rows.push_back(&row);
    }
  }
  std::vector<bool> bound(static_cast<size_t>(n), false);
  for (int level = 0; level < n; ++level) {
    int pick = -1;
    bool pick_joined = false;
    for (int t = 0; t < n; ++t) {
      if (bound[static_cast<size_t>(t)]) continue;
      bool joined = false;
      for (const JoinPredicate& jp : query.join_preds()) {
        const int other = jp.left.table_id == t    ? jp.right.table_id
                          : jp.right.table_id == t ? jp.left.table_id
                                                   : -1;
        if (other >= 0 && other != t && bound[static_cast<size_t>(other)]) {
          joined = true;
        }
      }
      const size_t size = tables[static_cast<size_t>(t)].rows.size();
      if (pick < 0 || (joined && !pick_joined) ||
          (joined == pick_joined &&
           size < tables[static_cast<size_t>(pick)].rows.size())) {
        pick = t;
        pick_joined = joined;
      }
    }
    bound[static_cast<size_t>(pick)] = true;
    RefLevel& l = tables[static_cast<size_t>(pick)];
    for (const JoinPredicate& jp : query.join_preds()) {
      const int lt = jp.left.table_id;
      const int rt = jp.right.table_id;
      if (lt != pick && rt != pick) continue;
      if (!bound[static_cast<size_t>(lt)] || !bound[static_cast<size_t>(rt)]) {
        continue;
      }
      l.checks.push_back(&jp);
      if (l.probe_pos >= 0 || lt == rt) continue;
      const ColRef& own = lt == pick ? jp.left : jp.right;
      const ColRef& other = lt == pick ? jp.right : jp.left;
      l.probe_pos = ctx->layout.Resolve(other);
      for (const Row* row : l.rows) {
        l.by_key[(*row)[static_cast<size_t>(own.column)]].push_back(row);
      }
    }
    ctx->levels.push_back(std::move(l));
  }
}

}  // namespace

std::vector<Row> ReferenceExecute(const Catalog& catalog,
                                  const QuerySpec& query) {
  RefContext ctx;
  // Whole rows: the reference carries every column of every table.
  TableColumns every;
  for (int width : QueryTableWidths(catalog, query)) {
    every.push_back(AllColumns(width));
  }
  ctx.layout = RowLayout(query.AllTables(), every);
  PlanReference(catalog, query, &ctx);
  Row partial(static_cast<size_t>(ctx.layout.width()));
  Enumerate(&ctx, 0, &partial);

  auto finalize = [&query](std::vector<Row> rows) {
    // HAVING over the output row.
    if (!query.having().empty()) {
      std::vector<Row> kept;
      for (Row& row : rows) {
        bool pass = true;
        for (const QuerySpec::HavingPred& h : query.having()) {
          ResolvedPredicate rp;
          rp.pos = h.output_pos;
          rp.kind = h.kind;
          rp.operand = h.operand;
          rp.operand2 = h.operand2;
          if (!EvalPredicate(rp, row)) {
            pass = false;
            break;
          }
        }
        if (pass) kept.push_back(std::move(row));
      }
      rows = std::move(kept);
    }
    if (query.distinct() && !query.has_aggregation()) {
      std::unordered_map<Row, bool, RowHash> seen;
      std::vector<Row> unique;
      for (Row& row : rows) {
        if (seen.emplace(row, true).second) unique.push_back(std::move(row));
      }
      rows = std::move(unique);
    }
    // LIMIT cannot be applied deterministically here without a total
    // order; callers using LIMIT compare sizes instead.
    return rows;
  };

  if (!query.has_aggregation()) {
    if (query.projections().empty()) return finalize(ctx.joined);
    std::vector<Row> projected;
    projected.reserve(ctx.joined.size());
    for (const Row& row : ctx.joined) {
      Row out;
      for (const ColRef& c : query.projections()) {
        out.push_back(row[static_cast<size_t>(ctx.layout.Resolve(c))]);
      }
      projected.push_back(std::move(out));
    }
    return finalize(projected);
  }

  // Aggregation (mirrors HashAggOp semantics).
  struct AggState {
    int64_t count = 0;
    double sum = 0;
    Value min, max;
  };
  std::unordered_map<Row, std::vector<AggState>, RowHash> groups;
  for (const Row& row : ctx.joined) {
    Row key;
    for (const ColRef& c : query.group_by()) {
      key.push_back(row[static_cast<size_t>(ctx.layout.Resolve(c))]);
    }
    auto& states = groups[key];
    if (states.empty()) states.resize(query.aggs().size());
    for (size_t a = 0; a < query.aggs().size(); ++a) {
      AggState& st = states[a];
      ++st.count;
      if (query.aggs()[a].func == AggFunc::kCount) continue;
      const Value& v =
          row[static_cast<size_t>(ctx.layout.Resolve(query.aggs()[a].arg))];
      if (v.is_null()) continue;
      st.sum += v.AsNumeric();
      if (st.min.is_null() || v < st.min) st.min = v;
      if (st.max.is_null() || v > st.max) st.max = v;
    }
  }
  std::vector<Row> out;
  for (auto& [key, states] : groups) {
    Row row = key;
    for (size_t a = 0; a < query.aggs().size(); ++a) {
      switch (query.aggs()[a].func) {
        case AggFunc::kCount:
          row.push_back(Value::Int(states[a].count));
          break;
        case AggFunc::kSum:
          row.push_back(Value::Double(states[a].sum));
          break;
        case AggFunc::kAvg:
          row.push_back(Value::Double(
              states[a].count == 0
                  ? 0.0
                  : states[a].sum / static_cast<double>(states[a].count)));
          break;
        case AggFunc::kMin:
          row.push_back(states[a].min);
          break;
        case AggFunc::kMax:
          row.push_back(states[a].max);
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return finalize(out);
}

std::vector<std::string> Canonicalize(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

void AppendKeys(const JsonValue& v, const std::string& prefix,
                std::string* out) {
  if (v.kind() == JsonValue::Kind::kArray) {
    for (const JsonValue& item : v.items()) {
      AppendKeys(item, prefix + "[]", out);
    }
    return;
  }
  if (v.kind() != JsonValue::Kind::kObject) return;
  for (const auto& [key, member] : v.members()) {
    const std::string name = prefix.empty() ? key : prefix + "." + key;
    if (!out->empty()) *out += ',';
    *out += name;
    if (key != "profile") AppendKeys(member, name, out);
  }
}

std::string KeySequence(const JsonValue& v) {
  std::string keys;
  AppendKeys(v, "", &keys);
  return keys;
}

}  // namespace

std::string JsonKeySequence(const std::string& json) {
  Result<JsonValue> parsed = JsonParse(json);
  return parsed.ok() ? KeySequence(parsed.value()) : std::string();
}

std::string LogEntryKeySequence(const std::string& entries,
                                int64_t query_id) {
  Result<JsonValue> parsed = JsonParse(entries);
  if (!parsed.ok() || parsed.value().kind() != JsonValue::Kind::kArray) {
    return std::string();
  }
  for (const JsonValue& entry : parsed.value().items()) {
    if (entry.GetInt("query_id", -1) == query_id) return KeySequence(entry);
  }
  return std::string();
}

}  // namespace popdb::testing
