// One differential oracle over a crossed configuration lattice:
// batch_rows {1, 3, 1024, seeded random} x plan cache x incremental memo x
// shards {0, 2} x writer. Each configuration is one persistent world
// (feedback stores, plan caches, loopback clusters) that replays the corpus
// for kPasses passes: the TPC-H paper queries plain and with markers, the
// marker Q10 sweep, the DMV workload (scale 0.2) plain and under the
// Fig. 14 observe-only ECB configuration, and random star queries under
// random optimizer and POP configurations.
//
// Run i of a world must equal run i of the baseline world (batch 1,
// everything else off) in status, canonical rows, re-opts, plan texts per
// attempt, checkpoint placements, CHECK events (with the work at which each
// checkpoint saw its first row) and learned feedback, and in work units
// between unsharded worlds. A sharded world scatters what its coordinator
// accepts (default configurations over the TPC-H and DMV partition specs),
// so it compares rows with the baseline and the rest with the sharded
// baseline. The baseline's rows equal the brute-force
// reference. With the writer on, a thread churns a side table no query
// reads past the stats-fold threshold during the second pass, moving the
// stats versions and evicting cached plans while queries run. Every world
// also asserts that it exercised its axes.
//
// DifferentialSample runs eight configurations covering every pair of
// axis values (the fast entry); DifferentialLattice runs all 64 (slow).

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/pop.h"
#include "tests/test_util.h"
#include "txn/write_manager.h"

namespace popdb {
namespace {

constexpr int kPasses = 3;
constexpr int kFuzzQueries = 128;
constexpr int kEcdcQueries = 64;
constexpr const char* kSideTable = "churn";  // No corpus query reads it.
constexpr int64_t kSideRows = 64;

enum Axis { kBatch, kCache, kMemo, kShards, kWriter, kAxes };
constexpr int kAxisValues[kAxes] = {4, 2, 2, 2, 2};
const int64_t kBatchRows[4] = {1, 3, kDefaultBatchRows,
                               testing::kRandomBatchRows};

/// One lattice point: the value index of every axis.
struct Config {
  std::array<int, kAxes> v{};
  bool on(Axis a) const { return v[a] != 0; }
  int64_t batch_rows() const { return kBatchRows[v[kBatch]]; }
  bool operator==(const Config&) const = default;
};

std::string Name(const Config& c) {
  const auto onoff = [&](Axis a) { return c.on(a) ? "on" : "off"; };
  return StrFormat("batch_rows=%lld cache=%s memo=%s shards=%d writer=%s",
                   static_cast<long long>(c.batch_rows()), onoff(kCache),
                   onoff(kMemo), c.on(kShards) ? 2 : 0, onoff(kWriter));
}

const Config kBaseline{};
const Config kShardedBaseline{{0, 0, 0, 1, 0}};

/// For each batch size a configuration and its complement on the four
/// binary axes, chosen so no two binary axes are always equal or always
/// opposite: that covers all 56 pairs of axis values. The first is the
/// baseline.
const std::vector<Config> kSample = {
    {{0, 0, 0, 0, 0}}, {{0, 1, 1, 1, 1}}, {{1, 1, 1, 0, 1}},
    {{1, 0, 0, 1, 0}}, {{2, 0, 1, 0, 1}}, {{2, 1, 0, 1, 0}},
    {{3, 1, 0, 1, 1}}, {{3, 0, 1, 0, 0}},
};

std::vector<Config> Lattice() {
  std::vector<Config> all(64);
  for (int i = 0; i < 64; ++i) {
    all[i].v = {i & 3, (i >> 2) & 1, (i >> 3) & 1, (i >> 4) & 1,
                (i >> 5) & 1};
  }
  return all;
}

// -------------------------------------------------------------- Corpus.

struct Entry {
  std::string label;
  QuerySpec query{""};
  OptimizerConfig opt;
  PopConfig pop;
  /// Default configurations, so a sharded world may scatter it.
  bool scatterable = false;
  std::vector<std::string> reference;  // Canonical brute-force result.
};

struct Group {
  Catalog* catalog = nullptr;
  std::optional<dist::PartitionSpec> spec;  // None: never sharded.
  std::vector<Entry> entries;
};

struct Corpus {
  testing::EngineCorpus engine;
  Catalog star;
  std::vector<Group> groups;
};

const Corpus& GetCorpus() {
  static const Corpus* corpus = [] {
    auto* c = new Corpus();
    POPDB_DCHECK(testing::BuildEngineCorpus(/*dmv_scale=*/0.2, &c->engine)
                     .ok());
    testing::BuildStarCatalog(&c->star);
    c->groups.resize(3);
    c->groups[0].catalog = &c->engine.tpch;
    c->groups[0].spec = dist::TpchPartitionSpec();
    c->groups[1].catalog = &c->engine.dmv;
    c->groups[1].spec = dist::DmvPartitionSpec();
    c->groups[2].catalog = &c->star;
    for (Group& g : c->groups) {
      Table side(kSideTable,
                 Schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}}));
      for (int64_t i = 0; i < kSideRows; ++i) {
        side.AppendRow({Value::Int(i), Value::Int(i % 7)});
      }
      POPDB_DCHECK(g.catalog->AddTable(std::move(side)).ok());
      POPDB_DCHECK(g.catalog->AnalyzeTable(kSideTable).ok());
    }
    for (const testing::CorpusQuery& q : c->engine.queries) {
      Entry e;
      e.label = q.label;
      e.query = q.query;
      e.scatterable = true;
      e.reference = testing::Canonicalize(
          testing::ReferenceExecute(*q.catalog, q.query));
      c->groups[q.catalog == &c->engine.tpch ? 0 : 1].entries.push_back(e);
    }
    // Every TPC-H and DMV entry again under the enforcing configurations
    // of the golden table: ECB at every placement site, and a work bound
    // at 1.5x the plan's estimated cost; for DMV also Fig. 14: ECB at
    // every placement site, observed, never enforced.
    for (Group* g : {&c->groups[0], &c->groups[1]}) {
      const size_t n = g->entries.size();
      const auto add = [&](const char* suffix, auto configure) {
        for (size_t i = 0; i < n; ++i) {
          Entry e = g->entries[i];
          e.label += suffix;
          configure(&e.pop);
          e.scatterable = false;
          g->entries.push_back(std::move(e));
        }
      };
      add("@ecb", [](PopConfig* pop) { pop->enable_ecb = true; });
      add("@workbound", [](PopConfig* pop) { pop->work_bound_factor = 1.5; });
      if (g != &c->groups[1]) continue;
      add("@fig14", [](PopConfig* pop) {
        pop->enable_ecb = true;
        pop->observe_only = true;
        pop->require_narrowed_range = false;
      });
    }
    // SPJ star queries under pipelined ECDC CHECKs, which no TPC-H or DMV
    // query gets (they all aggregate): a CHECK firing over a hash join
    // whose probe rows match several build rows hands the rows past the
    // violation back through the join to its probe scan.
    Rng ecdc_rng(0xecdc);
    for (int i = 0; i < kEcdcQueries;) {
      Entry e;
      e.query = testing::RandomStarQuery(&ecdc_rng);
      e.opt = testing::RandomOptimizerConfig(&ecdc_rng);
      e.pop.enable_lc = ecdc_rng.Bernoulli(0.5);
      e.pop.enable_lcem = false;
      e.pop.enable_ecdc = true;
      if (ecdc_rng.Bernoulli(0.3)) e.pop.work_bound_factor = 1.5;
      if (e.query.has_aggregation()) continue;
      e.label = "ecdc/" + std::to_string(i++);
      e.reference = testing::Canonicalize(
          testing::ReferenceExecute(c->star, e.query));
      c->groups[2].entries.push_back(std::move(e));
    }
    Rng rng(0xf022);
    for (int i = 0; i < kFuzzQueries; ++i) {
      Entry e;
      e.label = "fuzz/" + std::to_string(i);
      e.query = testing::RandomStarQuery(&rng);
      e.opt = testing::RandomOptimizerConfig(&rng);
      e.pop = testing::RandomPopConfig(&rng);
      e.reference = testing::Canonicalize(
          testing::ReferenceExecute(c->star, e.query));
      c->groups[2].entries.push_back(std::move(e));
    }
    return c;
  }();
  return *corpus;
}

// ------------------------------------------------------------- Outcome.

struct Outcome {
  std::string status;
  std::vector<std::string> rows;  // Canonicalized.
  int reopts = 0;
  std::vector<std::string> plans;  // Per attempt.
  /// Per attempt: (lc, lcem, ecb, ecwc, ecdc, work bound) placed.
  std::vector<std::tuple<int, int, int, int, int, int>> placements;
  /// Per evaluation: (edge set, flavor, site, work at the first row,
  /// count, fired).
  std::vector<std::tuple<TableSet, int, int, int64_t, int64_t, bool>> checks;
  /// The world's learned feedback after the run: (exact, lower bound).
  std::map<std::string, std::pair<double, double>> learned;
  int64_t work = 0;
};

/// How `actual` differs from `expected`: status and rows, unless
/// `rows_only` everything else too, and work units if `with_work`.
std::string Diff(const Outcome& expected, const Outcome& actual,
                 bool rows_only, bool with_work) {
  std::string out;
  const auto field = [&](bool same, const std::string& what) {
    if (!same) out += "\n  " + what;
  };
  field(expected.status == actual.status,
        "status: " + expected.status + " vs " + actual.status);
  field(expected.rows == actual.rows,
        StrFormat("rows differ (%zu vs %zu)", expected.rows.size(),
                  actual.rows.size()));
  if (rows_only) return out;
  field(expected.reopts == actual.reopts,
        StrFormat("re-opts: %d vs %d", expected.reopts, actual.reopts));
  field(expected.plans.size() == actual.plans.size(),
        StrFormat("attempts: %zu vs %zu", expected.plans.size(),
                  actual.plans.size()));
  for (size_t i = 0;
       i < std::min(expected.plans.size(), actual.plans.size()); ++i) {
    if (expected.plans[i] == actual.plans[i]) continue;
    field(false, StrFormat("attempt %zu plans differ:\n", i) +
                     expected.plans[i] + "  vs\n" + actual.plans[i]);
    break;
  }
  field(expected.placements == actual.placements,
        "checkpoint placements differ");
  field(expected.checks == actual.checks, "CHECK events differ");
  for (const auto& [sig, fb] : expected.learned) {
    const auto it = actual.learned.find(sig);
    if (it != actual.learned.end() && it->second == fb) continue;
    field(false, StrFormat("learned feedback differs first at %s: %g/%g",
                           sig.c_str(), fb.first, fb.second));
    break;
  }
  field(expected.learned.size() == actual.learned.size(),
        "learned feedback differs in size");
  field(!with_work || expected.work == actual.work,
        StrFormat("work: %lld vs %lld", static_cast<long long>(expected.work),
                  static_cast<long long>(actual.work)));
  return out;
}

// --------------------------------------------------------------- World.

/// One configuration's persistent state and what its replay exercised.
class World {
 public:
  explicit World(const Config& config)
      : config_(config), groups_(GetCorpus().groups.size()) {
    for (size_t g = 0; g < groups_.size(); ++g) {
      const Group& group = GetCorpus().groups[g];
      if (config.on(kCache)) groups_[g].cache = std::make_unique<PlanCache>();
      if (config.on(kWriter)) {
        groups_[g].writes =
            std::make_unique<txn::WriteManager>(group.catalog);
      }
      if (!config.on(kShards) || !group.spec) continue;
      testing::LoopbackClusterOptions options;
      options.exec_batch_rows = config.batch_rows();
      options.pop.incremental_reopt = config.on(kMemo);
      const Status s =
          groups_[g].cluster.Start(*group.catalog, *group.spec, options);
      EXPECT_TRUE(s.ok()) << Name(config) << ": " << s.ToString();
    }
  }

  /// The outcome of every run: pass-major, then group, then entry.
  std::vector<Outcome> Replay() {
    std::vector<int64_t> versions;
    for (const Group& g : GetCorpus().groups) {
      versions.push_back(g.catalog->stats_version());
    }
    std::vector<Outcome> outcomes;
    for (int pass = 0; pass < kPasses; ++pass) {
      std::thread writer;
      if (config_.on(kWriter) && pass == 1) {
        writer = std::thread([this] { Churn(); });
      }
      for (size_t g = 0; g < groups_.size(); ++g) {
        for (const Entry& e : GetCorpus().groups[g].entries) {
          outcomes.push_back(Run(g, e));
        }
      }
      if (writer.joinable()) writer.join();
    }
    for (size_t g = 0; g < groups_.size(); ++g) {
      if (GetCorpus().groups[g].catalog->stats_version() != versions[g]) {
        ++version_moves_;
      }
      if (groups_[g].cache == nullptr) continue;
      const PlanCache::Stats s = groups_[g].cache->stats();
      hits_ += s.hits;
      near_misses_ += s.near_misses;
      stale_stats_evictions_ += s.evictions_stale_stats;
    }
    return outcomes;
  }

  /// Asserts that the replay exercised the axes the configuration turns on.
  void ExpectExercised() const {
    const std::string name = Name(config_);
    if (config_.on(kCache)) {
      EXPECT_GT(hits_, 0) << name << ": the plan cache never hit";
      EXPECT_GT(near_misses_, 0) << name << ": no lookup near-missed";
      if (config_.on(kMemo)) {
        EXPECT_GT(warm_starts_, 0) << name << ": no memo warm start";
      }
    }
    if (config_.on(kMemo) && reopts_ > 0) {
      EXPECT_GT(memo_reused_, 0) << name << ": the memo was never reused";
    }
    if (config_.on(kShards)) {
      EXPECT_GT(scattered_, 0) << name << ": no query was scattered";
      EXPECT_GT(cluster_reopts_, 0) << name << ": no cluster re-opt";
    }
    if (config_.on(kWriter)) {
      EXPECT_EQ(static_cast<int64_t>(groups_.size()), version_moves_)
          << name << ": a stats version never moved";
      if (config_.on(kCache)) {
        EXPECT_GT(stale_stats_evictions_, 0)
            << name << ": no stale-stats eviction";
      }
    }
  }

 private:
  struct GroupState {
    QueryFeedbackStore store;
    std::unique_ptr<PlanCache> cache;
    std::unique_ptr<txn::WriteManager> writes;
    testing::LoopbackCluster cluster;
  };

  /// Three rounds of inserting and deleting kSideRows / 2 side-table rows
  /// per catalog; each statement folds the side table's statistics.
  void Churn() {
    for (int round = 0; round < 3; ++round) {
      for (GroupState& g : groups_) {
        txn::WriteStatement insert;
        insert.table = kSideTable;
        for (int64_t i = 0; i < kSideRows / 2; ++i) {
          insert.rows.push_back({Value::Int(kSideRows + i), Value::Int(i)});
        }
        txn::WriteStatement remove;
        remove.op = txn::WriteOp::kDelete;
        remove.table = kSideTable;
        remove.where.push_back(
            {0, PredKind::kGe, Value::Int(kSideRows), Value(), {}});
        EXPECT_TRUE(g.writes->Apply(insert).ok());
        EXPECT_TRUE(g.writes->Apply(remove).ok());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Outcome Run(size_t g, const Entry& e) {
    GroupState& state = groups_[g];
    ExecutionStats stats;
    Result<std::vector<Row>> rows = Status::Internal("not run");
    dist::Coordinator* coordinator = state.cluster.coordinator.get();
    if (coordinator != nullptr && e.scatterable &&
        coordinator->CanExecute(e.query)) {
      CancelToken cancel;
      rows = coordinator->Execute(e.query, &cancel, &state.store, &stats);
      ++scattered_;
      if (stats.reopts > 0) ++cluster_reopts_;
    } else {
      PopConfig pop = e.pop;
      pop.incremental_reopt = config_.on(kMemo);
      ProgressiveExecutor exec(*GetCorpus().groups[g].catalog, e.opt, pop);
      exec.set_cross_query_store(&state.store);
      exec.set_plan_cache(state.cache.get());
      exec.set_batch_rows(config_.batch_rows());
      rows = exec.Execute(e.query, &stats);
    }
    reopts_ += stats.reopts;
    memo_reused_ += stats.memo_entries_reused;
    warm_starts_ += stats.memo_warm_starts;

    Outcome o;
    o.status = rows.ok() ? "OK" : rows.status().ToString();
    if (rows.ok()) o.rows = testing::Canonicalize(rows.value());
    o.reopts = stats.reopts;
    for (const AttemptInfo& a : stats.attempts) {
      o.plans.push_back(a.plan_text);
      o.placements.emplace_back(a.checks.lc, a.checks.lcem, a.checks.ecb,
                                a.checks.ecwc, a.checks.ecdc,
                                a.checks.work_bound);
    }
    for (const CheckEvent& ev : stats.check_events) {
      o.checks.emplace_back(ev.edge_set, static_cast<int>(ev.flavor),
                            static_cast<int>(ev.site), ev.work_first,
                            ev.count, ev.fired);
    }
    for (const auto& [sig, fb] : state.store.Dump()) {
      o.learned.emplace(sig, std::make_pair(fb.exact, fb.lower_bound));
    }
    o.work = stats.total_work;
    return o;
  }

  Config config_;
  std::vector<GroupState> groups_;
  int64_t reopts_ = 0, memo_reused_ = 0, warm_starts_ = 0;
  int64_t scattered_ = 0, cluster_reopts_ = 0, version_moves_ = 0;
  int64_t hits_ = 0, near_misses_ = 0, stale_stats_evictions_ = 0;
};

/// Replays `config` and checks that it exercised its axes.
std::vector<Outcome> Replay(const Config& config) {
  World world(config);
  std::vector<Outcome> runs = world.Replay();
  world.ExpectExercised();
  return runs;
}

/// Compares every run of `configs` with the baselines, reporting at most
/// ten differing runs per configuration.
void ExpectMatchesBaselines(const std::vector<Config>& configs) {
  std::vector<std::string> labels;
  std::vector<const Entry*> entries;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const Group& g : GetCorpus().groups) {
      for (const Entry& e : g.entries) {
        labels.push_back(e.label + " pass=" + std::to_string(pass));
        entries.push_back(&e);
      }
    }
  }
  static const std::vector<Outcome> base = Replay(kBaseline);
  static std::optional<std::vector<Outcome>> sharded;  // Replayed on need.
  for (size_t r = 0; r < base.size(); ++r) {
    EXPECT_EQ("OK", base[r].status) << labels[r];
    EXPECT_TRUE(base[r].rows == entries[r]->reference)
        << labels[r] << ": the baseline's rows differ from the reference";
  }
  for (const Config& c : configs) {
    if (c == kBaseline || c == kShardedBaseline) continue;
    if (c.on(kShards) && !sharded) sharded = Replay(kShardedBaseline);
    const std::vector<Outcome> runs = Replay(c);
    int reported = 0;
    for (size_t r = 0; r < runs.size() && reported < 10; ++r) {
      const std::string diff =
          c.on(kShards) ? Diff(base[r], runs[r], true, false) +
                              Diff((*sharded)[r], runs[r], false, false)
                        : Diff(base[r], runs[r], false, true);
      if (diff.empty()) continue;
      ++reported;
      ADD_FAILURE() << Name(c) << " " << labels[r] << ":" << diff;
    }
  }
}

TEST(DifferentialSample, CoversEveryPairOfAxisValues) {
  std::set<std::tuple<int, int, int, int>> value_pairs;
  std::set<std::pair<int, int>> axis_pairs;  // Both away from baseline.
  size_t all_value_pairs = 0;
  for (int a = 0; a < kAxes; ++a) {
    for (int b = a + 1; b < kAxes; ++b) {
      all_value_pairs += static_cast<size_t>(kAxisValues[a] * kAxisValues[b]);
      for (const Config& c : kSample) {
        value_pairs.emplace(a, c.v[a], b, c.v[b]);
        if (c.v[a] != 0 && c.v[b] != 0) axis_pairs.emplace(a, b);
      }
    }
  }
  EXPECT_EQ(56u, all_value_pairs);
  EXPECT_EQ(all_value_pairs, value_pairs.size());
  EXPECT_EQ(10u, axis_pairs.size());
  EXPECT_EQ(kBaseline, kSample.front());
}

TEST(DifferentialSample, MatchesBaselines) { ExpectMatchesBaselines(kSample); }

TEST(DifferentialLattice, MatchesBaselines) {
  ExpectMatchesBaselines(Lattice());
}

// The lattice's single-axis slices, one ctest entry each under the name of
// the suite the oracle replaced: the cache alone; every batch size and the
// cached-plan path at 1024; the memo alone and with the cache's near-miss
// warm starts.
TEST(DifferentialSlice, PlanCache) {
  ExpectMatchesBaselines({{{0, 1, 0, 0, 0}}});
}

TEST(DifferentialSlice, BatchRows) {
  ExpectMatchesBaselines(
      {{{1, 0, 0, 0, 0}}, {{2, 0, 0, 0, 0}}, {{3, 0, 0, 0, 0}},
       {{2, 1, 0, 0, 0}}});
}

TEST(DifferentialSlice, Memo) {
  ExpectMatchesBaselines({{{0, 0, 1, 0, 0}}, {{0, 1, 1, 0, 0}}});
}

}  // namespace
}  // namespace popdb
