#include "core/leo.h"

#include <algorithm>
#include <vector>

#include "common/span.h"
#include "common/string_util.h"

namespace popdb {

namespace {

/// Renders a predicate with its effective literal (markers resolved), in a
/// form that does not depend on query-local table ids.
std::string CanonicalPred(const Predicate& pred,
                          const std::vector<Value>& params) {
  std::string rhs;
  const Value& operand =
      pred.is_param ? params[static_cast<size_t>(pred.param_index)]
                    : pred.operand;
  if (pred.kind == PredKind::kBetween) {
    rhs = operand.ToString() + ".." + pred.operand2.ToString();
  } else if (pred.kind == PredKind::kIn) {
    std::vector<std::string> items;
    for (const Value& v : pred.in_list) items.push_back(v.ToString());
    std::sort(items.begin(), items.end());
    rhs = "(" + StrJoin(items, ",") + ")";
  } else {
    rhs = operand.ToString();
  }
  return StrFormat("c%d%s%s", pred.col.column, PredKindName(pred.kind),
                   rhs.c_str());
}

/// The canonical signature pieces of one query, rendered and sorted once:
/// one fragment per table (name plus its sorted predicate list) and one per
/// join predicate (sides order-normalized). The signature of any table set
/// is its member tables' fragments and its internal joins' fragments, in
/// sorted order — a filter over the two sorted lists, so a caller that
/// needs many subsets of one query renders each predicate once.
class SignatureFragments {
 public:
  explicit SignatureFragments(const QuerySpec& query) {
    for (int t = 0; t < query.num_tables(); ++t) {
      std::vector<std::string> preds;
      for (int pid : query.PredsOnTable(t)) {
        preds.push_back(CanonicalPred(
            query.local_preds()[static_cast<size_t>(pid)], query.params()));
      }
      std::sort(preds.begin(), preds.end());
      tables_.push_back({query.table_name(t) + "[" + StrJoin(preds, "&") + "]",
                         TableBit(t)});
    }
    for (const JoinPredicate& j : query.join_preds()) {
      std::string a = StrFormat("%s.c%d",
                                query.table_name(j.left.table_id).c_str(),
                                j.left.column);
      std::string b = StrFormat("%s.c%d",
                                query.table_name(j.right.table_id).c_str(),
                                j.right.column);
      if (b < a) std::swap(a, b);
      joins_.push_back({a + "=" + b, TableBit(j.left.table_id) |
                                         TableBit(j.right.table_id)});
    }
    auto by_text = [](const Fragment& x, const Fragment& y) {
      return x.text < y.text;
    };
    std::sort(tables_.begin(), tables_.end(), by_text);
    std::sort(joins_.begin(), joins_.end(), by_text);
  }

  /// Writes the signature of `set` into `*out` (replacing its content).
  void Render(TableSet set, std::string* out) const {
    out->clear();
    AppendMembers(tables_, set, ",", out);
    out->push_back('|');
    AppendMembers(joins_, set, "&", out);
  }

 private:
  struct Fragment {
    std::string text;
    TableSet tables = 0;  ///< Tables the fragment refers to.
  };

  static void AppendMembers(const std::vector<Fragment>& fragments,
                            TableSet set, const char* sep, std::string* out) {
    bool first = true;
    for (const Fragment& f : fragments) {
      if ((f.tables & set) != f.tables) continue;
      if (!first) out->append(sep);
      out->append(f.text);
      first = false;
    }
  }

  std::vector<Fragment> tables_;  ///< Sorted by text.
  std::vector<Fragment> joins_;   ///< Sorted by text.
};

}  // namespace

std::string QueryFeedbackStore::SubplanSignature(const QuerySpec& query,
                                                 TableSet set) {
  std::string sig;
  SignatureFragments(query).Render(set, &sig);
  return sig;
}

void QueryFeedbackStore::Absorb(const QuerySpec& query,
                                const FeedbackMap& feedback) {
  const SignatureFragments fragments(query);
  std::string sig;
  std::lock_guard<std::mutex> lock(mu_);
  bool changed = false;
  for (const auto& [set, fb] : feedback) {
    fragments.Render(set, &sig);
    CardFeedback& stored = store_[sig];
    if (fb.exact >= 0) {
      if (stored.exact != fb.exact) {
        stored.exact = fb.exact;
        changed = true;
      }
    } else if (fb.lower_bound >= 0 && stored.exact < 0 &&
               fb.lower_bound > stored.lower_bound) {
      stored.lower_bound = fb.lower_bound;
      changed = true;
    }
  }
  // Re-absorbing identical actuals (the repeat-query steady state) leaves
  // the epoch alone so cached plans stay servable.
  if (changed) ++epoch_;
}

void QueryFeedbackStore::Seed(const QuerySpec& query,
                              FeedbackCache* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++seed_lookups_;
  if (store_.empty()) return;
  // Probe every subset: queries are small (<= ~12 tables), so the full
  // power set is affordable and simpler than tracking connectivity. The
  // fragments are rendered once; each probe only filters and concatenates.
  const TableSet full = query.AllTables();
  if (query.num_tables() > 16) return;  // Guard pathological inputs.
  const SignatureFragments fragments(query);
  std::string sig;
  int64_t seeded = 0;
  for (TableSet set = 1; set <= full; ++set) {
    fragments.Render(set, &sig);
    auto it = store_.find(sig);
    if (it == store_.end()) continue;
    if (it->second.exact >= 0) {
      out->RecordExact(set, it->second.exact);
      ++seeded;
    } else if (it->second.lower_bound >= 0) {
      out->RecordLowerBound(set, it->second.lower_bound);
      ++seeded;
    }
  }
  if (seeded > 0) {
    ++seed_hits_;
    seeded_cards_ += seeded;
    TRACE_INSTANT_ARG("feedback_seeded", "pop", "entries", seeded);
  }
}

}  // namespace popdb
