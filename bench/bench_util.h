#ifndef POPDB_BENCH_BENCH_UTIL_H_
#define POPDB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/pop.h"
#include "opt/plan.h"

namespace popdb::bench {

/// Compact join-shape rendering of a plan: joins and scans only, wrapper
/// operators (TEMP/SORT/CHECK/aggregation) elided. Used to report which
/// plan the optimizer picked at each point of a parameter sweep.
inline std::string JoinShape(const PlanNode& node) {
  switch (node.kind) {
    case PlanOpKind::kTableScan:
      return node.table_name;
    case PlanOpKind::kMatViewScan:
      return "MV[" + node.mv_name + "]";
    case PlanOpKind::kNljn:
    case PlanOpKind::kHsjn:
    case PlanOpKind::kMgjn:
      return std::string(PlanOpKindName(node.kind)) + "(" +
             JoinShape(*node.children[0]) + "," +
             JoinShape(*node.children[1]) + ")";
    default:
      if (node.children.empty()) return "?";
      return JoinShape(*node.children[0]);
  }
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("(reproduces %s)\n", paper_ref);
  std::printf("================================================================\n");
}

/// POP's outcome on one query against the static plan.
enum class Verdict { kImproved, kUnchanged, kRegressed };

/// Compares work units with a ±5% dead band: POP improved when the static
/// plan did more than 1.05x POP's work, regressed below 0.95x, and is
/// unchanged in between.
inline Verdict CompareWork(int64_t static_work, int64_t pop_work) {
  const double ratio = static_cast<double>(static_work) /
                       static_cast<double>(std::max<int64_t>(1, pop_work));
  if (ratio > 1.05) return Verdict::kImproved;
  if (ratio < 0.95) return Verdict::kRegressed;
  return Verdict::kUnchanged;
}

inline const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kImproved:
      return "improved";
    case Verdict::kRegressed:
      return "regressed";
    case Verdict::kUnchanged:
      return "=";
  }
  return "?";
}

/// The claims a paper binary asserts. Each Expect prints the claim with
/// its measured value; ExitCode is 1 when any claim broke, so ctest fails
/// the binary and its output names the broken claim.
class Claims {
 public:
  void Expect(bool held, const std::string& claim) {
    std::printf("%s %s\n", held ? "claim held:" : "CLAIM BROKEN:",
                claim.c_str());
    if (!held) ++broken_;
  }

  int ExitCode() const {
    if (broken_ == 0) return 0;
    std::printf("%d claim(s) broken\n", broken_);
    return 1;
  }

 private:
  int broken_ = 0;
};

}  // namespace popdb::bench

#endif  // POPDB_BENCH_BENCH_UTIL_H_
