// CH-benCHmark-style write transactions on the TPC-H schema, as SQL text
// with '?' markers, plus the bookkeeping that lets the benchmark check
// their effect afterwards:
//   type 0 new_order: INSERT one order plus a 1-7 row INSERT lineitem
//   type 1 payment:   UPDATE customer SET c_acctbal = c_acctbal + ?
//   type 2 delivery:  DELETE the oldest benchmark-inserted order and its
//                     lineitems

#ifndef POPDB_PERFBENCH_TXN_MIX_H_
#define POPDB_PERFBENCH_TXN_MIX_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "storage/catalog.h"

namespace popdb::perfbench {

/// One DML statement and the row count it must affect.
struct Stmt {
  const char* table = "";
  std::string sql;
  std::vector<Value> params;
  int64_t expect_rows = 0;
};

class TxnMix {
 public:
  static constexpr int kTypes = 3;

  /// Reads table sizes from `catalog` to draw keys that exist.
  TxnMix(const Catalog& catalog, uint64_t seed);

  /// Statements of the next transaction of `type` (0..2). A delivery with
  /// no benchmark-inserted order left returns no statements.
  std::vector<Stmt> Next(int type);

  /// Bookkeeping once a transaction of `type` applied every statement.
  void Applied(int type);

  static const char* TypeName(int type);

  int64_t orders_inserted() const { return orders_inserted_; }
  int64_t orders_deleted() const { return orders_deleted_; }
  int64_t lines_inserted() const { return lines_inserted_; }
  int64_t lines_deleted() const { return lines_deleted_; }
  /// Sum of the c_acctbal increments applied by committed payments.
  double payments_applied() const { return payments_applied_; }

 private:
  struct Inserted {
    int64_t key = 0;
    int64_t lines = 0;
  };

  std::vector<Stmt> NewOrder();
  std::vector<Stmt> Payment();
  std::vector<Stmt> Delivery();

  Rng rng_;
  int64_t customers_ = 1;
  int64_t parts_ = 1;
  int64_t suppliers_ = 1;
  int64_t next_key_ = 100000000;  ///< Above every generated order key.

  std::deque<Inserted> fifo_;
  // The transaction in flight (booked on Applied()).
  Inserted pending_insert_;
  Inserted pending_delete_;
  double pending_amount_ = 0.0;

  int64_t orders_inserted_ = 0;
  int64_t orders_deleted_ = 0;
  int64_t lines_inserted_ = 0;
  int64_t lines_deleted_ = 0;
  double payments_applied_ = 0.0;
};

}  // namespace popdb::perfbench

#endif  // POPDB_PERFBENCH_TXN_MIX_H_
