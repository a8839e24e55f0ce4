#include "txn_mix.h"

#include <algorithm>

namespace popdb::perfbench {

namespace {

const char* const kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                    "4-NOT SPECIFIED", "5-LOW"};
const char* const kShipModes[7] = {"AIR", "FOB",  "MAIL", "RAIL",
                                   "REG AIR", "SHIP", "TRUCK"};
const char* const kReturnFlags[3] = {"A", "N", "R"};
constexpr int64_t kDays = 7 * 365;

int64_t LiveRows(const Catalog& catalog, const char* table) {
  const Table* t = catalog.GetTable(table);
  return t == nullptr ? 1 : std::max<int64_t>(1, t->live_rows());
}

/// "INSERT INTO t VALUES (?, ..., ?), ..." for `rows` rows of `width`.
std::string InsertSql(const char* table, int width, int64_t rows) {
  std::string row = "(";
  for (int c = 0; c < width; ++c) row += c == 0 ? "?" : ", ?";
  row += ")";
  std::string sql = std::string("INSERT INTO ") + table + " VALUES ";
  for (int64_t r = 0; r < rows; ++r) sql += (r == 0 ? "" : ", ") + row;
  return sql;
}

}  // namespace

TxnMix::TxnMix(const Catalog& catalog, uint64_t seed)
    : rng_(seed),
      customers_(LiveRows(catalog, "customer")),
      parts_(LiveRows(catalog, "part")),
      suppliers_(LiveRows(catalog, "supplier")) {}

const char* TxnMix::TypeName(int type) {
  static const char* const kNames[kTypes] = {"new_order", "payment",
                                             "delivery"};
  return kNames[type];
}

std::vector<Stmt> TxnMix::Next(int type) {
  switch (type) {
    case 0:
      return NewOrder();
    case 1:
      return Payment();
    default:
      return Delivery();
  }
}

std::vector<Stmt> TxnMix::NewOrder() {
  const int64_t key = next_key_++;
  const int64_t lines = rng_.UniformInt(1, 7);
  const int64_t date = rng_.UniformInt(0, kDays - 1);
  pending_insert_ = {key, lines};
  Stmt order;
  order.table = "orders";
  order.expect_rows = 1;
  order.sql = InsertSql("orders", 7, 1);
  order.params = {Value::Int(key),
                  Value::Int(rng_.UniformInt(0, customers_ - 1)),
                  Value::Int(date),
                  Value::Int(1992 + date / 365),
                  Value::String(kPriorities[rng_.UniformInt(0, 4)]),
                  Value::Int(0),
                  Value::Double(static_cast<double>(
                      rng_.UniformInt(1000, 500000)))};
  Stmt detail;
  detail.table = "lineitem";
  detail.expect_rows = lines;
  detail.sql = InsertSql("lineitem", 11, lines);
  for (int64_t l = 0; l < lines; ++l) {
    const std::vector<Value> row = {
        Value::Int(key),
        Value::Int(rng_.UniformInt(0, parts_ - 1)),
        Value::Int(rng_.UniformInt(0, suppliers_ - 1)),
        Value::Int(rng_.UniformInt(1, 50)),
        Value::Double(static_cast<double>(rng_.UniformInt(100, 100000))),
        Value::Double(static_cast<double>(rng_.UniformInt(0, 10)) / 100.0),
        Value::String(kReturnFlags[rng_.UniformInt(0, 2)]),
        Value::Int(std::min(date + rng_.UniformInt(1, 120), kDays - 1)),
        Value::String(kShipModes[rng_.UniformInt(0, 6)]),
        Value::Int(rng_.Bernoulli(0.3) ? 1 : 0),
        Value::Int(rng_.UniformInt(0, 99))};
    detail.params.insert(detail.params.end(), row.begin(), row.end());
  }
  return {std::move(order), std::move(detail)};
}

std::vector<Stmt> TxnMix::Payment() {
  // Whole-number amounts keep the balance check free of rounding drift.
  pending_amount_ = static_cast<double>(rng_.UniformInt(1, 5000));
  Stmt s;
  s.table = "customer";
  s.expect_rows = 1;
  s.sql = "UPDATE customer SET c_acctbal = c_acctbal + ? WHERE c_custkey = ?";
  s.params = {Value::Double(pending_amount_),
              Value::Int(rng_.UniformInt(0, customers_ - 1))};
  return {std::move(s)};
}

std::vector<Stmt> TxnMix::Delivery() {
  if (fifo_.empty()) {
    pending_delete_ = {};
    return {};
  }
  pending_delete_ = fifo_.front();
  fifo_.pop_front();
  Stmt lines;
  lines.table = "lineitem";
  lines.expect_rows = pending_delete_.lines;
  lines.sql = "DELETE FROM lineitem WHERE l_orderkey = ?";
  lines.params = {Value::Int(pending_delete_.key)};
  Stmt order;
  order.table = "orders";
  order.expect_rows = 1;
  order.sql = "DELETE FROM orders WHERE o_orderkey = ?";
  order.params = {Value::Int(pending_delete_.key)};
  return {std::move(lines), std::move(order)};
}

void TxnMix::Applied(int type) {
  switch (type) {
    case 0:
      fifo_.push_back(pending_insert_);
      orders_inserted_ += 1;
      lines_inserted_ += pending_insert_.lines;
      break;
    case 1:
      payments_applied_ += pending_amount_;
      break;
    default:
      if (pending_delete_.key == 0) break;  // Nothing was left to deliver.
      orders_deleted_ += 1;
      lines_deleted_ += pending_delete_.lines;
      break;
  }
}

}  // namespace popdb::perfbench
