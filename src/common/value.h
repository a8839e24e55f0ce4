#ifndef POPDB_COMMON_VALUE_H_
#define POPDB_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace popdb {

/// Runtime type of a Value / column.
enum class ValueType {
  kNull = 0,
  kInt,
  kDouble,
  kString,
};

/// Returns a human-readable name ("int", "double", ...).
const char* ValueTypeName(ValueType type);

/// A dynamically typed SQL value (NULL, 64-bit integer, double or string).
///
/// Values are ordered with NULL sorting first; cross-type comparison between
/// kInt and kDouble compares numerically, any other cross-type comparison
/// orders by type tag. Equality follows the same rules (so Int(1) ==
/// Double(1.0)).
class Value {
 public:
  /// Constructs a NULL value.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) = default;
  Value& operator=(Value&&) = default;

  /// Copy-assigns `other` through an explicit switch on the alternative
  /// instead of std::variant's generic visit-based operator=. The column
  /// fill loops of vectorized execution are dominated by this assignment;
  /// the switch inlines where the visit dispatch does not, and the string
  /// case reuses this value's heap buffer when both sides hold strings.
  void AssignFrom(const Value& other) {
    switch (other.rep_.index()) {
      case 0:
        rep_.emplace<std::monostate>();
        break;
      case 1:
        rep_ = *std::get_if<int64_t>(&other.rep_);
        break;
      case 2:
        rep_ = *std::get_if<double>(&other.rep_);
        break;
      default:
        if (std::string* mine = std::get_if<std::string>(&rep_)) {
          mine->assign(*std::get_if<std::string>(&other.rep_));
        } else {
          rep_ = *std::get_if<std::string>(&other.rep_);
        }
        break;
    }
  }

  /// Move flavor of AssignFrom (same dispatch, steals string storage).
  void AssignFrom(Value&& other) {
    switch (other.rep_.index()) {
      case 0:
        rep_.emplace<std::monostate>();
        break;
      case 1:
        rep_ = *std::get_if<int64_t>(&other.rep_);
        break;
      case 2:
        rep_ = *std::get_if<double>(&other.rep_);
        break;
      default:
        if (std::string* mine = std::get_if<std::string>(&rep_)) {
          *mine = std::move(*std::get_if<std::string>(&other.rep_));
        } else {
          rep_ = std::move(*std::get_if<std::string>(&other.rep_));
        }
        break;
    }
  }

  ValueType type() const {
    return static_cast<ValueType>(rep_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Accessors. Preconditions: the value holds the requested type.
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }

  /// Numeric coercion: kInt and kDouble convert to double, anything else is
  /// an error checked by POPDB_DCHECK.
  double AsNumeric() const;

  /// Three-way comparison per the class ordering contract:
  /// negative if *this < other, 0 if equal, positive if greater.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Hash consistent with operator== (numeric values hash by double value).
  size_t Hash() const;

  /// Renders the value for debugging and result printing.
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

/// Hash functor for containers keyed on Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// A tuple of values; the unit flowing between executor operators.
using Row = std::vector<Value>;

/// Seed and combine step of HashRow, so a key spread over a row or batch
/// columns can be hashed in place with the same result as HashRow of the
/// key's values.
inline constexpr size_t kHashRowSeed = 0x9e3779b97f4a7c15ull;
inline size_t HashCombine(size_t h, size_t value_hash) {
  return h ^ (value_hash + 0x9e3779b9ull + (h << 6) + (h >> 2));
}

/// Hash of a full row, combining per-value hashes.
size_t HashRow(const Row& row);

/// Hash functor for containers keyed on Row.
struct RowHash {
  size_t operator()(const Row& r) const { return HashRow(r); }
};

/// Renders a row as "(v1, v2, ...)".
std::string RowToString(const Row& row);

}  // namespace popdb

#endif  // POPDB_COMMON_VALUE_H_
