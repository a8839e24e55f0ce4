#include "common/value.h"

#include <cstdio>
#include <functional>

#include "common/status.h"

namespace popdb {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

double Value::AsNumeric() const {
  if (type() == ValueType::kInt) return static_cast<double>(AsInt());
  POPDB_DCHECK(type() == ValueType::kDouble);
  return AsDouble();
}

namespace {
bool IsNumeric(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble;
}
}  // namespace

int Value::Compare(const Value& other) const {
  const ValueType lt = type();
  const ValueType rt = other.type();
  if (lt == ValueType::kNull || rt == ValueType::kNull) {
    // NULLs sort first and compare equal to each other.
    if (lt == rt) return 0;
    return lt == ValueType::kNull ? -1 : 1;
  }
  if (IsNumeric(lt) && IsNumeric(rt)) {
    if (lt == ValueType::kInt && rt == ValueType::kInt) {
      const int64_t a = AsInt();
      const int64_t b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = AsNumeric();
    const double b = other.AsNumeric();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (lt != rt) {
    return static_cast<int>(lt) < static_cast<int>(rt) ? -1 : 1;
  }
  // Both strings.
  const int c = AsString().compare(other.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ull;
    case ValueType::kInt:
      // Hash ints through double so Int(1) and Double(1.0) collide, matching
      // operator==.
      return std::hash<double>()(static_cast<double>(AsInt()));
    case ValueType::kDouble:
      return std::hash<double>()(AsDouble());
    case ValueType::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

size_t HashRow(const Row& row) {
  size_t h = kHashRowSeed;
  for (const Value& v : row) h = HashCombine(h, v.Hash());
  return h;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace popdb
