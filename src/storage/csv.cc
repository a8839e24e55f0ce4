#include "storage/csv.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "common/string_util.h"

namespace popdb {

namespace {

/// Splits one logical CSV record starting at `*pos` (handles quoted fields
/// spanning the delimiter; newlines inside quotes are supported).
/// Advances `*pos` past the record's newline. An unset optional marks a
/// NULL field (empty unquoted field or the configured null text).
Result<std::vector<std::optional<std::string>>> SplitRecord(
    const std::string& text, size_t* pos, const CsvOptions& options) {
  std::vector<std::optional<std::string>> fields;
  std::string field;
  bool quoted_field = false;
  bool in_quotes = false;
  size_t i = *pos;
  auto finish_field = [&]() {
    if (!quoted_field && (field.empty() || field == options.null_text)) {
      fields.emplace_back(std::nullopt);
    } else {
      fields.emplace_back(std::move(field));
    }
    field.clear();
    quoted_field = false;
  };
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      quoted_field = true;
    } else if (c == options.delimiter) {
      finish_field();
    } else if (c == '\n') {
      ++i;
      break;
    } else if (c == '\r') {
      // Swallow (handles CRLF).
    } else {
      field.push_back(c);
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  finish_field();
  *pos = i;
  return fields;
}

/// `s` as an int64: an optional sign, digits only, and in range (strtoll
/// saturates an out-of-range digit string, so its ERANGE is checked).
std::optional<int64_t> ParseInt(const std::string& s) {
  if (s.empty()) return std::nullopt;
  size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return std::nullopt;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return std::nullopt;
  }
  errno = 0;
  const int64_t v = std::strtoll(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return v;
}

bool ParsesAsDouble(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

}  // namespace

Result<Table> ParseCsv(const std::string& name, const std::string& text,
                       const CsvOptions& options) {
  size_t pos = 0;
  std::vector<std::vector<std::optional<std::string>>> records;
  while (pos < text.size()) {
    // Skip truly empty lines (e.g. a trailing newline) — but not
    // single-column records whose only field is NULL.
    while (pos < text.size() && text[pos] == '\r') ++pos;
    if (pos < text.size() && text[pos] == '\n') {
      ++pos;
      continue;
    }
    if (pos >= text.size()) break;
    Result<std::vector<std::optional<std::string>>> rec =
        SplitRecord(text, &pos, options);
    if (!rec.ok()) return rec.status();
    records.push_back(std::move(rec.value()));
  }
  if (records.empty()) {
    return Status::InvalidArgument("CSV input is empty");
  }

  std::vector<std::string> names;
  size_t first_data = 0;
  if (options.header) {
    for (const auto& cell : records[0]) {
      names.push_back(cell.value_or(""));
    }
    first_data = 1;
  } else {
    for (size_t c = 0; c < records[0].size(); ++c) {
      names.push_back(StrFormat("c%zu", c));
    }
  }
  const size_t ncols = names.size();
  for (size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() != ncols) {
      return Status::InvalidArgument(
          StrFormat("CSV record %zu has %zu fields, expected %zu", r,
                    records[r].size(), ncols));
    }
  }

  // Type inference over a sample: start at kInt, widen as needed.
  std::vector<ValueType> types(ncols, ValueType::kInt);
  std::vector<bool> saw_value(ncols, false);
  const size_t sample_end =
      std::min(records.size(),
               first_data + static_cast<size_t>(options.type_inference_rows));
  for (size_t r = first_data; r < sample_end; ++r) {
    for (size_t c = 0; c < ncols; ++c) {
      if (!records[r][c].has_value()) continue;
      const std::string& s = *records[r][c];
      saw_value[c] = true;
      if (types[c] == ValueType::kInt && !ParseInt(s)) {
        types[c] = ParsesAsDouble(s) ? ValueType::kDouble : ValueType::kString;
      } else if (types[c] == ValueType::kDouble && !ParsesAsDouble(s)) {
        types[c] = ValueType::kString;
      }
    }
  }
  for (size_t c = 0; c < ncols; ++c) {
    if (!saw_value[c]) types[c] = ValueType::kString;
  }

  std::vector<ColumnDef> defs;
  for (size_t c = 0; c < ncols; ++c) {
    defs.push_back(ColumnDef{names[c], types[c]});
  }
  Table table(name, Schema(std::move(defs)));
  table.Reserve(static_cast<int64_t>(records.size() - first_data));
  for (size_t r = first_data; r < records.size(); ++r) {
    Row row;
    row.reserve(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      if (!records[r][c].has_value()) {
        row.push_back(Value::Null());
        continue;
      }
      const std::string& s = *records[r][c];
      switch (types[c]) {
        case ValueType::kInt: {
          const std::optional<int64_t> v = ParseInt(s);
          if (!v) {
            return Status::InvalidArgument(StrFormat(
                "record %zu, column '%s': '%s' is not an integer", r,
                names[c].c_str(), s.c_str()));
          }
          row.push_back(Value::Int(*v));
          break;
        }
        case ValueType::kDouble:
          if (!ParsesAsDouble(s)) {
            return Status::InvalidArgument(StrFormat(
                "record %zu, column '%s': '%s' is not a number", r,
                names[c].c_str(), s.c_str()));
          }
          row.push_back(Value::Double(std::strtod(s.c_str(), nullptr)));
          break;
        default:
          row.push_back(Value::String(s));
          break;
      }
    }
    table.AppendRow(std::move(row));
  }
  return table;
}

Status LoadCsvFile(const std::string& name, const std::string& path,
                   Catalog* catalog, const CsvOptions& options) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open CSV file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  Result<Table> table = ParseCsv(name, buffer.str(), options);
  if (!table.ok()) return table.status();
  Status s = catalog->AddTable(std::move(table.value()));
  if (!s.ok()) return s;
  return catalog->AnalyzeTable(name);
}

}  // namespace popdb
