#ifndef POPDB_TESTS_TEST_UTIL_H_
#define POPDB_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/value.h"
#include "opt/query.h"
#include "storage/catalog.h"

namespace popdb::testing {

/// Builds a small catalog with three joinable tables:
///   dept(d_id int, d_name string, d_region int)        -- 8 rows
///   emp(e_id int, e_dept int, e_age int, e_name string) -- 200 rows
///   sale(s_emp int, s_amount double, s_year int)        -- 1000 rows
/// Statistics collected, indexes on d_id, e_id, e_dept, s_emp.
void BuildToyCatalog(Catalog* catalog, int64_t emp_rows = 200,
                     int64_t sale_rows = 1000);

/// Executes `query` by brute force (cross product + predicate filtering +
/// hash aggregation), independent of the optimizer and executor under
/// test. Intended as the correctness oracle.
std::vector<Row> ReferenceExecute(const Catalog& catalog,
                                  const QuerySpec& query);

/// Multiset row comparison helper: sorts a printable encoding of each row.
std::vector<std::string> Canonicalize(const std::vector<Row>& rows);

/// The keys of a JSON document in document order, comma-joined. Nested
/// objects and arrays of objects are flattened as "outer.inner" and
/// "outer[].inner"; a "profile" member is listed but not entered (its keys
/// belong to ProfileToJson). Empty when `json` does not parse.
std::string JsonKeySequence(const std::string& json);

/// JsonKeySequence of the entry whose "query_id" is `query_id` in a
/// `query_log` entries array; empty when there is no such entry.
std::string LogEntryKeySequence(const std::string& entries,
                                int64_t query_id);

}  // namespace popdb::testing

#endif  // POPDB_TESTS_TEST_UTIL_H_
