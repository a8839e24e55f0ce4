#include <gtest/gtest.h>

#include "core/pop.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace popdb {
namespace {

using ::popdb::testing::Canonicalize;
using ::popdb::testing::ReferenceExecute;
using sql::AstSelect;
using sql::BoundStatement;
using sql::Lex;
using sql::Parse;
using sql::ParseSql;
using sql::Token;
using sql::TokenKind;

// ------------------------------------------------------------------ lexer.

TEST(LexerTest, TokenKinds) {
  Result<std::vector<Token>> toks =
      Lex("SELECT a.b, 42, 3.5, 'it''s', <> <= >= < > = ( ) * ? ;");
  ASSERT_TRUE(toks.ok());
  std::vector<std::pair<TokenKind, std::string>> expected = {
      {TokenKind::kKeyword, "SELECT"}, {TokenKind::kIdent, "a"},
      {TokenKind::kSymbol, "."},       {TokenKind::kIdent, "b"},
      {TokenKind::kSymbol, ","},       {TokenKind::kInt, "42"},
      {TokenKind::kSymbol, ","},       {TokenKind::kDouble, "3.5"},
      {TokenKind::kSymbol, ","},       {TokenKind::kString, "it's"},
      {TokenKind::kSymbol, ","},       {TokenKind::kSymbol, "<>"},
      {TokenKind::kSymbol, "<="},      {TokenKind::kSymbol, ">="},
      {TokenKind::kSymbol, "<"},       {TokenKind::kSymbol, ">"},
      {TokenKind::kSymbol, "="},       {TokenKind::kSymbol, "("},
      {TokenKind::kSymbol, ")"},       {TokenKind::kSymbol, "*"},
      {TokenKind::kSymbol, "?"},       {TokenKind::kSymbol, ";"},
      {TokenKind::kEnd, ""},
  };
  ASSERT_EQ(expected.size(), toks.value().size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, toks.value()[i].kind) << i;
    EXPECT_EQ(expected[i].second, toks.value()[i].text) << i;
  }
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  Result<std::vector<Token>> toks = Lex("select FrOm wHeRe");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ("SELECT", toks.value()[0].text);
  EXPECT_EQ("FROM", toks.value()[1].text);
  EXPECT_EQ("WHERE", toks.value()[2].text);
}

TEST(LexerTest, CommentsSkipped) {
  Result<std::vector<Token>> toks = Lex("SELECT -- comment\n x");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(3u, toks.value().size());
  EXPECT_EQ("x", toks.value()[1].text);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lex("SELECT 'oops").ok());
}

TEST(LexerTest, BangEqualsIsNotEquals) {
  Result<std::vector<Token>> toks = Lex("a != b");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ("<>", toks.value()[1].text);
}

// ----------------------------------------------------------------- parser.

TEST(ParserTest, MinimalSelect) {
  Result<AstSelect> ast = Parse("SELECT * FROM t");
  ASSERT_TRUE(ast.ok());
  EXPECT_TRUE(ast.value().select_star);
  ASSERT_EQ(1u, ast.value().from.size());
  EXPECT_EQ("t", ast.value().from[0].table);
}

TEST(ParserTest, FullClauseRoundTrip) {
  Result<AstSelect> ast = Parse(
      "EXPLAIN SELECT DISTINCT d.name AS dn, COUNT(*) AS n "
      "FROM dept d, emp AS e "
      "WHERE e.dept = d.id AND e.age BETWEEN 30 AND 40 "
      "AND d.name IN ('eng', 'ops') AND e.name LIKE 'e%' AND e.id < ? "
      "GROUP BY d.name HAVING COUNT(*) > 2 "
      "ORDER BY n DESC, 1 ASC LIMIT 10;");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  const AstSelect& s = ast.value();
  EXPECT_TRUE(s.explain);
  EXPECT_TRUE(s.distinct);
  ASSERT_EQ(2u, s.items.size());
  EXPECT_EQ("dn", s.items[0].alias);
  EXPECT_TRUE(s.items[1].is_aggregate);
  EXPECT_TRUE(s.items[1].count_star);
  ASSERT_EQ(2u, s.from.size());
  EXPECT_EQ("d", s.from[0].alias);
  EXPECT_EQ("e", s.from[1].alias);
  ASSERT_EQ(5u, s.where.size());
  EXPECT_TRUE(s.where[0].rhs_is_column);
  EXPECT_EQ(PredKind::kBetween, s.where[1].kind);
  EXPECT_EQ(PredKind::kIn, s.where[2].kind);
  EXPECT_EQ(2u, s.where[2].in_list.size());
  EXPECT_EQ(PredKind::kLike, s.where[3].kind);
  EXPECT_TRUE(s.where[4].is_param);
  ASSERT_EQ(1u, s.group_by.size());
  ASSERT_EQ(1u, s.having.size());
  EXPECT_TRUE(s.having[0].is_aggregate);
  EXPECT_EQ(PredKind::kGt, s.having[0].kind);
  ASSERT_EQ(2u, s.order_by.size());
  EXPECT_TRUE(s.order_by[0].descending);
  EXPECT_TRUE(s.order_by[1].by_position);
  EXPECT_EQ(1, s.order_by[1].position);
  EXPECT_EQ(10, s.limit);
}

TEST(ParserTest, JoinOnSyntax) {
  Result<AstSelect> ast = Parse(
      "SELECT * FROM dept d JOIN emp e ON e.dept = d.id JOIN sale s ON "
      "s.emp = e.id AND s.year > 2020");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  EXPECT_EQ(3u, ast.value().from.size());
  EXPECT_EQ(3u, ast.value().where.size());
}

TEST(ParserTest, OrIsRejectedWithClearError) {
  Result<AstSelect> ast =
      Parse("SELECT * FROM t WHERE a = 1 OR b = 2");
  ASSERT_FALSE(ast.ok());
  EXPECT_NE(std::string::npos, ast.status().message().find("OR"));
}

TEST(ParserTest, SyntaxErrorsCarryPosition) {
  Result<AstSelect> ast = Parse("SELECT FROM t");
  ASSERT_FALSE(ast.ok());
  EXPECT_NE(std::string::npos, ast.status().message().find("position"));
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(Parse("SELECT * FROM t garbage garbage").ok());
}

TEST(ParserTest, CountStarOnlyForCount) {
  EXPECT_FALSE(Parse("SELECT SUM(*) FROM t").ok());
}

// ----------------------------------------------------------------- binder.

class SqlBinderTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::BuildToyCatalog(&catalog_); }

  Result<BoundStatement> BindSql(const std::string& sql,
                                 std::vector<Value> params = {}) {
    return ParseSql(catalog_, sql, std::move(params));
  }

  /// Parses, binds, executes with POP, and compares against the oracle.
  void CheckSql(const std::string& sql, std::vector<Value> params = {}) {
    Result<BoundStatement> bound = BindSql(sql, std::move(params));
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    const std::vector<Row> expected =
        ReferenceExecute(catalog_, bound.value().query);
    ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
    Result<std::vector<Row>> rows = exec.Execute(bound.value().query);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(Canonicalize(expected), Canonicalize(rows.value())) << sql;
  }

  Catalog catalog_;
};

TEST_F(SqlBinderTest, ResolvesQualifiedAndUnqualifiedColumns) {
  Result<BoundStatement> b = BindSql(
      "SELECT e_name FROM emp e WHERE e.e_age > 40 AND e_dept = 3");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(2u, b.value().query.local_preds().size());
  EXPECT_EQ(1u, b.value().query.projections().size());
}

TEST_F(SqlBinderTest, AmbiguousColumnRejected) {
  // Both dept and emp would match a made-up shared name? They don't share
  // names, so build ambiguity via a self-join.
  Result<BoundStatement> b =
      BindSql("SELECT e_name FROM emp a, emp b WHERE a.e_id = b.e_dept");
  ASSERT_FALSE(b.ok());
  EXPECT_NE(std::string::npos, b.status().message().find("ambiguous"));
}

TEST_F(SqlBinderTest, SelfJoinWithAliases) {
  CheckSql(
      "SELECT a.e_name FROM emp a, emp b "
      "WHERE a.e_dept = b.e_id AND b.e_age > 60");
}

TEST_F(SqlBinderTest, DuplicateAliasRejected) {
  EXPECT_FALSE(BindSql("SELECT * FROM emp, emp").ok());
}

TEST_F(SqlBinderTest, UnknownTableAndColumn) {
  EXPECT_EQ(StatusCode::kNotFound,
            BindSql("SELECT * FROM ghost").status().code());
  EXPECT_FALSE(BindSql("SELECT ghost_col FROM emp").ok());
}

TEST_F(SqlBinderTest, JoinPredicateClassification) {
  Result<BoundStatement> b = BindSql(
      "SELECT * FROM dept d, emp e WHERE e.e_dept = d.d_id AND d_region = "
      "1");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(1u, b.value().query.join_preds().size());
  EXPECT_EQ(1u, b.value().query.local_preds().size());
}

TEST_F(SqlBinderTest, NonEqualityColumnComparisonRejected) {
  Result<BoundStatement> b =
      BindSql("SELECT * FROM dept d, emp e WHERE e.e_dept < d.d_id");
  EXPECT_EQ(StatusCode::kUnimplemented, b.status().code());
}

TEST_F(SqlBinderTest, ParameterMarkersBindInOrder) {
  Result<BoundStatement> b = BindSql(
      "SELECT * FROM emp WHERE e_age > ? AND e_dept = ?",
      {Value::Int(40), Value::Int(3)});
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  const QuerySpec& q = b.value().query;
  EXPECT_TRUE(q.local_preds()[0].is_param);
  EXPECT_EQ(0, q.local_preds()[0].param_index);
  EXPECT_EQ(1, q.local_preds()[1].param_index);
  EXPECT_EQ(Value::Int(40), q.params()[0]);
}

TEST_F(SqlBinderTest, MissingParameterBindingRejected) {
  EXPECT_FALSE(BindSql("SELECT * FROM emp WHERE e_age > ?").ok());
}

TEST_F(SqlBinderTest, GroupBySelectListShapeEnforced) {
  EXPECT_FALSE(
      BindSql("SELECT COUNT(*), d_name FROM dept GROUP BY d_name").ok());
  EXPECT_FALSE(BindSql("SELECT COUNT(*) FROM dept GROUP BY d_name").ok());
  EXPECT_TRUE(
      BindSql("SELECT d_name, COUNT(*) FROM dept GROUP BY d_name").ok());
}

TEST_F(SqlBinderTest, HavingMustMatchSelectList) {
  EXPECT_FALSE(BindSql("SELECT d_name, COUNT(*) FROM dept GROUP BY d_name "
                       "HAVING SUM(d_region) > 1")
                   .ok());
  EXPECT_TRUE(BindSql("SELECT d_name, COUNT(*) FROM dept GROUP BY d_name "
                      "HAVING COUNT(*) > 0")
                  .ok());
}

// -------------------------------------------------- end-to-end via oracle.

TEST_F(SqlBinderTest, EndToEndSimpleScan) {
  CheckSql("SELECT e_name FROM emp WHERE e_age BETWEEN 30 AND 40");
}

TEST_F(SqlBinderTest, EndToEndJoinAggregation) {
  CheckSql(
      "SELECT d_name, COUNT(*), SUM(s_year) "
      "FROM dept d, emp e, sale s "
      "WHERE e.e_dept = d.d_id AND s.s_emp = e.e_id AND e_age < 45 "
      "GROUP BY d_name");
}

TEST_F(SqlBinderTest, EndToEndJoinOnSyntax) {
  CheckSql(
      "SELECT e_name, s_year FROM emp e JOIN sale s ON s.s_emp = e.e_id "
      "WHERE s_year >= 2020");
}

TEST_F(SqlBinderTest, EndToEndDistinct) {
  CheckSql("SELECT DISTINCT e_dept FROM emp");
}

TEST_F(SqlBinderTest, EndToEndHaving) {
  CheckSql(
      "SELECT e_dept, COUNT(*) FROM emp GROUP BY e_dept "
      "HAVING COUNT(*) >= 25");
}

TEST_F(SqlBinderTest, EndToEndInAndLike) {
  CheckSql(
      "SELECT d_name, e_name FROM dept d, emp e "
      "WHERE e.e_dept = d.d_id AND d_name IN ('eng', 'hr') "
      "AND e_name LIKE 'emp1%'");
}

TEST_F(SqlBinderTest, EndToEndParameterMarker) {
  CheckSql("SELECT e_id FROM emp WHERE e_age < ?", {Value::Int(30)});
}

TEST_F(SqlBinderTest, NullOperandReturnsNoRows) {
  // SQL's UNKNOWN: a comparison or BETWEEN with a NULL literal or a marker
  // bound to NULL holds for no row, `<>` included.
  for (const std::string& sql :
       {"SELECT e_id FROM emp WHERE e_age <> NULL",
        "SELECT e_id FROM emp WHERE e_age >= NULL",
        "SELECT e_id FROM emp WHERE e_age BETWEEN NULL AND 99"}) {
    Result<BoundStatement> bound = BindSql(sql);
    ASSERT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
    Result<std::vector<Row>> rows = exec.Execute(bound.value().query);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_TRUE(rows.value().empty()) << sql;
    EXPECT_TRUE(ReferenceExecute(catalog_, bound.value().query).empty());
  }
  Result<BoundStatement> marker =
      BindSql("SELECT e_id FROM emp WHERE e_age > ?", {Value::Null()});
  ASSERT_TRUE(marker.ok()) << marker.status().ToString();
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  Result<std::vector<Row>> rows = exec.Execute(marker.value().query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(rows.value().empty());
}

TEST_F(SqlBinderTest, OrderByAppliesToOutput) {
  Result<BoundStatement> b = BindSql(
      "SELECT e_dept, COUNT(*) AS n FROM emp GROUP BY e_dept ORDER BY n "
      "DESC, e_dept");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  Result<std::vector<Row>> rows = exec.Execute(b.value().query);
  ASSERT_TRUE(rows.ok());
  for (size_t i = 1; i < rows.value().size(); ++i) {
    EXPECT_GE(rows.value()[i - 1][1].AsInt(), rows.value()[i][1].AsInt());
  }
}

TEST_F(SqlBinderTest, LimitTruncates) {
  Result<BoundStatement> b =
      BindSql("SELECT e_id FROM emp ORDER BY 1 LIMIT 5");
  ASSERT_TRUE(b.ok());
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  Result<std::vector<Row>> rows = exec.Execute(b.value().query);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(5u, rows.value().size());
  // ORDER BY 1 + LIMIT = top-5 smallest ids.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(Value::Int(static_cast<int64_t>(i)), rows.value()[i][0]);
  }
}

TEST_F(SqlBinderTest, ExplainFlagSurfaces) {
  Result<BoundStatement> b = BindSql("EXPLAIN SELECT * FROM emp");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b.value().explain);
}

TEST_F(SqlBinderTest, PopFiresThroughSqlQueries) {
  // The toy catalog's dept/emp stats are accurate, so build a marker query
  // whose default estimate is badly off and check POP reacts end-to-end.
  Result<BoundStatement> b = BindSql(
      "SELECT d_name, COUNT(*) FROM dept d, emp e, sale s "
      "WHERE e.e_dept = d.d_id AND s.s_emp = e.e_id AND e_age < ? "
      "GROUP BY d_name",
      {Value::Int(100)});  // Keeps everyone; estimate assumes a third.
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ProgressiveExecutor exec(catalog_, OptimizerConfig{}, PopConfig{});
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(b.value().query, &stats);
  ASSERT_TRUE(rows.ok());
  const std::vector<Row> expected =
      ReferenceExecute(catalog_, b.value().query);
  EXPECT_EQ(Canonicalize(expected), Canonicalize(rows.value()));
}

}  // namespace
}  // namespace popdb
