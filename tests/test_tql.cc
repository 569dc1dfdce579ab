// Tests for the TQL front-end: lexer, parser, and translation to initial
// algebra plans with the Definition 5.1 contract.
#include <gtest/gtest.h>

#include "algebra/printer.h"
#include "api/engine.h"
#include "core/equivalence.h"
#include "exec/evaluator.h"
#include "test_util.h"
#include "tql/lexer.h"
#include "tql/translator.h"
#include "workload/paper_example.h"

namespace tqp {
namespace {

TEST(LexerTest, TokenizesKeywordsIdentifiersAndLiterals) {
  Result<std::vector<Token>> toks =
      Lex("SELECT EmpName, 42, 3.5, 'text' FROM employee");
  ASSERT_TRUE(toks.ok());
  EXPECT_TRUE((*toks)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*toks)[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*toks)[1].text, "EmpName");
  EXPECT_EQ((*toks)[3].kind, TokenKind::kInteger);
  EXPECT_EQ((*toks)[5].kind, TokenKind::kFloat);
  EXPECT_EQ((*toks)[7].kind, TokenKind::kString);
  EXPECT_EQ((*toks)[7].text, "text");
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  Result<std::vector<Token>> toks = Lex("select distinct from");
  ASSERT_TRUE(toks.ok());
  EXPECT_TRUE((*toks)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*toks)[1].IsKeyword("DISTINCT"));
}

TEST(LexerTest, DottedProductNames) {
  Result<std::vector<Token>> toks = Lex("1.T1 <= 2.Name");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*toks)[0].text, "1.T1");
  EXPECT_TRUE((*toks)[1].IsSymbol("<="));
  EXPECT_EQ((*toks)[2].text, "2.Name");
}

TEST(LexerTest, RejectsUnterminatedString) {
  EXPECT_FALSE(Lex("SELECT 'oops").ok());
}

TEST(LexerTest, SkipsLineComments) {
  Result<std::vector<Token>> toks =
      Lex("SELECT -- the projection\n EmpName -- trailing");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 3u);  // SELECT, EmpName, kEnd
  EXPECT_TRUE((*toks)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*toks)[1].text, "EmpName");
  EXPECT_EQ((*toks)[2].kind, TokenKind::kEnd);
  // A lone minus still lexes as an operator.
  Result<std::vector<Token>> minus = Lex("a - b");
  ASSERT_TRUE(minus.ok());
  EXPECT_TRUE((*minus)[1].IsSymbol("-"));
}

TEST(LexerTest, TokenStreamKeyNormalizesSpacingCommentsAndKeywordCase) {
  auto key = [](const std::string& text) {
    Result<std::vector<Token>> toks = Lex(text);
    TQP_CHECK(toks.ok());
    return TokenStreamKey(toks.value());
  };
  EXPECT_EQ(key("SELECT Dept FROM EMPLOYEE"),
            key("select  Dept\n\tFROM -- comment\n EMPLOYEE"));
  // Different token streams must never share a key: the length prefixes
  // keep adjacent tokens from re-associating.
  EXPECT_NE(key("SELECT Dept FROM EMPLOYEE"), key("SELECT Dep FROM EMPLOYEE"));
  EXPECT_NE(key("SELECT 'a b'"), key("SELECT 'a' 'b'"));
  EXPECT_NE(key("SELECT ab"), key("SELECT a b"));
  // Identifier case is significant (only keywords normalize).
  EXPECT_NE(key("SELECT Dept"), key("SELECT DEPT"));
}

TEST(ParserTest, ParsesTheFullGrammar) {
  Result<QueryAst> ast = ParseQuery(
      "VALIDTIME COALESCED SELECT DISTINCT EmpName, Dept AS D "
      "FROM EMPLOYEE, PROJECT WHERE EmpName = 'John' AND T1 >= 3 "
      "ORDER BY EmpName ASC, D DESC");
  ASSERT_TRUE(ast.ok()) << ast.status().message();
  ASSERT_EQ(ast->stmts.size(), 1u);
  const SelectStmt& s = ast->stmts[0];
  EXPECT_TRUE(s.validtime);
  EXPECT_TRUE(s.coalesced);
  EXPECT_TRUE(s.distinct);
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "D");
  ASSERT_EQ(s.from.size(), 2u);
  ASSERT_NE(s.where, nullptr);
  ASSERT_EQ(ast->order_by.size(), 2u);
  EXPECT_FALSE(ast->order_by[1].ascending);
}

TEST(ParserTest, ParsesSetOperations) {
  Result<QueryAst> ast = ParseQuery(
      "SELECT Name FROM A EXCEPT ALL SELECT Name FROM B "
      "UNION SELECT Name FROM C");
  ASSERT_TRUE(ast.ok());
  ASSERT_EQ(ast->stmts.size(), 3u);
  ASSERT_EQ(ast->ops.size(), 2u);
  EXPECT_EQ(ast->ops[0], QueryAst::SetOp::kExceptAll);
  EXPECT_EQ(ast->ops[1], QueryAst::SetOp::kUnion);
}

TEST(ParserTest, ParsesAggregates) {
  Result<QueryAst> ast = ParseQuery(
      "SELECT Dept, COUNT(*) AS n, AVG(Salary) FROM EMP GROUP BY Dept");
  ASSERT_TRUE(ast.ok());
  const SelectStmt& s = ast->stmts[0];
  ASSERT_EQ(s.items.size(), 3u);
  EXPECT_EQ(s.items[1].kind, SelectItem::Kind::kAggregate);
  EXPECT_EQ(s.items[1].agg.func, AggFunc::kCount);
  EXPECT_EQ(s.items[1].alias, "n");
  EXPECT_EQ(s.items[2].agg.func, AggFunc::kAvg);
  ASSERT_EQ(s.group_by.size(), 1u);
}

TEST(ParserTest, RejectsBadSyntax) {
  EXPECT_FALSE(ParseQuery("SELECT FROM x").ok());
  EXPECT_FALSE(ParseQuery("SELECT a").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t ORDER EmpName").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t garbage").ok());
  // Out-of-range literals and over-deep expressions are syntax errors too:
  // no exception escapes the parser and no recursion runs away.
  for (const std::string& where : testing_util::HostileWhereClauses("a")) {
    Result<QueryAst> ast = ParseQuery("SELECT a FROM t WHERE " + where);
    ASSERT_FALSE(ast.ok()) << where.substr(0, 40);
    EXPECT_EQ(ast.status().message().rfind("invalid argument: ", 0), 0u)
        << ast.status().message();
  }
  const std::string big = "99999999999999999999999";
  Result<QueryAst> overflow = ParseQuery("SELECT a FROM t WHERE a = " + big);
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find(big), std::string::npos)
      << overflow.status().message();
  for (const std::string& where :
       testing_util::WhereClausesOfDepth("a", kMaxExprDepth + 1)) {
    EXPECT_FALSE(ParseQuery("SELECT a FROM t WHERE " + where).ok())
        << where.substr(0, 40);
  }
}

// A WHERE clause exactly kMaxExprDepth deep, in each shape the bound
// counts, compiles, optimizes and executes through the Engine on both
// executors, to the rows of the shallow comparison it is built from.
TEST(ParserTest, ExpressionsAtTheDepthBoundRunEndToEnd) {
  for (ExecutorKind executor :
       {ExecutorKind::kReference, ExecutorKind::kVectorized}) {
    EngineOptions options;
    options.executor = executor;
    Engine engine(PaperCatalog(), options);
    Result<QueryResult> shallow =
        engine.Query("SELECT EmpName FROM EMPLOYEE WHERE T1 >= 0");
    ASSERT_TRUE(shallow.ok()) << shallow.status().message();
    ASSERT_GT(shallow->relation.size(), 0u);
    for (const std::string& where :
         testing_util::WhereClausesOfDepth("T1", kMaxExprDepth)) {
      Result<QueryResult> deep =
          engine.Query("SELECT EmpName FROM EMPLOYEE WHERE " + where);
      ASSERT_TRUE(deep.ok()) << where.substr(0, 40) << ": "
                             << deep.status().message();
      EXPECT_TRUE(EquivalentAsMultisets(shallow->relation, deep->relation))
          << where.substr(0, 40);
    }
  }
}

TEST(TranslatorTest, PaperQueryMatchesTheHandBuiltInitialPlan) {
  // The TQL mapping of the running example must produce exactly the
  // Figure 2(a) operator tree.
  Catalog catalog = PaperCatalog();
  Result<TranslatedQuery> q = CompileQuery(PaperQueryText(), catalog);
  ASSERT_TRUE(q.ok()) << q.status().message();
  EXPECT_EQ(CanonicalString(q->plan), CanonicalString(PaperInitialPlan()));
  EXPECT_EQ(q->contract.result_type, ResultType::kList);
  ASSERT_EQ(q->contract.order_by.size(), 1u);
  EXPECT_EQ(q->contract.order_by[0].attr, "EmpName");
}

TEST(TranslatorTest, ContractFollowsDistinctAndOrderBy) {
  Catalog catalog = PaperCatalog();
  Result<TranslatedQuery> multiset =
      CompileQuery("SELECT EmpName FROM EMPLOYEE", catalog);
  ASSERT_TRUE(multiset.ok());
  EXPECT_EQ(multiset->contract.result_type, ResultType::kMultiset);

  Result<TranslatedQuery> set =
      CompileQuery("SELECT DISTINCT EmpName FROM EMPLOYEE", catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->contract.result_type, ResultType::kSet);

  Result<TranslatedQuery> list = CompileQuery(
      "SELECT DISTINCT EmpName FROM EMPLOYEE ORDER BY EmpName", catalog);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->contract.result_type, ResultType::kList);
}

TEST(TranslatorTest, ValidtimeAppendsTimeAttributes) {
  Catalog catalog = PaperCatalog();
  Result<TranslatedQuery> q =
      CompileQuery("VALIDTIME SELECT EmpName FROM EMPLOYEE", catalog);
  ASSERT_TRUE(q.ok());
  Result<AnnotatedPlan> ann =
      AnnotatedPlan::Make(q->plan, &catalog, q->contract);
  ASSERT_TRUE(ann.ok());
  EXPECT_TRUE(ann->root_info().schema.IsTemporal());
}

TEST(TranslatorTest, ConventionalQueryOverTemporalTableTreatsTimesAsData) {
  Catalog catalog = PaperCatalog();
  Result<TranslatedQuery> q = CompileQuery(
      "SELECT EmpName, T1 FROM EMPLOYEE WHERE T2 > 8", catalog);
  ASSERT_TRUE(q.ok());
  EngineConfig engine;
  Result<AnnotatedPlan> ann =
      AnnotatedPlan::Make(q->plan, &catalog, q->contract);
  ASSERT_TRUE(ann.ok());
  Result<Relation> out = Evaluate(ann.value(), engine);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);  // only [6,11) and [6,12) satisfy T2 > 8
  EXPECT_FALSE(out->schema().IsTemporal());
}

TEST(TranslatorTest, AggregationQueries) {
  Catalog catalog = PaperCatalog();
  Result<TranslatedQuery> q = CompileQuery(
      "SELECT EmpName, COUNT(*) AS spells FROM EMPLOYEE GROUP BY EmpName "
      "ORDER BY EmpName",
      catalog);
  ASSERT_TRUE(q.ok()) << q.status().message();
  Result<AnnotatedPlan> ann =
      AnnotatedPlan::Make(q->plan, &catalog, q->contract);
  ASSERT_TRUE(ann.ok());
  Result<Relation> out = Evaluate(ann.value(), EngineConfig{});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ(out->tuple(0).at(0).AsString(), "Anna");
  EXPECT_EQ(out->tuple(0).at(1).AsInt(), 3);
  EXPECT_EQ(out->tuple(1).at(0).AsString(), "John");
  EXPECT_EQ(out->tuple(1).at(1).AsInt(), 2);
}

TEST(TranslatorTest, ValidtimeAggregation) {
  Catalog catalog = PaperCatalog();
  Result<TranslatedQuery> q = CompileQuery(
      "VALIDTIME SELECT EmpName, COUNT(*) AS jobs FROM EMPLOYEE "
      "GROUP BY EmpName",
      catalog);
  ASSERT_TRUE(q.ok()) << q.status().message();
  Result<AnnotatedPlan> ann =
      AnnotatedPlan::Make(q->plan, &catalog, q->contract);
  ASSERT_TRUE(ann.ok());
  Result<Relation> out = Evaluate(ann.value(), EngineConfig{});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->schema().IsTemporal());
  // John holds 1 job in [1,6), 2 in [6,8), 1 in [8,11).
  bool found = false;
  for (const Tuple& t : out->tuples()) {
    if (t.at(0).AsString() == "John" &&
        TuplePeriod(t, out->schema()) == Period(6, 8)) {
      EXPECT_EQ(t.at(1).AsInt(), 2);
      found = true;
    }
  }
  EXPECT_TRUE(found) << out->ToTable();
}

TEST(TranslatorTest, SemanticErrors) {
  Catalog catalog = PaperCatalog();
  EXPECT_FALSE(CompileQuery("SELECT x FROM NOPE", catalog).ok());
  EXPECT_FALSE(CompileQuery("SELECT Missing FROM EMPLOYEE", catalog).ok());
  EXPECT_FALSE(
      CompileQuery("SELECT EmpName FROM EMPLOYEE GROUP BY EmpName", catalog)
          .ok());  // GROUP BY without aggregates
  EXPECT_FALSE(CompileQuery(
                   "SELECT Dept, COUNT(*) AS c FROM EMPLOYEE GROUP BY EmpName",
                   catalog)
                   .ok());  // Dept not grouped
  // VALIDTIME scopes over the whole query from the leading statement; later
  // branches inherit it (the paper's example query relies on this) ...
  EXPECT_TRUE(CompileQuery(
                  "VALIDTIME SELECT EmpName FROM EMPLOYEE UNION ALL "
                  "SELECT EmpName FROM PROJECT",
                  catalog)
                  .ok());
  // ... but a later branch cannot introduce VALIDTIME on its own.
  EXPECT_FALSE(CompileQuery(
                   "SELECT EmpName FROM EMPLOYEE UNION ALL "
                   "VALIDTIME SELECT EmpName FROM PROJECT",
                   catalog)
                   .ok());
}

TEST(TranslatorTest, StandaloneModeOmitsTransfers) {
  // A stand-alone temporal DBMS (no stratum): relations live at the stratum
  // site and no transfer is emitted.
  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("EMPLOYEE", PaperEmployee(),
                                           Site::kStratum)
                .ok());
  TranslatorOptions options;
  options.layered = false;
  Result<TranslatedQuery> q = CompileQuery(
      "VALIDTIME SELECT EmpName FROM EMPLOYEE", catalog, options);
  ASSERT_TRUE(q.ok()) << q.status().message();
  std::vector<PlanPtr> nodes;
  CollectNodes(q->plan, &nodes);
  for (const PlanPtr& n : nodes) {
    EXPECT_NE(n->kind(), OpKind::kTransferS);
    EXPECT_NE(n->kind(), OpKind::kTransferD);
  }
}

TEST(TranslatorTest, MaxUnionExposesAlgebraUnion) {
  Catalog catalog = PaperCatalog();
  Result<TranslatedQuery> q = CompileQuery(
      "VALIDTIME SELECT EmpName FROM EMPLOYEE MAXUNION "
      "SELECT EmpName FROM PROJECT",
      catalog);
  ASSERT_TRUE(q.ok()) << q.status().message();
  std::vector<PlanPtr> nodes;
  CollectNodes(q->plan, &nodes);
  bool has_uniont = false;
  for (const PlanPtr& n : nodes) {
    if (n->kind() == OpKind::kUnionT) has_uniont = true;
  }
  EXPECT_TRUE(has_uniont);
}

}  // namespace
}  // namespace tqp
