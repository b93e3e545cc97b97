// Tests for the scenario-definition language: lexer, parser, semantic
// validation, and end-to-end execution of a parsed scenario.

#include <gtest/gtest.h>

#include "parser/lexer.h"
#include "parser/scenario_parser.h"
#include "system/warehouse_system.h"

namespace mvc {
namespace {

TEST(LexerTest, TokenizesAllKinds) {
  auto tokens = Tokenize("foo-bar 42 -7 ( ) { } , ; . * @ = -> < <= > >= !=");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kIdentifier, TokenKind::kInteger,
                TokenKind::kInteger, TokenKind::kLParen, TokenKind::kRParen,
                TokenKind::kLBrace, TokenKind::kRBrace, TokenKind::kComma,
                TokenKind::kSemicolon, TokenKind::kDot, TokenKind::kStar,
                TokenKind::kAt, TokenKind::kEquals, TokenKind::kArrow,
                TokenKind::kCompare, TokenKind::kCompare,
                TokenKind::kCompare, TokenKind::kCompare,
                TokenKind::kCompare, TokenKind::kEnd}));
  EXPECT_EQ((*tokens)[0].text, "foo-bar");
  EXPECT_EQ((*tokens)[1].integer, 42);
  EXPECT_EQ((*tokens)[2].integer, -7);
}

TEST(LexerTest, CommentsAndLines) {
  auto tokens = Tokenize("a # comment\nb");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);
  EXPECT_EQ((*tokens)[0].line, 1);
  EXPECT_EQ((*tokens)[1].line, 2);
}

TEST(LexerTest, RejectsStrayCharacters) {
  EXPECT_FALSE(Tokenize("a $ b").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("a - b").ok());
}

constexpr char kScenario[] = R"(
# The paper's Table 1 as a scenario file.
source src0 {
  relation R(A, B);
  relation S(B, C);
}
source src1 {
  relation T(C, D);
}
init R (1, 2);
init T (3, 4);

view V1 = select R.A, R.B, S.C from R, S where R.B = S.B;
view V2 = select S.B, S.C, T.D from S, T where S.C = T.C;

txn @1000 src0 { insert S (2, 3); }
)";

TEST(ParserTest, ParsesTable1Scenario) {
  auto config = ParseScenario(kScenario);
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->sources.size(), 2u);
  EXPECT_EQ(config->sources.at("src0"),
            (std::vector<std::string>{"R", "S"}));
  EXPECT_EQ(config->schemas.at("R"), Schema::AllInt64({"A", "B"}));
  EXPECT_EQ(config->initial_data.at("R").size(), 1u);
  ASSERT_EQ(config->views.size(), 2u);
  EXPECT_EQ(config->views[0].name, "V1");
  EXPECT_EQ(config->views[0].relations,
            (std::vector<std::string>{"R", "S"}));
  EXPECT_EQ(config->views[0].projection.size(), 3u);
  EXPECT_EQ(config->views[0].predicate.ToString(), "R.B = S.B");
  ASSERT_EQ(config->workload.size(), 1u);
  EXPECT_EQ(config->workload[0].at, 1000);
  EXPECT_EQ(config->workload[0].updates[0].op, UpdateOp::kInsert);
}

TEST(ParserTest, ParsedScenarioRunsAndIsComplete) {
  auto config = ParseScenario(kScenario);
  ASSERT_TRUE(config.ok());
  auto system = WarehouseSystem::Build(std::move(*config));
  ASSERT_TRUE(system.ok()) << system.status();
  (*system)->Run();
  EXPECT_EQ((*system)->warehouse().MaterializeView("V1")->CountOf(
                Tuple{1, 2, 3}),
            1);
  ConsistencyChecker checker = (*system)->MakeChecker();
  EXPECT_TRUE(checker.CheckComplete((*system)->recorder()).ok());
}

TEST(ParserTest, SelectStarAndWhereConstants) {
  auto config = ParseScenario(R"(
source s { relation R(j, v); }
view Hot = select * from R where v >= 10 and v != 50;
)");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_TRUE(config->views[0].projection.empty());
  EXPECT_EQ(config->views[0].predicate.ToString(), "(v >= 10 AND v != 50)");
}

TEST(ParserTest, AggregateStatement) {
  auto config = ParseScenario(R"(
source s { relation orders(region, amount); }
view rev = select region, amount from orders;
aggregate rev group by region count as n, sum amount as total,
  min amount as lo, max amount as hi;
)");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->aggregates.size(), 1u);
  const AggregateSpec& spec = config->aggregates.at("rev");
  EXPECT_EQ(spec.group_by, (std::vector<std::string>{"region"}));
  ASSERT_EQ(spec.aggregates.size(), 4u);
  EXPECT_EQ(spec.aggregates[0].fn, AggregateFn::kCount);
  EXPECT_EQ(spec.aggregates[1].fn, AggregateFn::kSum);
  EXPECT_EQ(spec.aggregates[1].input_column, "amount");
  EXPECT_EQ(spec.aggregates[2].fn, AggregateFn::kMin);
  EXPECT_EQ(spec.aggregates[3].fn, AggregateFn::kMax);
  EXPECT_EQ(spec.aggregates[3].output_name, "hi");
}

TEST(ParserTest, ManagerStatement) {
  auto config = ParseScenario(R"(
source s { relation R(a); }
view V = select * from R;
manager V strong;
)");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->manager_kinds.at("V"), ManagerKind::kStrong);
}

TEST(ParserTest, ModifyAndMultiUpdateTxn) {
  auto config = ParseScenario(R"(
source s { relation R(a, b); }
init R (1, 2);
view V = select * from R;
txn @500 s { modify R (1, 2) -> (1, 9); insert R (3, 4); }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->workload[0].updates.size(), 2u);
  EXPECT_EQ(config->workload[0].updates[0].op, UpdateOp::kModify);
  EXPECT_EQ(config->workload[0].updates[0].new_tuple, (Tuple{1, 9}));
}

TEST(ParserTest, SemanticErrors) {
  // Undeclared relation in a view.
  EXPECT_FALSE(ParseScenario("view V = select * from Nope;").ok());
  // Duplicate relation.
  EXPECT_FALSE(
      ParseScenario("source a { relation R(x); } source b { relation R(y); }")
          .ok());
  // Duplicate view.
  EXPECT_FALSE(ParseScenario(R"(
source s { relation R(a); }
view V = select * from R;
view V = select * from R;
)").ok());
  // Txn at unknown source.
  EXPECT_FALSE(ParseScenario(R"(
source s { relation R(a); }
txn @1 other { insert R (1); }
)").ok());
  // Aggregate over unknown view.
  EXPECT_FALSE(ParseScenario(R"(
source s { relation R(a); }
aggregate Nope group by a count as n;
)").ok());
  // Empty transaction.
  EXPECT_FALSE(ParseScenario(R"(
source s { relation R(a); }
txn @1 s { }
)").ok());
  // Unknown statement.
  EXPECT_FALSE(ParseScenario("frobnicate;").ok());
}

TEST(ParserTest, SyntaxErrorsCarryLineNumbers) {
  Status st = ParseScenario("source s {\n relation R(a)\n}").status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 3"), std::string::npos) << st;
}

TEST(ParserTest, FileNotFound) {
  EXPECT_TRUE(ParseScenarioFile("/nonexistent/x.mvc").status().IsNotFound());
}

}  // namespace
}  // namespace mvc
