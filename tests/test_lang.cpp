// Tests of the mini-language front end: lexer, expression semantics, the
// parser's structure/scope rules, error reporting, and end-to-end parity —
// a parsed program must schedule identically to the hand-built AST.
#include <gtest/gtest.h>

#include <ostream>

#include "helpers.hpp"
#include "lang/expr.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "runtime/scheduler.hpp"

namespace selfsched::lang {
namespace {

using selfsched::testing::Recorder;
using selfsched::testing::normalized;

// ---------------------------------------------------------------- lexer --

TEST(Lexer, TokenKindsAndPositions) {
  const auto toks = tokenize("DOALL i = 1, 10\n  x != y<=z");
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, Tok::kIdent);
  EXPECT_EQ(toks[0].text, "DOALL");
  EXPECT_EQ(toks[1].text, "i");
  EXPECT_EQ(toks[2].kind, Tok::kAssign);
  EXPECT_EQ(toks[3].kind, Tok::kInt);
  EXPECT_EQ(toks[3].value, 1);
  EXPECT_EQ(toks[4].kind, Tok::kComma);
  EXPECT_EQ(toks[5].value, 10);
  EXPECT_EQ(toks[6].line, 2u);  // x
  EXPECT_EQ(toks[7].kind, Tok::kNe);
  EXPECT_EQ(toks[9].kind, Tok::kLe);
}

TEST(Lexer, CommentsRunToEndOfLine) {
  const auto toks = tokenize("1 ! this is a comment == != DOALL\n2");
  ASSERT_EQ(toks.size(), 3u);  // 1, 2, EOF
  EXPECT_EQ(toks[0].value, 1);
  EXPECT_EQ(toks[1].value, 2);
}

TEST(Lexer, NeVersusComment) {
  const auto toks = tokenize("a != b");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[1].kind, Tok::kNe);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_THROW(tokenize("a $ b"), ParseError);
}

TEST(Lexer, RejectsOverflowingLiteral) {
  EXPECT_THROW(tokenize("99999999999999999999999999"), ParseError);
}

// ----------------------------------------------------------------- expr --

i64 eval_src(const std::string& bound_expr, i64 i_val) {
  // Evaluate via a triangular bound: DOALL i = 1,4 { LOOP x j = 1, EXPR }.
  auto prog = parse_program("DOALL i = 1, 4\n LOOP x j = 1, " + bound_expr +
                            "\nEND");
  IndexVec iv;
  iv.resize(4);
  iv[0] = 1;
  iv[1] = i_val;
  return prog.loop(0).bound.eval(iv);
}

TEST(Expr, ArithmeticAndPrecedence) {
  EXPECT_EQ(eval_src("2 + 3 * 4", 1), 14);
  EXPECT_EQ(eval_src("(2 + 3) * 4", 1), 20);
  EXPECT_EQ(eval_src("10 - 2 - 3", 1), 5);  // left associative
  EXPECT_EQ(eval_src("7 / 2", 1), 3);
  EXPECT_EQ(eval_src("7 % 3", 1), 1);
  EXPECT_EQ(eval_src("i * i", 5), 25);
  EXPECT_EQ(eval_src("-i + 10", 4), 6);
}

TEST(Expr, MathematicalModIsNonNegative) {
  EXPECT_EQ(eval_src("(0 - 7) % 3", 1), 2);
}

TEST(Expr, ComparisonAndLogic) {
  EXPECT_EQ(eval_src("1 < 2 && 3 != 4", 1), 1);
  EXPECT_EQ(eval_src("1 < 2 && 3 == 4", 1), 0);
  EXPECT_EQ(eval_src("0 || NOT 0", 1), 1);
  EXPECT_EQ(eval_src("i >= 3", 3), 1);
  EXPECT_EQ(eval_src("i >= 3", 2), 0);
}

TEST(Expr, DivisionByZeroThrowsAtEval) {
  EXPECT_THROW(eval_src("10 / (i - 1)", 1), std::logic_error);
  EXPECT_EQ(eval_src("10 / (i - 1)", 3), 5);
}

// --------------------------------------------------------------- parser --

TEST(Parser, CompilesTriangularNest) {
  auto prog = parse_program(
      "DOALL I = 1, 8\n"
      "  LOOP tri J = 1, I COST I + J\n"
      "END\n");
  ASSERT_EQ(prog.num_loops(), 1u);
  EXPECT_EQ(prog.loop(0).name, "tri");
  EXPECT_EQ(prog.loop(0).depth, 2u);
  EXPECT_FALSE(prog.loop(0).bound.is_constant());
  const auto s = baselines::run_sequential(prog);
  EXPECT_EQ(s.iterations, 36u);  // 1+2+...+8
  // Σ_{i,j<=i} (i+j) = Σ i*i + i(i+1)/2 = 204+102... check numerically:
  i64 want = 0;
  for (i64 i = 1; i <= 8; ++i) {
    for (i64 j = 1; j <= i; ++j) want += i + j;
  }
  EXPECT_EQ(s.total_body_cost, want);
}

TEST(Parser, ParamsAreCompileTimeConstants) {
  ParseOptions opts;
  opts.params = {{"N", 12}};
  auto prog = parse_program("LOOP flat j = 1, N\n", opts);
  EXPECT_TRUE(prog.loop(0).bound.is_constant());
  EXPECT_EQ(prog.loop(0).bound.constant, 12);
}

TEST(Parser, ParamDeclsProvideDefaults) {
  auto prog = parse_program("PARAM N = 4 * 2\nLOOP flat j = 1, N\n");
  EXPECT_EQ(prog.loop(0).bound.constant, 8);
}

TEST(Parser, CallerParamsOverrideDecls) {
  ParseOptions opts;
  opts.params = {{"N", 3}};
  auto prog = parse_program("PARAM N = 8\nLOOP flat j = 1, N\n", opts);
  EXPECT_EQ(prog.loop(0).bound.constant, 3);
}

TEST(Parser, ParamMustBeConstant) {
  EXPECT_THROW(parse_program("PARAM N = M\nLOOP x j = 1, N\n"), ParseError);
}

TEST(Parser, FullVocabularyProgramMatchesSerialOnVtime) {
  const char* src =
      "DOALL I = 1, 3\n"
      "  LOOP head T = 1, 2\n"
      "  DO K = 1, 2\n"
      "    LOOP body T = 1, K + 1\n"
      "  END\n"
      "  IF (I % 2 == 1) THEN\n"
      "    LOOP odd T = 1, 2\n"
      "  ELSE\n"
      "    LOOP even T = 1, 3\n"
      "  END\n"
      "  SECTIONS\n"
      "    SECTION\n"
      "      LOOP s1 T = 1, 2\n"
      "    SECTION\n"
      "      LOOP s2 T = 1, 2\n"
      "  END\n"
      "  DOACROSS chain T = 1, 6 DIST 1 POST 50 COST 20\n"
      "END\n";
  Recorder sr, vr;
  ParseOptions sopts, vopts;
  sopts.bodies = sr.factory();
  vopts.bodies = vr.factory();
  auto sprog = parse_program(src, sopts);
  auto vprog = parse_program(src, vopts);
  ASSERT_EQ(sprog.num_loops(), 7u);
  ASSERT_TRUE(sprog.loop(6).doacross.has_value());
  EXPECT_DOUBLE_EQ(sprog.loop(6).doacross->post_fraction, 0.5);
  baselines::run_sequential(sprog);
  const auto r = runtime::run_vtime(vprog, 4);
  EXPECT_EQ(normalized(vr.sorted(), vprog), normalized(sr.sorted(), sprog));
  EXPECT_GT(r.total.iterations, 0u);
}

TEST(Parser, SectionsSlotAccountingInsideBranches) {
  // A loop inside a SECTION is one level deeper than it looks (the
  // desugared selector loop takes a slot); index expressions inside the
  // branch must still resolve outer variables correctly.
  const char* src =
      "DOALL I = 1, 4\n"
      "  SECTIONS\n"
      "    SECTION\n"
      "      DOALL J = 1, I\n"
      "        LOOP a T = 1, I + J\n"
      "      END\n"
      "    SECTION\n"
      "      LOOP b T = 1, I\n"
      "  END\n"
      "END\n";
  Recorder sr, vr;
  ParseOptions sopts, vopts;
  sopts.bodies = sr.factory();
  vopts.bodies = vr.factory();
  auto sprog = parse_program(src, sopts);
  auto vprog = parse_program(src, vopts);
  baselines::run_sequential(sprog);
  runtime::run_vtime(vprog, 3);
  EXPECT_EQ(normalized(vr.sorted(), vprog), normalized(sr.sorted(), sprog));
}

TEST(Parser, CaseInsensitiveKeywordsAndVars) {
  auto prog = parse_program(
      "doall foo = 1, 2\n"
      "  loop leafy t = 1, FOO\n"
      "end\n");
  const auto s = baselines::run_sequential(prog);
  EXPECT_EQ(s.iterations, 3u);  // 1 + 2
}

// ------------------------------------------------------ parser errors --

struct BadCase {
  const char* label;
  const char* src;
};

// Prints the case label.  GoogleTest's default printer dumps the struct's
// bytes, pointers and padding included, and CTest names each case after
// that dump, so without this the case names changed from build to build.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.label; }

class ParserErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(ParserErrors, Throws) {
  EXPECT_THROW(parse_program(GetParam().src), ParseError)
      << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrors,
    ::testing::Values(
        BadCase{"empty", ""},
        BadCase{"unterminated_loop", "DOALL I = 1, 4\n LOOP x j = 1, 2\n"},
        BadCase{"unknown_var", "LOOP x j = 1, M\n"},
        BadCase{"leaf_var_in_bound", "DOALL I = 1, 2\n LOOP x j = 1, j\nEND"},
        BadCase{"nonunit_lower_bound", "LOOP x j = 2, 5\n"},
        BadCase{"expr_lower_bound", "DOALL I = 1, 3\n LOOP x j = I, 5\nEND"},
        BadCase{"reserved_name", "LOOP end j = 1, 5\n"},
        BadCase{"duplicate_leaf", "LOOP a j = 1, 2\nLOOP a k = 1, 2\n"},
        BadCase{"empty_then", "IF (1) THEN ELSE LOOP x j = 1, 1\nEND"},
        BadCase{"empty_section", "SECTIONS\nSECTION\nEND"},
        BadCase{"bad_dist", "DOACROSS c j = 1, 5 DIST 0\n"},
        BadCase{"bad_post", "DOACROSS c j = 1, 5 POST 200\n"},
        BadCase{"trailing", "LOOP x j = 1, 2\n )"},
        BadCase{"missing_then", "IF (1) LOOP x j = 1, 1\nEND"},
        BadCase{"leaf_var_outside_cost",
                "LOOP a j = 1, 4\nLOOP b t = 1, j\n"}));

// ------------------------------------------------------- pretty-printer --

TEST(Printer, RoundTripCompilesIdentically) {
  const char* src =
      "DOALL I = 1, 3\n"
      "  LOOP head T = 1, 2 COST I * 3\n"
      "  DO K = 1, 2\n"
      "    LOOP body T = 1, K + 1\n"
      "  END\n"
      "  IF (I % 2 == 1 && NOT (I == 3)) THEN\n"
      "    LOOP odd T = 1, 2\n"
      "  ELSE\n"
      "    LOOP even T = 1, 3\n"
      "  END\n"
      "  SECTIONS\n"
      "    SECTION\n"
      "      LOOP s1 T = 1, 2\n"
      "    SECTION\n"
      "      DOACROSS chain T = 1, 6 DIST 2 POST 25 COST 20 + T\n"
      "  END\n"
      "END\n";
  auto ast1 = parse_to_ast(src);
  const std::string printed = to_source(ast1);
  auto ast2 = parse_to_ast(printed);
  const std::string printed2 = to_source(ast2);
  EXPECT_EQ(printed, printed2) << "printing must be a fixed point";

  program::NestedLoopProgram p1(std::move(ast1));
  program::NestedLoopProgram p2(std::move(ast2));
  EXPECT_EQ(p1.describe(), p2.describe())
      << "round-tripped program must compile to identical tables";
  const auto s1 = baselines::run_sequential(p1);
  const auto s2 = baselines::run_sequential(p2);
  EXPECT_EQ(s1.iterations, s2.iterations);
  EXPECT_EQ(s1.total_body_cost, s2.total_body_cost);
}

TEST(Printer, InlinesParams) {
  ParseOptions opts;
  opts.params = {{"N", 9}};
  auto ast = parse_to_ast("LOOP flat j = 1, N\n", opts);
  EXPECT_NE(to_source(ast).find("= 1, 9"), std::string::npos);
}

TEST(Printer, RejectsHandBuiltAst) {
  program::NodeSeq top;
  top.push_back(program::doall("x", 4));
  EXPECT_THROW(to_source(top), std::logic_error);
}

TEST(Parser, ScopeEndsWithLoop) {
  // The variable of a closed loop is out of scope afterwards.
  EXPECT_THROW(parse_program("DOALL I = 1, 2\n LOOP x j = 1, 2\nEND\n"
                             "LOOP y t = 1, I\n"),
               ParseError);
}

TEST(Parser, ErrorsCarryPosition) {
  try {
    parse_program("DOALL I = 1, 4\n  LOOP x j = 1, M\nEND\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line, 2u);
    EXPECT_NE(std::string(e.what()).find("unknown variable 'M'"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace selfsched::lang
