// TQL parser: a recursive-descent parser for the temporal SQL subset.
//
// Grammar (keywords case-insensitive):
//
//   query      := select_stmt (set_op select_stmt)* [ORDER BY order_list]
//   set_op     := UNION [ALL] | EXCEPT [ALL] | MAXUNION
//   select_stmt:= [VALIDTIME [COALESCED]] SELECT [DISTINCT] select_list
//                 FROM ident (',' ident)* [WHERE expr] [GROUP BY ident_list]
//   select_list:= '*' | sel_item (',' sel_item)*
//   sel_item   := agg_call [AS ident] | expr [AS ident]
//   agg_call   := (COUNT '(' '*' ')') | (COUNT|SUM|MIN|MAX|AVG) '(' ident ')'
//   expr       := standard precedence: OR < AND < NOT < cmp < add < mul;
//                 primaries: ident, literals, '(' expr ')',
//                 OVERLAPS '(' expr ',' expr ',' expr ',' expr ')'
//   order_list := ident [ASC|DESC] (',' ident [ASC|DESC])*
//
// Integer literals must fit int64 and float literals a double; an
// expression may be at most kMaxExprDepth levels deep. Input past either
// bound is an InvalidArgument, like any other syntax error.
//
// VALIDTIME marks a statement as temporally reducible: its operations are
// translated to their temporal counterparts (Section 2.2's first statement
// class). Without VALIDTIME, time attributes are ordinary data (the second
// class). COALESCED additionally requests a coalesced result.
#ifndef TQP_TQL_PARSER_H_
#define TQP_TQL_PARSER_H_

#include <string>
#include <vector>

#include "algebra/expr.h"
#include "core/common.h"
#include "core/schema.h"

namespace tqp {

/// One item of a select list.
struct SelectItem {
  enum class Kind { kExpr, kAggregate };
  Kind kind = Kind::kExpr;
  ExprPtr expr;     // kExpr
  AggSpec agg;      // kAggregate
  std::string alias;  // output name; derived from the expression if empty
};

/// One parsed SELECT statement.
struct SelectStmt {
  bool validtime = false;
  bool coalesced = false;
  bool distinct = false;
  bool star = false;
  std::vector<SelectItem> items;
  std::vector<std::string> from;
  ExprPtr where;  // may be null
  std::vector<std::string> group_by;
};

/// A full query: SELECT statements combined with set operations, plus the
/// outermost ORDER BY.
struct QueryAst {
  enum class SetOp { kUnion, kUnionAll, kExcept, kExceptAll, kMaxUnion };

  std::vector<SelectStmt> stmts;
  std::vector<SetOp> ops;  // ops[i] combines stmts[i] and stmts[i+1]
  SortSpec order_by;
};

/// The deepest expression ParseQuery accepts, in levels: an attribute or a
/// literal is one level, and each operator (AND, OR, comparison,
/// arithmetic), NOT, OVERLAPS and pair of parentheses adds one above its
/// deepest operand, so a left-deep chain of n ANDs adds n. The translator,
/// the optimizer and both executors recurse once per level of the tree.
inline constexpr int kMaxExprDepth = 256;

/// Parses a TQL query string.
Result<QueryAst> ParseQuery(const std::string& input);

}  // namespace tqp

#endif  // TQP_TQL_PARSER_H_
