#include "tql/parser.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <system_error>

#include "tql/lexer.h"

namespace tqp {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<QueryAst> Query() {
    QueryAst ast;
    TQP_ASSIGN_OR_RETURN(first, Stmt());
    ast.stmts.push_back(std::move(first));
    while (true) {
      if (Accept("UNION")) {
        if (Accept("ALL")) {
          ast.ops.push_back(QueryAst::SetOp::kUnionAll);
        } else {
          ast.ops.push_back(QueryAst::SetOp::kUnion);
        }
      } else if (Accept("EXCEPT")) {
        if (Accept("ALL")) {
          ast.ops.push_back(QueryAst::SetOp::kExceptAll);
        } else {
          ast.ops.push_back(QueryAst::SetOp::kExcept);
        }
      } else if (Accept("MAXUNION")) {
        ast.ops.push_back(QueryAst::SetOp::kMaxUnion);
      } else {
        break;
      }
      TQP_ASSIGN_OR_RETURN(next, Stmt());
      ast.stmts.push_back(std::move(next));
    }
    if (Accept("ORDER")) {
      TQP_RETURN_IF_ERROR(Expect("BY"));
      while (true) {
        TQP_ASSIGN_OR_RETURN(name, Identifier("ORDER BY attribute"));
        bool asc = true;
        if (Accept("DESC")) {
          asc = false;
        } else {
          Accept("ASC");
        }
        ast.order_by.push_back(SortKey{name, asc});
        if (!AcceptSymbol(",")) break;
      }
    }
    if (cur().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("trailing input at offset " +
                                     std::to_string(cur().position) + ": '" +
                                     cur().text + "'");
    }
    return ast;
  }

 private:
  const Token& cur() const { return tokens_[pos_]; }

  bool Accept(const char* kw) {
    if (cur().IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AcceptSymbol(const char* s) {
    if (cur().IsSymbol(s)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(const char* kw) {
    if (!Accept(kw)) {
      return Status::InvalidArgument("expected " + std::string(kw) +
                                     " at offset " +
                                     std::to_string(cur().position));
    }
    return Status::OK();
  }

  Status ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) {
      return Status::InvalidArgument("expected '" + std::string(s) +
                                     "' at offset " +
                                     std::to_string(cur().position));
    }
    return Status::OK();
  }

  Result<std::string> Identifier(const char* what) {
    if (cur().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected " + std::string(what) +
                                     " at offset " +
                                     std::to_string(cur().position));
    }
    std::string name = cur().text;
    ++pos_;
    return name;
  }

  Result<SelectStmt> Stmt() {
    SelectStmt stmt;
    if (Accept("VALIDTIME")) {
      stmt.validtime = true;
      if (Accept("COALESCED")) stmt.coalesced = true;
    }
    TQP_RETURN_IF_ERROR(Expect("SELECT"));
    if (Accept("DISTINCT")) stmt.distinct = true;
    if (AcceptSymbol("*")) {
      stmt.star = true;
    } else {
      while (true) {
        TQP_ASSIGN_OR_RETURN(item, Item());
        stmt.items.push_back(std::move(item));
        if (!AcceptSymbol(",")) break;
      }
    }
    TQP_RETURN_IF_ERROR(Expect("FROM"));
    while (true) {
      TQP_ASSIGN_OR_RETURN(rel, Identifier("relation name"));
      stmt.from.push_back(rel);
      if (!AcceptSymbol(",")) break;
    }
    if (Accept("WHERE")) {
      TQP_ASSIGN_OR_RETURN(pred, OrExpr());
      stmt.where = pred.expr;
    }
    if (Accept("GROUP")) {
      TQP_RETURN_IF_ERROR(Expect("BY"));
      while (true) {
        TQP_ASSIGN_OR_RETURN(g, Identifier("grouping attribute"));
        stmt.group_by.push_back(g);
        if (!AcceptSymbol(",")) break;
      }
    }
    return stmt;
  }

  Result<SelectItem> Item() {
    // Aggregate call?
    for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kMin,
                      AggFunc::kMax, AggFunc::kAvg}) {
      if (!cur().IsKeyword(AggFuncName(f))) continue;
      ++pos_;
      TQP_RETURN_IF_ERROR(ExpectSymbol("("));
      SelectItem item;
      item.kind = SelectItem::Kind::kAggregate;
      item.agg.func = f;
      if (f == AggFunc::kCount && AcceptSymbol("*")) {
        item.agg.attr.clear();
      } else {
        TQP_ASSIGN_OR_RETURN(attr, Identifier("aggregate attribute"));
        item.agg.attr = attr;
      }
      TQP_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (Accept("AS")) {
        TQP_ASSIGN_OR_RETURN(alias, Identifier("alias"));
        item.alias = alias;
      } else {
        item.alias = std::string(AggFuncName(f)) + "_" +
                     (item.agg.attr.empty() ? "all" : item.agg.attr);
      }
      item.agg.out_name = item.alias;
      return item;
    }
    SelectItem item;
    item.kind = SelectItem::Kind::kExpr;
    TQP_ASSIGN_OR_RETURN(e, AddExpr());
    item.expr = e.expr;
    if (Accept("AS")) {
      TQP_ASSIGN_OR_RETURN(alias, Identifier("alias"));
      item.alias = alias;
    } else if (item.expr->kind() == ExprKind::kAttr) {
      item.alias = item.expr->attr_name();
    } else {
      item.alias = item.expr->ToString();
    }
    return item;
  }

  // A parsed expression and its depth in levels (see kMaxExprDepth).
  struct Sub {
    ExprPtr expr;
    int depth = 1;
  };

  // `e` as one level above its deepest operand.
  Result<Sub> Level(ExprPtr e, std::initializer_list<Sub> operands) const {
    int below = 0;
    for (const Sub& o : operands) below = std::max(below, o.depth);
    if (below >= kMaxExprDepth) return TooDeep();
    return Sub{std::move(e), below + 1};
  }

  // Runs `parse` one nesting level deeper: inside parentheses, NOT or
  // OVERLAPS. The parser recurses once per such level, so it refuses to
  // open more than kMaxExprDepth of them; whatever they enclose would be
  // deeper than the bound anyway.
  template <typename Parse>
  Result<Sub> Nested(const Parse& parse) {
    if (open_ >= kMaxExprDepth) return TooDeep();
    ++open_;
    Result<Sub> sub = parse();
    --open_;
    return sub;
  }

  Status TooDeep() const {
    return Status::InvalidArgument(
        "expression nested deeper than " + std::to_string(kMaxExprDepth) +
        " levels at offset " + std::to_string(cur().position));
  }

  // Expression precedence: OR < AND < NOT < comparison < additive < mult.
  Result<Sub> OrExpr() {
    Result<Sub> out = AndExpr();
    while (out.ok() && Accept("OR")) {
      TQP_ASSIGN_OR_RETURN(rhs, AndExpr());
      out = Level(Expr::Or(out->expr, rhs.expr), {*out, rhs});
    }
    return out;
  }

  Result<Sub> AndExpr() {
    Result<Sub> out = NotExpr();
    while (out.ok() && Accept("AND")) {
      TQP_ASSIGN_OR_RETURN(rhs, NotExpr());
      out = Level(Expr::And(out->expr, rhs.expr), {*out, rhs});
    }
    return out;
  }

  Result<Sub> NotExpr() {
    if (Accept("NOT")) {
      TQP_ASSIGN_OR_RETURN(e, Nested([&] { return NotExpr(); }));
      return Level(Expr::Not(e.expr), {e});
    }
    return CmpExpr();
  }

  Result<Sub> CmpExpr() {
    TQP_ASSIGN_OR_RETURN(lhs, AddExpr());
    struct OpMap {
      const char* sym;
      CompareOp op;
    };
    static const OpMap kOps[] = {
        {"=", CompareOp::kEq},  {"<>", CompareOp::kNe}, {"<=", CompareOp::kLe},
        {">=", CompareOp::kGe}, {"<", CompareOp::kLt},  {">", CompareOp::kGt},
    };
    for (const OpMap& m : kOps) {
      if (AcceptSymbol(m.sym)) {
        TQP_ASSIGN_OR_RETURN(rhs, AddExpr());
        return Level(Expr::Compare(m.op, lhs.expr, rhs.expr), {lhs, rhs});
      }
    }
    return lhs;
  }

  Result<Sub> AddExpr() {
    Result<Sub> out = MulExpr();
    while (out.ok()) {
      ArithOp op;
      if (AcceptSymbol("+")) {
        op = ArithOp::kAdd;
      } else if (AcceptSymbol("-")) {
        op = ArithOp::kSub;
      } else {
        break;
      }
      TQP_ASSIGN_OR_RETURN(rhs, MulExpr());
      out = Level(Expr::Arith(op, out->expr, rhs.expr), {*out, rhs});
    }
    return out;
  }

  Result<Sub> MulExpr() {
    Result<Sub> out = Primary();
    while (out.ok()) {
      ArithOp op;
      if (AcceptSymbol("*")) {
        op = ArithOp::kMul;
      } else if (AcceptSymbol("/")) {
        op = ArithOp::kDiv;
      } else {
        break;
      }
      TQP_ASSIGN_OR_RETURN(rhs, Primary());
      out = Level(Expr::Arith(op, out->expr, rhs.expr), {*out, rhs});
    }
    return out;
  }

  Result<Sub> Primary() {
    const Token& t = cur();
    switch (t.kind) {
      case TokenKind::kIdentifier:
        ++pos_;
        return Sub{Expr::Attr(t.text)};
      case TokenKind::kInteger:
      case TokenKind::kFloat: {
        // The lexer passes digits with at most one '.', so from_chars
        // fails only on a value out of the int64 or double range.
        const bool integer = t.kind == TokenKind::kInteger;
        int64_t i = 0;
        double d = 0.0;
        const char* end = t.text.data() + t.text.size();
        if ((integer ? std::from_chars(t.text.data(), end, i).ec
                     : std::from_chars(t.text.data(), end, d).ec) !=
            std::errc()) {
          return Status::InvalidArgument("numeric literal " + t.text +
                                         " out of range at offset " +
                                         std::to_string(t.position));
        }
        ++pos_;
        return Sub{Expr::Const(integer ? Value::Int(i) : Value::Double(d))};
      }
      case TokenKind::kString:
        ++pos_;
        return Sub{Expr::Const(Value::String(t.text))};
      case TokenKind::kKeyword:
        if (t.text == "OVERLAPS") {
          ++pos_;
          return Nested([&]() -> Result<Sub> {
            TQP_RETURN_IF_ERROR(ExpectSymbol("("));
            TQP_ASSIGN_OR_RETURN(a, AddExpr());
            TQP_RETURN_IF_ERROR(ExpectSymbol(","));
            TQP_ASSIGN_OR_RETURN(b, AddExpr());
            TQP_RETURN_IF_ERROR(ExpectSymbol(","));
            TQP_ASSIGN_OR_RETURN(c, AddExpr());
            TQP_RETURN_IF_ERROR(ExpectSymbol(","));
            TQP_ASSIGN_OR_RETURN(d, AddExpr());
            TQP_RETURN_IF_ERROR(ExpectSymbol(")"));
            return Level(Expr::Overlaps(a.expr, b.expr, c.expr, d.expr),
                         {a, b, c, d});
          });
        }
        break;
      case TokenKind::kSymbol:
        if (t.IsSymbol("(")) {
          ++pos_;
          return Nested([&]() -> Result<Sub> {
            TQP_ASSIGN_OR_RETURN(e, OrExpr());
            TQP_RETURN_IF_ERROR(ExpectSymbol(")"));
            return Level(e.expr, {e});
          });
        }
        break;
      default:
        break;
    }
    return Status::InvalidArgument("unexpected token '" + t.text +
                                   "' at offset " + std::to_string(t.position));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int open_ = 0;  // parentheses, NOTs and OVERLAPS enclosing the position
};

}  // namespace

Result<QueryAst> ParseQuery(const std::string& input) {
  TQP_ASSIGN_OR_RETURN(tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.Query();
}

}  // namespace tqp
