#include "backend/sql_serializer.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace tqp {

namespace {

bool NumericType(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble ||
         t == ValueType::kTime;
}

// "c0, c1, ..., c{n-1}"
std::string BareCols(size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    if (i) s += ", ";
    s += "c" + std::to_string(i);
  }
  return s;
}

// "a.c0 AS c0, a.c1 AS c1, ..." with an optional output-index offset
// ("b.c0 AS c3, ..." for the right side of a product).
std::string AliasedCols(const std::string& alias, size_t n, size_t out_base = 0) {
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    if (i) s += ", ";
    s += alias + ".c" + std::to_string(i) + " AS c" + std::to_string(out_base + i);
  }
  return s;
}

// "s.c0, s.c1, ..." — GROUP BY / PARTITION BY key list.
std::string QualifiedCols(const std::string& alias, size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    if (i) s += ", ";
    s += alias + ".c" + std::to_string(i);
  }
  return s;
}

// "a.c0 IS b.c0 AND ..." — null-safe equi-join over all columns.
std::string NullSafeJoin(const std::string& a, const std::string& b, size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    if (i) s += " AND ";
    s += a + ".c" + std::to_string(i) + " IS " + b + ".c" + std::to_string(i);
  }
  return s;
}

const char* CompareToken(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "=";
}

const char* ArithToken(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
  }
  return "+";
}

Status Refuse(const std::string& what) {
  return Status::Error("not pushable: " + what);
}

// ---- Expression translation --------------------------------------------
//
// Expressions translate to SQL that mirrors the stratum evaluator's exact
// semantics (expr.cc), which differ from SQL three-valued logic: AND
// short-circuits on a non-null false lhs *before* null-poisoning on the rhs
// (NULL AND 0 is NULL in the stratum, 0 in SQL), all arithmetic happens in
// double with integral results truncated toward zero, and comparisons
// return 1/0/NULL values. Each construct becomes a CASE expression encoding
// the stratum's evaluation order, except a comparison: SQL's own `(l) op (r)`
// is already 1, 0, or NULL when either side is NULL, the stratum's value.
//
// In WHERE position (Where) only survival matters: σ keeps a row exactly
// when the stratum value is non-null and non-zero, so an AND survives
// exactly when both operands survive, which is SQL's AND of their WHERE
// forms, and drops its CASE wrapper there. OR, NOT and OVERLAPS keep their
// CASE translations, whose 1/0/NULL value SQL's WHERE reads as the stratum
// does: OR cannot go bare, since SQL's `NULL OR 1` is true where the
// stratum's is NULL, nor can NOT, since its operand's NULL-versus-0
// distinction (the stratum's `NULL AND 0` is NULL, SQL's is false) is what
// it negates.

struct ExprTr {
  const Schema& schema;
  // Column reference for attribute index i ("s.c3", or the product-fused
  // "a.c0"/"b.c1" split).
  std::function<std::string(size_t)> col;
  std::vector<Value>* params;  // nullptr => check only, emit nothing

  Result<std::string> Tr(const ExprPtr& e) const {
    switch (e->kind()) {
      case ExprKind::kAttr: {
        int idx = schema.IndexOf(e->attr_name());
        if (idx < 0) return Refuse("unknown attribute " + e->attr_name());
        return col(static_cast<size_t>(idx));
      }
      case ExprKind::kConst: {
        if (e->constant().is_null()) return std::string("NULL");
        // SQLite binds a NaN as NULL, where the stratum keeps a NaN that
        // compares equal to every number.
        if (e->constant().type() == ValueType::kDouble &&
            std::isnan(e->constant().AsDouble())) {
          return Refuse("NaN constant");
        }
        if (params == nullptr) return std::string("?1");  // check-only
        // Numbered parameter: the CASE translations splice an operand's SQL
        // more than once, and every occurrence must bind this one value (a
        // bare "?" would mint a fresh — unbound — parameter per splice).
        params->push_back(e->constant());
        return "?" + std::to_string(params->size());
      }
      case ExprKind::kCompare: {
        TQP_ASSIGN_OR_RETURN(lt, DeriveExprType(e->children()[0], schema));
        TQP_ASSIGN_OR_RETURN(rt, DeriveExprType(e->children()[1], schema));
        // The stratum's type-rank order puts time above string; SQLite puts
        // every INTEGER below every TEXT.
        if ((lt == ValueType::kTime && rt == ValueType::kString) ||
            (lt == ValueType::kString && rt == ValueType::kTime)) {
          return Refuse("time vs string comparison");
        }
        TQP_ASSIGN_OR_RETURN(l, Tr(e->children()[0]));
        TQP_ASSIGN_OR_RETURN(r, Tr(e->children()[1]));
        return "(" + l + ") " + CompareToken(e->compare_op()) + " (" + r +
               ")";
      }
      case ExprKind::kAnd: {
        TQP_RETURN_IF_ERROR(CheckBoolOperand(e->children()[0]));
        TQP_RETURN_IF_ERROR(CheckBoolOperand(e->children()[1]));
        TQP_ASSIGN_OR_RETURN(l, Tr(e->children()[0]));
        TQP_ASSIGN_OR_RETURN(r, Tr(e->children()[1]));
        // Stratum AND: non-null false lhs wins before null-poisoning.
        return "CASE WHEN (" + l + ") = 0 THEN 0 WHEN (" + l +
               ") IS NULL OR (" + r + ") IS NULL THEN NULL WHEN (" + r +
               ") <> 0 THEN 1 ELSE 0 END";
      }
      case ExprKind::kOr: {
        TQP_RETURN_IF_ERROR(CheckBoolOperand(e->children()[0]));
        TQP_RETURN_IF_ERROR(CheckBoolOperand(e->children()[1]));
        TQP_ASSIGN_OR_RETURN(l, Tr(e->children()[0]));
        TQP_ASSIGN_OR_RETURN(r, Tr(e->children()[1]));
        return "CASE WHEN (" + l + ") IS NOT NULL AND (" + l +
               ") <> 0 THEN 1 WHEN (" + l + ") IS NULL OR (" + r +
               ") IS NULL THEN NULL WHEN (" + r + ") <> 0 THEN 1 ELSE 0 END";
      }
      case ExprKind::kNot: {
        TQP_RETURN_IF_ERROR(CheckBoolOperand(e->children()[0]));
        TQP_ASSIGN_OR_RETURN(x, Tr(e->children()[0]));
        return "CASE WHEN (" + x + ") IS NULL THEN NULL WHEN (" + x +
               ") = 0 THEN 1 ELSE 0 END";
      }
      case ExprKind::kArith: {
        if (e->arith_op() == ArithOp::kDiv) {
          return Refuse("division (NULL-on-zero, always-double result)");
        }
        TQP_ASSIGN_OR_RETURN(lt, DeriveExprType(e->children()[0], schema));
        TQP_ASSIGN_OR_RETURN(rt, DeriveExprType(e->children()[1], schema));
        if (!NumericType(lt) || !NumericType(rt)) {
          return Refuse("non-numeric arithmetic operand");
        }
        // inf - inf, inf + -inf and inf * 0 are NaN in the stratum. Int and
        // Time operands compute on finite values and never yield one.
        if (lt == ValueType::kDouble || rt == ValueType::kDouble) {
          return Refuse(
              "double arithmetic: SQLite turns a NaN result into NULL");
        }
        TQP_ASSIGN_OR_RETURN(l, Tr(e->children()[0]));
        TQP_ASSIGN_OR_RETURN(r, Tr(e->children()[1]));
        // The stratum computes in double and truncates integral results
        // toward zero (static_cast); CAST(REAL AS INTEGER) does the same.
        std::string core = "CAST((" + l + ") AS REAL) " +
                           std::string(ArithToken(e->arith_op())) + " CAST((" +
                           r + ") AS REAL)";
        return "CAST(" + core + " AS INTEGER)";
      }
      case ExprKind::kOverlaps: {
        std::vector<std::string> ops;
        for (const ExprPtr& c : e->children()) {
          TQP_ASSIGN_OR_RETURN(t, DeriveExprType(c, schema));
          if (!NumericType(t) && t != ValueType::kNull) {
            return Refuse("non-numeric OVERLAPS operand");
          }
          TQP_ASSIGN_OR_RETURN(s, Tr(c));
          ops.push_back(std::move(s));
        }
        return "CASE WHEN (" + ops[0] + ") IS NULL OR (" + ops[1] +
               ") IS NULL OR (" + ops[2] + ") IS NULL OR (" + ops[3] +
               ") IS NULL THEN NULL WHEN (" + ops[0] + ") < (" + ops[3] +
               ") AND (" + ops[2] + ") < (" + ops[1] +
               ") THEN 1 ELSE 0 END";
      }
    }
    return Status::Error("unreachable expression kind");
  }

  /// `e` as a σ predicate: SQL whose WHERE truth is the stratum's survival
  /// (see the section comment).
  Result<std::string> Where(const ExprPtr& e) const {
    if (e->kind() != ExprKind::kAnd) return Tr(e);
    TQP_RETURN_IF_ERROR(CheckBoolOperand(e->children()[0]));
    TQP_RETURN_IF_ERROR(CheckBoolOperand(e->children()[1]));
    TQP_ASSIGN_OR_RETURN(l, Where(e->children()[0]));
    TQP_ASSIGN_OR_RETURN(r, Where(e->children()[1]));
    return "(" + l + ") AND (" + r + ")";
  }

  // AND/OR/NOT operands feed NumericValue() in the stratum; a string there
  // would be a crash in-engine and a text-affinity comparison in SQL.
  Status CheckBoolOperand(const ExprPtr& e) const {
    TQP_ASSIGN_OR_RETURN(t, DeriveExprType(e, schema));
    if (t == ValueType::kString) return Refuse("string boolean operand");
    return Status::OK();
  }
};

std::string SimpleColRefFn(size_t i) { return "s.c" + std::to_string(i); }

// ---- Per-operator checks ------------------------------------------------

bool AnyDoubleColumn(const Schema& s) {
  for (const Attribute& a : s.attrs()) {
    if (a.type == ValueType::kDouble) return true;
  }
  return false;
}

}  // namespace

std::string SqlSerializer::MirrorTable(const std::string& rel_name) {
  static const char kHex[] = "0123456789abcdef";
  std::string table = "rel_";
  for (unsigned char c : rel_name) {
    table += kHex[c >> 4];
    table += kHex[c & 0xf];
  }
  return table;
}

Status SqlSerializer::Check(const PlanPtr& node) const {
  const NodeInfo& info = ann_.info(node.get());
  switch (node->kind()) {
    case OpKind::kScan: {
      const CatalogEntry* e = ann_.catalog().Find(node->rel_name());
      if (e == nullptr) return Refuse("unknown relation " + node->rel_name());
      if (e->site != Site::kDbms) {
        return Refuse("relation " + node->rel_name() + " not at DBMS site");
      }
      return Status::OK();
    }
    case OpKind::kSelect: {
      const Schema& in = ann_.info(node->child(0).get()).schema;
      ExprTr tr{in, SimpleColRefFn, nullptr};
      TQP_ASSIGN_OR_RETURN(t, DeriveExprType(node->predicate(), in));
      if (t == ValueType::kString) return Refuse("string-typed predicate");
      TQP_ASSIGN_OR_RETURN(sql, tr.Where(node->predicate()));
      (void)sql;
      return Check(node->child(0));
    }
    case OpKind::kProject: {
      const Schema& in = ann_.info(node->child(0).get()).schema;
      ExprTr tr{in, SimpleColRefFn, nullptr};
      for (const ProjItem& item : node->projections()) {
        TQP_ASSIGN_OR_RETURN(sql, tr.Tr(item.expr));
        (void)sql;
      }
      return Check(node->child(0));
    }
    case OpKind::kUnionAll:
    case OpKind::kProduct:
      TQP_RETURN_IF_ERROR(Check(node->child(0)));
      return Check(node->child(1));
    case OpKind::kUnion:
    case OpKind::kDifference: {
      // Duplicate counting partitions by full tuples; a double column can
      // hold distinct Compare-equal keys (-0.0/0.0) whose surviving
      // representative SQL leaves unspecified.
      if (AnyDoubleColumn(info.schema)) {
        return Refuse("duplicate-sensitive operator over double column");
      }
      TQP_RETURN_IF_ERROR(Check(node->child(0)));
      return Check(node->child(1));
    }
    case OpKind::kRdup: {
      const Schema& in = ann_.info(node->child(0).get()).schema;
      if (in.IsTemporal()) return Refuse("rdup over temporal schema");
      if (AnyDoubleColumn(in)) {
        return Refuse("rdup over double column");
      }
      return Check(node->child(0));
    }
    case OpKind::kSort: {
      const Schema& in = ann_.info(node->child(0).get()).schema;
      for (const SortKey& k : node->sort_spec()) {
        if (in.IndexOf(k.attr) < 0) {
          return Refuse("sort key " + k.attr + " not in schema");
        }
      }
      return Check(node->child(0));
    }
    case OpKind::kAggregate: {
      const Schema& in = ann_.info(node->child(0).get()).schema;
      for (const std::string& g : node->group_by()) {
        int idx = in.IndexOf(g);
        if (idx < 0) return Refuse("group key " + g + " not in schema");
        if (in.attr(static_cast<size_t>(idx)).type == ValueType::kDouble) {
          return Refuse("grouping on double column");
        }
      }
      for (const AggSpec& a : node->aggregates()) {
        if (a.func == AggFunc::kCount) continue;  // COUNT counts all rows
        int idx = in.IndexOf(a.attr);
        if (idx < 0) return Refuse("aggregate input " + a.attr + " missing");
        ValueType t = in.attr(static_cast<size_t>(idx)).type;
        if (a.func == AggFunc::kSum || a.func == AggFunc::kAvg) {
          // The stratum accumulates in double and, for SUM, casts back by
          // the *input* type; only int inputs round-trip exactly.
          if (t != ValueType::kInt) return Refuse("SUM/AVG over non-int");
        } else if (t == ValueType::kDouble) {  // kMin / kMax
          return Refuse("MIN/MAX over double column");
        }
      }
      return Check(node->child(0));
    }
    case OpKind::kProductT:
    case OpKind::kDifferenceT:
    case OpKind::kAggregateT:
    case OpKind::kRdupT:
    case OpKind::kUnionT:
    case OpKind::kCoalesce:
      return Refuse("temporal operator");
    case OpKind::kTransferS:
    case OpKind::kTransferD:
      return Refuse("nested transfer");
  }
  return Status::Error("unreachable operator kind");
}

namespace {

constexpr int64_t kRowsBound = int64_t{1} << 40;

struct SqlBuilder {
  const AnnotatedPlan& ann;
  std::vector<std::string> ctes;
  std::vector<Value>* params;
  int next_id = 0;

  std::string NewCte(const std::string& body) {
    std::string name = "t" + std::to_string(next_id++);
    ctes.push_back(name + " AS (" + body + ")");
    return name;
  }

  const Schema& SchemaOf(const PlanPtr& n) const {
    return ann.info(n.get()).schema;
  }

  // An integer no smaller than any ord of `node`'s CTE. A scan's ords are
  // its mirror table's rowids, 1 to the relation's row count, and × and
  // sort number their rows from 1, so kRowsBound bounds each: no relation
  // held in memory, nor any CTE SQLite numbers, has 2^40 rows. σ, π, \,
  // rdup and ℵ keep a subset of their input's ords or group minima, so each
  // takes its input's bound. ⊎ and ∪ shift right ords by the left bound,
  // so they take the sum (a cut would need 2^23 scans to overflow it). The
  // bound is a literal, not SQL: a second reference to a CTE makes SQLite
  // materialize it and every CTE below it, and a sum of MAX(rowid) probes
  // nests one level deeper per ⊎ of a left-deep chain, past SQLite's
  // parser stack at 100.
  static int64_t Bound(const PlanNode* node) {
    switch (node->kind()) {
      case OpKind::kScan:
      case OpKind::kProduct:
      case OpKind::kSort:
        return kRowsBound;
      case OpKind::kUnionAll:
      case OpKind::kUnion:
        return Bound(node->child(0).get()) + Bound(node->child(1).get());
      default:  // σ, π, \, rdup, ℵ: Check admits no other operator
        return Bound(node->child(0).get());
    }
  }

  // Body of a fused "σ over ×" or a bare "×": the product pairs stream
  // through the DBMS's join machinery with the predicate applied in place,
  // and ROW_NUMBER over (left ord, right ord) restores the exact
  // left-major product order restricted to survivors.
  Result<std::string> ProductBody(const PlanPtr& product,
                                  const ExprPtr& predicate) {
    size_t la = SchemaOf(product->child(0)).size();
    size_t lb = SchemaOf(product->child(1)).size();
    TQP_ASSIGN_OR_RETURN(l, Emit(product->child(0)));
    TQP_ASSIGN_OR_RETURN(r, Emit(product->child(1)));
    std::string body = "SELECT " + AliasedCols("a", la) + ", " +
                       AliasedCols("b", lb, la) +
                       ", ROW_NUMBER() OVER (ORDER BY a.ord, b.ord) AS ord "
                       "FROM " + l + " AS a, " + r + " AS b";
    if (predicate != nullptr) {
      const Schema& ps = SchemaOf(product);
      ExprTr tr{ps,
                [la](size_t i) {
                  return i < la ? "a.c" + std::to_string(i)
                                : "b.c" + std::to_string(i - la);
                },
                params};
      TQP_ASSIGN_OR_RETURN(pred, tr.Where(predicate));
      body += " WHERE " + pred;
    }
    return body;
  }

  // Emits the subtree as CTEs and returns the name of its CTE. Every CTE
  // has columns c0..cN-1 plus ord, the reference list position: a unique
  // positive integer per row, increasing in list order (gaps allowed).
  Result<std::string> Emit(const PlanPtr& node) {
    const Schema& schema = SchemaOf(node);
    size_t n = schema.size();
    switch (node->kind()) {
      case OpKind::kScan:
        return NewCte("SELECT " + BareCols(n) + ", rowid AS ord FROM \"" +
                      SqlSerializer::MirrorTable(node->rel_name()) + "\"");
      case OpKind::kSelect: {
        if (node->child(0)->kind() == OpKind::kProduct) {
          TQP_ASSIGN_OR_RETURN(
              body, ProductBody(node->child(0), node->predicate()));
          return NewCte(body);
        }
        const Schema& in = SchemaOf(node->child(0));
        TQP_ASSIGN_OR_RETURN(c, Emit(node->child(0)));
        ExprTr tr{in, SimpleColRefFn, params};
        TQP_ASSIGN_OR_RETURN(pred, tr.Where(node->predicate()));
        return NewCte("SELECT " + AliasedCols("s", n) +
                      ", s.ord AS ord FROM " + c + " AS s WHERE " + pred);
      }
      case OpKind::kProduct: {
        TQP_ASSIGN_OR_RETURN(body, ProductBody(node, nullptr));
        return NewCte(body);
      }
      case OpKind::kProject: {
        const Schema& in = SchemaOf(node->child(0));
        TQP_ASSIGN_OR_RETURN(c, Emit(node->child(0)));
        ExprTr tr{in, SimpleColRefFn, params};
        std::string body = "SELECT ";
        const std::vector<ProjItem>& items = node->projections();
        for (size_t i = 0; i < items.size(); ++i) {
          TQP_ASSIGN_OR_RETURN(e, tr.Tr(items[i].expr));
          if (i) body += ", ";
          body += "(" + e + ") AS c" + std::to_string(i);
        }
        body += ", s.ord AS ord FROM " + c + " AS s";
        return NewCte(body);
      }
      case OpKind::kUnionAll: {
        // Left rows keep their ords; right rows, shifted past the left
        // bound, follow all of them in their own order, with no sort.
        TQP_ASSIGN_OR_RETURN(l, Emit(node->child(0)));
        TQP_ASSIGN_OR_RETURN(r, Emit(node->child(1)));
        return NewCte("SELECT " + AliasedCols("s", n) +
                      ", s.ord AS ord FROM " + l + " AS s UNION ALL SELECT " +
                      AliasedCols("s", n) + ", s.ord + " +
                      std::to_string(Bound(node->child(0).get())) +
                      " AS ord FROM " + r + " AS s");
      }
      case OpKind::kUnion: {
        // ∪ keeps all left occurrences plus the right occurrences whose
        // per-value rank exceeds the left multiplicity (max-multiplicity
        // union), right survivors in right order after all left rows.
        TQP_ASSIGN_OR_RETURN(l, Emit(node->child(0)));
        TQP_ASSIGN_OR_RETURN(r, Emit(node->child(1)));
        std::string ranked_right =
            "SELECT " + AliasedCols("s", n) + ", s.ord AS ord"
            ", ROW_NUMBER() OVER (PARTITION BY " + QualifiedCols("s", n) +
            " ORDER BY s.ord) AS rn FROM " + r + " AS s";
        std::string left_counts =
            "SELECT " + AliasedCols("s", n) + ", COUNT(*) AS cnt FROM " + l +
            " AS s GROUP BY " + QualifiedCols("s", n);
        return NewCte("SELECT " + AliasedCols("s", n) +
                      ", s.ord AS ord FROM " + l + " AS s UNION ALL SELECT " +
                      AliasedCols("rr", n) + ", rr.ord + " +
                      std::to_string(Bound(node->child(0).get())) +
                      " AS ord FROM (" +
                      ranked_right + ") AS rr LEFT JOIN (" +
                      left_counts + ") AS lc ON " +
                      NullSafeJoin("rr", "lc", n) +
                      " WHERE rr.rn > COALESCE(lc.cnt, 0)");
      }
      case OpKind::kDifference: {
        // Each right occurrence cancels the earliest surviving matching
        // left occurrence: survivors are left occurrences whose per-value
        // rank exceeds the right multiplicity, in left order.
        TQP_ASSIGN_OR_RETURN(l, Emit(node->child(0)));
        TQP_ASSIGN_OR_RETURN(r, Emit(node->child(1)));
        std::string ranked_left =
            "SELECT " + AliasedCols("s", n) + ", s.ord AS ord"
            ", ROW_NUMBER() OVER (PARTITION BY " + QualifiedCols("s", n) +
            " ORDER BY s.ord) AS rn FROM " + l + " AS s";
        std::string right_counts =
            "SELECT " + AliasedCols("s", n) + ", COUNT(*) AS cnt FROM " + r +
            " AS s GROUP BY " + QualifiedCols("s", n);
        return NewCte("SELECT " + AliasedCols("ll", n) +
                      ", ll.ord AS ord FROM (" + ranked_left +
                      ") AS ll LEFT JOIN (" + right_counts + ") AS rc ON " +
                      NullSafeJoin("ll", "rc", n) +
                      " WHERE ll.rn > COALESCE(rc.cnt, 0)");
      }
      case OpKind::kRdup: {
        TQP_ASSIGN_OR_RETURN(c, Emit(node->child(0)));
        return NewCte("SELECT " + AliasedCols("s", n) +
                      ", MIN(s.ord) AS ord FROM " + c + " AS s GROUP BY " +
                      QualifiedCols("s", n));
      }
      case OpKind::kSort: {
        const Schema& in = SchemaOf(node->child(0));
        TQP_ASSIGN_OR_RETURN(c, Emit(node->child(0)));
        std::string keys;
        for (const SortKey& k : node->sort_spec()) {
          int idx = in.IndexOf(k.attr);
          if (idx < 0) return Refuse("sort key " + k.attr + " not in schema");
          keys += "s.c" + std::to_string(idx) +
                  (k.ascending ? " ASC, " : " DESC, ");
        }
        // Stable: ties keep input order via the input's ord. SQLite's
        // NULLS-first-ASC / NULLS-last-DESC matches the stratum's total
        // value order (nulls rank lowest).
        return NewCte("SELECT " + AliasedCols("s", n) +
                      ", ROW_NUMBER() OVER (ORDER BY " + keys +
                      "s.ord) AS ord FROM " + c + " AS s");
      }
      case OpKind::kAggregate: {
        const Schema& in = SchemaOf(node->child(0));
        TQP_ASSIGN_OR_RETURN(c, Emit(node->child(0)));
        const std::vector<std::string>& group = node->group_by();
        std::string body = "SELECT ";
        std::string keys;
        for (size_t i = 0; i < group.size(); ++i) {
          int idx = in.IndexOf(group[i]);
          if (idx < 0) return Refuse("group key missing");
          if (i) keys += ", ";
          keys += "s.c" + std::to_string(idx);
          body += "s.c" + std::to_string(idx) + " AS c" + std::to_string(i) +
                  ", ";
        }
        const std::vector<AggSpec>& aggs = node->aggregates();
        for (size_t j = 0; j < aggs.size(); ++j) {
          const AggSpec& a = aggs[j];
          std::string e;
          if (a.func == AggFunc::kCount) {
            // The stratum's COUNT counts every row, nulls included.
            e = "COUNT(*)";
          } else {
            int idx = in.IndexOf(a.attr);
            if (idx < 0) return Refuse("aggregate input missing");
            std::string col = "s.c" + std::to_string(idx);
            switch (a.func) {
              case AggFunc::kSum:
                // All-null group => NULL; else double-accumulated sum cast
                // back to int (exact for int inputs), as the stratum does.
                e = "CASE WHEN COUNT(" + col +
                    ") = 0 THEN NULL ELSE CAST(TOTAL(" + col +
                    ") AS INTEGER) END";
                break;
              case AggFunc::kAvg:
                e = "AVG(" + col + ")";
                break;
              case AggFunc::kMin:
                e = "MIN(" + col + ")";
                break;
              case AggFunc::kMax:
                e = "MAX(" + col + ")";
                break;
              case AggFunc::kCount:
                break;  // handled above
            }
          }
          body += e + " AS c" + std::to_string(group.size() + j) + ", ";
        }
        // Groups surface in first-occurrence order via MIN(ord).
        body += "MIN(s.ord) AS ord FROM " + c + " AS s";
        if (!keys.empty()) {
          body += " GROUP BY " + keys;
        } else {
          // SQL's global aggregate yields one row on empty input; the
          // stratum's ℵ yields none.
          body += " HAVING COUNT(*) > 0";
        }
        return NewCte(body);
      }
      default:
        return Refuse(std::string("operator ") + OpKindName(node->kind()));
    }
  }
};

}  // namespace

Result<SerializedSql> SqlSerializer::Serialize(const PlanPtr& node) const {
  TQP_RETURN_IF_ERROR(Check(node));
  SerializedSql out;
  SqlBuilder b{ann_, {}, &out.params, 0};
  TQP_ASSIGN_OR_RETURN(top, b.Emit(node));
  size_t n = ann_.info(node.get()).schema.size();
  std::string sql = "WITH ";
  for (size_t i = 0; i < b.ctes.size(); ++i) {
    if (i) sql += ", ";
    sql += b.ctes[i];
  }
  sql += " SELECT " + BareCols(n) + " FROM " + top + " ORDER BY ord";
  out.sql = std::move(sql);
  return out;
}

}  // namespace tqp
