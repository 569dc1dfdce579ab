#include "tql/translator.h"

#include <algorithm>

#include "core/trace.h"

namespace tqp {

namespace {

// Builds the relational core of one SELECT statement: scans, ×/×T chain,
// σ, and π or ℵ/ℵT. DISTINCT/COALESCED are applied at the query level.
Result<PlanPtr> TranslateCore(const SelectStmt& stmt, const Catalog& catalog) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM list is empty");
  }
  PlanPtr plan;
  for (const std::string& rel : stmt.from) {
    const CatalogEntry* entry = catalog.Find(rel);
    if (entry == nullptr) {
      return Status::NotFound("relation '" + rel + "'");
    }
    if (stmt.validtime && !entry->data.IsTemporal()) {
      return Status::InvalidArgument("VALIDTIME query over non-temporal '" +
                                     rel + "'");
    }
    PlanPtr scan = PlanNode::Scan(rel);
    if (!plan) {
      plan = scan;
    } else {
      plan = stmt.validtime ? PlanNode::ProductT(plan, scan)
                            : PlanNode::Product(plan, scan);
    }
  }
  if (stmt.where) {
    plan = PlanNode::Select(plan, stmt.where);
  }

  bool has_aggs = false;
  for (const SelectItem& item : stmt.items) {
    if (item.kind == SelectItem::Kind::kAggregate) has_aggs = true;
  }
  if (!stmt.group_by.empty() && !has_aggs) {
    return Status::InvalidArgument("GROUP BY without aggregates");
  }

  if (has_aggs) {
    std::vector<AggSpec> aggs;
    for (const SelectItem& item : stmt.items) {
      if (item.kind == SelectItem::Kind::kAggregate) {
        aggs.push_back(item.agg);
        continue;
      }
      if (item.expr->kind() != ExprKind::kAttr) {
        return Status::InvalidArgument(
            "non-aggregate select item must be a grouping attribute");
      }
      bool grouped =
          std::find(stmt.group_by.begin(), stmt.group_by.end(),
                    item.expr->attr_name()) != stmt.group_by.end();
      if (!grouped) {
        return Status::InvalidArgument("select item '" +
                                       item.expr->attr_name() +
                                       "' is not in GROUP BY");
      }
    }
    plan = stmt.validtime
               ? PlanNode::AggregateT(plan, stmt.group_by, aggs)
               : PlanNode::Aggregate(plan, stmt.group_by, aggs);
    // Re-project to the select-list order and aliases.
    std::vector<ProjItem> items;
    for (const SelectItem& item : stmt.items) {
      if (item.kind == SelectItem::Kind::kAggregate) {
        items.push_back(ProjItem::Pass(item.agg.out_name));
      } else {
        items.push_back(
            ProjItem::Rename(item.expr->attr_name(), item.alias));
      }
    }
    if (stmt.validtime) {
      items.push_back(ProjItem::Pass(kT1));
      items.push_back(ProjItem::Pass(kT2));
    }
    return PlanNode::Project(plan, std::move(items));
  }

  if (stmt.star) return plan;

  std::vector<ProjItem> items;
  bool has_t1 = false, has_t2 = false;
  for (const SelectItem& item : stmt.items) {
    items.push_back(ProjItem{item.expr, item.alias});
    if (item.alias == kT1) has_t1 = true;
    if (item.alias == kT2) has_t2 = true;
  }
  if (stmt.validtime) {
    // A snapshot-reducible statement yields a temporal result: the time
    // attributes ride along implicitly.
    if (!has_t1) items.push_back(ProjItem::Pass(kT1));
    if (!has_t2) items.push_back(ProjItem::Pass(kT2));
  }
  return PlanNode::Project(plan, std::move(items));
}

}  // namespace

Result<TranslatedQuery> TranslateQuery(const QueryAst& ast,
                                       const Catalog& catalog,
                                       const TranslatorOptions& options) {
  if (ast.stmts.empty()) return Status::InvalidArgument("empty query");
  const SelectStmt& head = ast.stmts[0];
  // VALIDTIME on the leading statement scopes over the whole set-operation
  // query (TSQL2 style; the paper's example writes it once). A later
  // statement may not introduce VALIDTIME on its own.
  bool vt = head.validtime;
  for (size_t i = 1; i < ast.stmts.size(); ++i) {
    if (ast.stmts[i].validtime && !vt) {
      return Status::InvalidArgument(
          "VALIDTIME must be specified on the leading statement");
    }
  }

  TQP_ASSIGN_OR_RETURN(first, TranslateCore(head, catalog));
  PlanPtr plan = first;
  for (size_t i = 0; i < ast.ops.size(); ++i) {
    SelectStmt branch = ast.stmts[i + 1];
    branch.validtime = vt;  // inherit the query-level temporal semantics
    TQP_ASSIGN_OR_RETURN(rhs, TranslateCore(branch, catalog));
    switch (ast.ops[i]) {
      case QueryAst::SetOp::kUnionAll:
        plan = PlanNode::UnionAll(plan, rhs);
        break;
      case QueryAst::SetOp::kUnion:
        plan = vt ? PlanNode::RdupT(PlanNode::UnionAll(plan, rhs))
                  : PlanNode::Rdup(PlanNode::UnionAll(plan, rhs));
        break;
      case QueryAst::SetOp::kMaxUnion:
        plan = vt ? PlanNode::UnionT(plan, rhs) : PlanNode::Union(plan, rhs);
        break;
      case QueryAst::SetOp::kExcept:
        // Temporal difference requires a snapshot-duplicate-free left
        // argument (Section 2.1); conventional EXCEPT deduplicates both
        // sides (so the renamed rdup schemas agree).
        plan = vt ? PlanNode::DifferenceT(PlanNode::RdupT(plan), rhs)
                  : PlanNode::Difference(PlanNode::Rdup(plan),
                                         PlanNode::Rdup(rhs));
        break;
      case QueryAst::SetOp::kExceptAll:
        plan = vt ? PlanNode::DifferenceT(plan, rhs)
                  : PlanNode::Difference(plan, rhs);
        break;
    }
  }

  if (head.distinct) {
    plan = vt ? PlanNode::RdupT(plan) : PlanNode::Rdup(plan);
  }
  if (head.coalesced) {
    plan = PlanNode::Coalesce(plan);
  }
  if (!ast.order_by.empty()) {
    plan = PlanNode::Sort(plan, ast.order_by);
  }
  if (options.layered) {
    plan = PlanNode::TransferS(plan);
  }

  TranslatedQuery out;
  out.plan = plan;
  if (!ast.order_by.empty()) {
    out.contract = QueryContract::List(ast.order_by);
  } else if (head.distinct) {
    out.contract = QueryContract::Set();
  } else {
    out.contract = QueryContract::Multiset();
  }
  // A chain of set operations nests one level per statement, and everything
  // downstream recurses once per level: refuse a plan too deep to walk
  // before anything does.
  TQP_RETURN_IF_ERROR(CheckPlanDepth(plan));
  // Fail fast on malformed queries (unknown attributes, schema mismatches).
  TQP_ASSIGN_OR_RETURN(ann,
                       AnnotatedPlan::Make(plan, &catalog, out.contract));
  (void)ann;
  return out;
}

Result<TranslatedQuery> CompileQuery(const std::string& text,
                                     const Catalog& catalog,
                                     const TranslatorOptions& options) {
  auto parsed = [&] {
    // Lexing is folded into the parser; one span covers both.
    TraceSpan span(options.tracer, "tql", "parse");
    if (span.active()) span.Arg("bytes", static_cast<uint64_t>(text.size()));
    return ParseQuery(text);
  }();
  if (!parsed.ok()) return parsed.status();
  TraceSpan span(options.tracer, "tql", "translate");
  return TranslateQuery(parsed.value(), catalog, options);
}

}  // namespace tqp
