#include "algebra/derivation.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

namespace tqp {

const char* ResultTypeName(ResultType t) {
  switch (t) {
    case ResultType::kList:
      return "list";
    case ResultType::kMultiset:
      return "multiset";
    case ResultType::kSet:
      return "set";
  }
  return "?";
}

std::string NodeInfo::PropertiesBrackets() const {
  std::string out = "[";
  out += order_required ? "T" : "-";
  out += " ";
  out += duplicates_relevant ? "T" : "-";
  out += " ";
  out += period_preserving ? "T" : "-";
  out += "]";
  return out;
}

Result<ValueType> DeriveExprType(const ExprPtr& expr, const Schema& schema) {
  switch (expr->kind()) {
    case ExprKind::kAttr: {
      int idx = schema.IndexOf(expr->attr_name());
      if (idx < 0) {
        return Status::InvalidArgument("unknown attribute '" +
                                       expr->attr_name() + "' in " +
                                       schema.ToString());
      }
      return schema.attr(static_cast<size_t>(idx)).type;
    }
    case ExprKind::kConst:
      return expr->constant().type();
    case ExprKind::kCompare:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
    case ExprKind::kOverlaps:
      for (const ExprPtr& c : expr->children()) {
        TQP_ASSIGN_OR_RETURN(t, DeriveExprType(c, schema));
        (void)t;
      }
      return ValueType::kInt;
    case ExprKind::kArith: {
      TQP_ASSIGN_OR_RETURN(lt, DeriveExprType(expr->children()[0], schema));
      TQP_ASSIGN_OR_RETURN(rt, DeriveExprType(expr->children()[1], schema));
      if (expr->arith_op() == ArithOp::kDiv) return ValueType::kDouble;
      if (lt == ValueType::kDouble || rt == ValueType::kDouble) {
        return ValueType::kDouble;
      }
      if (lt == ValueType::kTime || rt == ValueType::kTime) {
        return ValueType::kTime;
      }
      return ValueType::kInt;
    }
  }
  return Status::Error("unreachable expression kind");
}

namespace {

// Attribute renaming used by product: a left attribute that clashes with a
// right attribute becomes "1.<name>", and vice versa with "2.".
std::string ProductName(const std::string& name, const Schema& other,
                        const char* prefix) {
  if (other.HasAttr(name)) return std::string(prefix) + name;
  return name;
}

Status AddAttr(Schema* s, Attribute a) {
  if (s->HasAttr(a.name)) {
    return Status::InvalidArgument("duplicate attribute '" + a.name +
                                   "' in derived schema");
  }
  s->Add(std::move(a));
  return Status::OK();
}

}  // namespace

Result<Schema> DeriveSchema(const PlanNode& node,
                            const std::vector<Schema>& child_schemas,
                            const Catalog& catalog) {
  switch (node.kind()) {
    case OpKind::kScan: {
      const CatalogEntry* entry = catalog.Find(node.rel_name());
      if (entry == nullptr) {
        return Status::NotFound("relation '" + node.rel_name() + "'");
      }
      return entry->data.schema();
    }
    case OpKind::kSelect: {
      const Schema& in = child_schemas[0];
      for (const std::string& a : node.predicate()->ReferencedAttrs()) {
        if (!in.HasAttr(a)) {
          return Status::InvalidArgument("selection references unknown '" + a +
                                         "' in " + in.ToString());
        }
      }
      return in;
    }
    case OpKind::kProject: {
      const Schema& in = child_schemas[0];
      Schema out;
      for (const ProjItem& item : node.projections()) {
        TQP_ASSIGN_OR_RETURN(t, DeriveExprType(item.expr, in));
        TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{item.name, t}));
      }
      return out;
    }
    case OpKind::kUnionAll:
    case OpKind::kUnion:
    case OpKind::kDifference: {
      if (child_schemas[0] != child_schemas[1]) {
        return Status::InvalidArgument(
            std::string(OpKindName(node.kind())) +
            " requires identical schemas: " + child_schemas[0].ToString() +
            " vs " + child_schemas[1].ToString());
      }
      return child_schemas[0];
    }
    case OpKind::kUnionT:
    case OpKind::kDifferenceT: {
      if (child_schemas[0] != child_schemas[1]) {
        return Status::InvalidArgument(
            std::string(OpKindName(node.kind())) +
            " requires identical schemas");
      }
      if (!child_schemas[0].IsTemporal()) {
        return Status::InvalidArgument(
            std::string(OpKindName(node.kind())) +
            " requires temporal arguments");
      }
      return child_schemas[0];
    }
    case OpKind::kProduct: {
      const Schema& l = child_schemas[0];
      const Schema& r = child_schemas[1];
      Schema out;
      for (const Attribute& a : l.attrs()) {
        TQP_RETURN_IF_ERROR(
            AddAttr(&out, Attribute{ProductName(a.name, r, "1."), a.type}));
      }
      for (const Attribute& a : r.attrs()) {
        TQP_RETURN_IF_ERROR(
            AddAttr(&out, Attribute{ProductName(a.name, l, "2."), a.type}));
      }
      return out;
    }
    case OpKind::kProductT: {
      const Schema& l = child_schemas[0];
      const Schema& r = child_schemas[1];
      if (!l.IsTemporal() || !r.IsTemporal()) {
        return Status::InvalidArgument("productT requires temporal arguments");
      }
      // Non-time attributes of both sides (clash-prefixed), the retained
      // argument timestamps 1.T1,1.T2,2.T1,2.T2, and the overlap as T1,T2.
      Schema out;
      for (const Attribute& a : l.attrs()) {
        if (a.name == kT1 || a.name == kT2) continue;
        TQP_RETURN_IF_ERROR(
            AddAttr(&out, Attribute{ProductName(a.name, r, "1."), a.type}));
      }
      for (const Attribute& a : r.attrs()) {
        if (a.name == kT1 || a.name == kT2) continue;
        TQP_RETURN_IF_ERROR(
            AddAttr(&out, Attribute{ProductName(a.name, l, "2."), a.type}));
      }
      TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{"1.T1", ValueType::kTime}));
      TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{"1.T2", ValueType::kTime}));
      TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{"2.T1", ValueType::kTime}));
      TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{"2.T2", ValueType::kTime}));
      TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{kT1, ValueType::kTime}));
      TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{kT2, ValueType::kTime}));
      return out;
    }
    case OpKind::kAggregate: {
      const Schema& in = child_schemas[0];
      Schema out;
      for (const std::string& g : node.group_by()) {
        int idx = in.IndexOf(g);
        if (idx < 0) {
          return Status::InvalidArgument("unknown grouping attribute '" + g +
                                         "'");
        }
        TQP_RETURN_IF_ERROR(
            AddAttr(&out, in.attr(static_cast<size_t>(idx))));
      }
      for (const AggSpec& a : node.aggregates()) {
        ValueType t = ValueType::kInt;
        if (a.func == AggFunc::kAvg) {
          t = ValueType::kDouble;
        } else if (a.func != AggFunc::kCount) {
          int idx = in.IndexOf(a.attr);
          if (idx < 0) {
            return Status::InvalidArgument("unknown aggregate attribute '" +
                                           a.attr + "'");
          }
          t = in.attr(static_cast<size_t>(idx)).type;
        }
        TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{a.out_name, t}));
      }
      return out;
    }
    case OpKind::kAggregateT: {
      const Schema& in = child_schemas[0];
      if (!in.IsTemporal()) {
        return Status::InvalidArgument("aggregateT requires a temporal input");
      }
      for (const std::string& g : node.group_by()) {
        if (g == kT1 || g == kT2) {
          return Status::InvalidArgument(
              "aggregateT cannot group by time attributes");
        }
      }
      // Build as conventional aggregate, then append T1/T2.
      Schema out;
      for (const std::string& g : node.group_by()) {
        int idx = in.IndexOf(g);
        if (idx < 0) {
          return Status::InvalidArgument("unknown grouping attribute '" + g +
                                         "'");
        }
        TQP_RETURN_IF_ERROR(AddAttr(&out, in.attr(static_cast<size_t>(idx))));
      }
      for (const AggSpec& a : node.aggregates()) {
        ValueType t = ValueType::kInt;
        if (a.func == AggFunc::kAvg) {
          t = ValueType::kDouble;
        } else if (a.func != AggFunc::kCount) {
          int idx = in.IndexOf(a.attr);
          if (idx < 0) {
            return Status::InvalidArgument("unknown aggregate attribute '" +
                                           a.attr + "'");
          }
          t = in.attr(static_cast<size_t>(idx)).type;
        }
        TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{a.out_name, t}));
      }
      TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{kT1, ValueType::kTime}));
      TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{kT2, ValueType::kTime}));
      return out;
    }
    case OpKind::kRdup: {
      const Schema& in = child_schemas[0];
      if (!in.IsTemporal()) return in;
      // The result of regular duplicate elimination is a snapshot relation
      // and thus cannot include attributes named T1 or T2 (Figure 3): the
      // time attributes are renamed with a "1." prefix.
      Schema out;
      for (const Attribute& a : in.attrs()) {
        if (a.name == kT1 || a.name == kT2) {
          TQP_RETURN_IF_ERROR(AddAttr(&out, Attribute{"1." + a.name, a.type}));
        } else {
          TQP_RETURN_IF_ERROR(AddAttr(&out, a));
        }
      }
      return out;
    }
    case OpKind::kRdupT:
    case OpKind::kCoalesce: {
      const Schema& in = child_schemas[0];
      if (!in.IsTemporal()) {
        return Status::InvalidArgument(
            std::string(OpKindName(node.kind())) +
            " requires a temporal input");
      }
      return in;
    }
    case OpKind::kSort: {
      const Schema& in = child_schemas[0];
      for (const SortKey& k : node.sort_spec()) {
        if (!in.HasAttr(k.attr)) {
          return Status::InvalidArgument("sort on unknown attribute '" +
                                         k.attr + "'");
        }
      }
      return in;
    }
    case OpKind::kTransferS:
    case OpKind::kTransferD:
      return child_schemas[0];
  }
  return Status::Error("unreachable operator kind");
}

namespace {

// Truncates an order spec at the first key naming a time attribute — the
// paper's "Order(r) \ TimePairs" for operations that rewrite timestamps.
SortSpec DropTimeKeys(const SortSpec& order) {
  SortSpec out;
  for (const SortKey& k : order) {
    if (k.attr == kT1 || k.attr == kT2) break;
    out.push_back(k);
  }
  return out;
}

// Maps an order spec through an attribute rename (old name -> new name);
// truncates at the first unmapped attribute.
SortSpec RenameOrder(const SortSpec& order,
                     const std::vector<std::pair<std::string, std::string>>&
                         mapping) {
  SortSpec out;
  for (const SortKey& k : order) {
    bool mapped = false;
    for (const auto& [from, to] : mapping) {
      if (k.attr == from) {
        out.push_back(SortKey{to, k.ascending});
        mapped = true;
        break;
      }
    }
    if (!mapped) break;
  }
  return out;
}

double PredicateSelectivity(const ExprPtr& e, const CardinalityParams& p) {
  switch (e->kind()) {
    case ExprKind::kCompare:
      return e->compare_op() == CompareOp::kEq ? p.equality_selectivity
                                               : p.default_selectivity;
    case ExprKind::kAnd:
      return PredicateSelectivity(e->children()[0], p) *
             PredicateSelectivity(e->children()[1], p);
    case ExprKind::kOr: {
      double a = PredicateSelectivity(e->children()[0], p);
      double b = PredicateSelectivity(e->children()[1], p);
      return a + b - a * b;
    }
    case ExprKind::kNot:
      return 1.0 - PredicateSelectivity(e->children()[0], p);
    default:
      return p.default_selectivity;
  }
}

}  // namespace

NodeProps DeriveChildProps(const PlanNode& node, size_t child_index,
                           const NodeProps& parent, bool left_duplicate_free,
                           bool left_snapshot_dup_free,
                           bool child_snapshot_dup_free) {
  NodeProps out = parent;
  switch (node.kind()) {
    case OpKind::kSort:
      // The sort re-establishes any required order.
      out.order_required = false;
      break;
    case OpKind::kRdup:
    case OpKind::kRdupT:
      // Duplicates are eliminated above; they cannot matter below.
      out.duplicates_relevant = false;
      break;
    case OpKind::kAggregate:
    case OpKind::kAggregateT: {
      // COUNT/SUM/AVG are multiplicity-sensitive; MIN/MAX are not.
      bool sensitive = false;
      for (const AggSpec& a : node.aggregates()) {
        if (a.func == AggFunc::kCount || a.func == AggFunc::kSum ||
            a.func == AggFunc::kAvg) {
          sensitive = true;
        }
      }
      out.duplicates_relevant = sensitive;
      if (node.kind() == OpKind::kAggregateT) {
        // ℵT's result depends on its input only through the input's
        // snapshots: time periods below need not be preserved.
        out.period_preserving = false;
      }
      break;
    }
    // The three cases below relax a property on the strength of a
    // bottom-up guarantee of the current plan. Each is sound only if no
    // rewrite admitted under the relaxed properties can falsify the
    // guarantee it rests on.
    case OpKind::kDifference:
      if (child_index == 0) {
        // Left multiplicities always affect the difference.
        out.duplicates_relevant = true;
      } else {
        // The order of the subtrahend never matters; its duplicates matter
        // only when the left argument can carry duplicates. Sound while the
        // left stays duplicate-free: its own context keeps duplicates
        // relevant, so where periods are preserved only rewrites that keep
        // its multiplicities (≡M or stronger) apply there. Where they are
        // not, ≡SM rewrites apply, and a split or merged period can create
        // a duplicate; that case is not yet covered by a test.
        out.order_required = false;
        out.duplicates_relevant = !left_duplicate_free;
      }
      break;
    case OpKind::kDifferenceT:
      if (child_index == 0) {
        out.duplicates_relevant = true;
      } else {
        out.order_required = false;
        if (left_snapshot_dup_free) {
          out.duplicates_relevant = false;
          // With a snapshot-duplicate-free left argument, \T depends on the
          // right argument only through its snapshots. Sound while the
          // left stays snapshot-duplicate-free: its context keeps
          // duplicates relevant, so every rewrite admitted there keeps its
          // snapshot multiplicities (≡SM or stronger).
          out.period_preserving = false;
        }
      }
      break;
    case OpKind::kCoalesce:
      // coalT maps every snapshot-equivalent duplicate-free argument to the
      // same result, so periods below need not be preserved. Unlike the
      // difference cases, this conditions on the node being rewritten
      // itself, so the relaxed context must not admit a rewrite that breaks
      // its snapshot-duplicate-freeness: duplicates stay relevant, which
      // limits the child to rewrites that keep snapshot multiplicities
      // (≡SM or stronger). Otherwise D4 (rdupT(r) ≡SS r) could remove the
      // very rdupT the relaxation depends on.
      if (child_snapshot_dup_free) {
        out.period_preserving = false;
        out.duplicates_relevant = true;
      }
      break;
    default:
      break;
  }
  return out;
}

namespace {

// The per-node bottom-up derivation step (the static columns of Table 1).
// `cs` holds the children's already-derived information; `ni->schema` is set
// by the caller.
Status FillNodeInfo(const PlanPtr& node, const Catalog& catalog,
                    const CardinalityParams& params,
                    const std::vector<const NodeInfo*>& cs, NodeInfo* ni) {
    switch (node->kind()) {
      case OpKind::kScan: {
        const CatalogEntry* e = catalog.Find(node->rel_name());
        // DeriveSchema already failed cleanly if the relation is missing,
        // but that invariant lives in a different function — keep this from
        // ever turning a dropped relation into a null deref.
        if (e == nullptr) {
          return Status::NotFound("relation '" + node->rel_name() +
                                  "' (dropped since plan construction?)");
        }
        ni->site = e->site;
        ni->order = e->order;
        ni->duplicate_free = e->duplicate_free;
        ni->snapshot_duplicate_free = e->snapshot_duplicate_free;
        ni->coalesced = e->coalesced;
        ni->cardinality = static_cast<double>(e->data.size());
        return Status::OK();
      }
      case OpKind::kTransferS:
      case OpKind::kTransferD: {
        const NodeInfo& c = *cs[0];
        bool to_stratum = node->kind() == OpKind::kTransferS;
        if (to_stratum && c.site != Site::kDbms) {
          return Status::InvalidArgument(
              "transferS requires a DBMS-resident input");
        }
        if (!to_stratum && c.site != Site::kStratum) {
          return Status::InvalidArgument(
              "transferD requires a stratum-resident input");
        }
        ni->site = to_stratum ? Site::kStratum : Site::kDbms;
        ni->order = c.order;
        ni->duplicate_free = c.duplicate_free;
        ni->snapshot_duplicate_free = c.snapshot_duplicate_free;
        ni->coalesced = c.coalesced;
        ni->cardinality = c.cardinality;
        return Status::OK();
      }
      default:
        break;
    }

    // Non-transfer operators: all children must execute at the same site.
    Site site = cs[0]->site;
    for (size_t i = 1; i < node->arity(); ++i) {
      if (cs[i]->site != site) {
        return Status::InvalidArgument(
            std::string(OpKindName(node->kind())) +
            " has children at different sites; insert transfers");
      }
    }
    ni->site = site;

    const NodeInfo& c0 = *cs[0];
    switch (node->kind()) {
      case OpKind::kSelect: {
        ni->order = c0.order;
        ni->duplicate_free = c0.duplicate_free;
        ni->snapshot_duplicate_free = c0.snapshot_duplicate_free;
        ni->coalesced = c0.coalesced;
        ni->cardinality =
            c0.cardinality * PredicateSelectivity(node->predicate(), params);
        break;
      }
      case OpKind::kProject: {
        // Order: longest prefix of the input order whose attributes are
        // passed through unchanged (possibly renamed).
        std::vector<std::pair<std::string, std::string>> pass;
        bool permutation = node->projections().size() == c0.schema.size();
        std::set<std::string> seen;
        for (const ProjItem& item : node->projections()) {
          if (item.expr->kind() == ExprKind::kAttr) {
            pass.emplace_back(item.expr->attr_name(), item.name);
            if (!seen.insert(item.expr->attr_name()).second) {
              permutation = false;
            }
          } else {
            permutation = false;
          }
        }
        if (pass.size() != node->projections().size()) permutation = false;
        ni->order = RenameOrder(c0.order, pass);
        // π generates duplicates and destroys coalescing — unless it is a
        // pure permutation of the input attributes.
        ni->duplicate_free = permutation && c0.duplicate_free;
        ni->snapshot_duplicate_free = permutation && c0.snapshot_duplicate_free;
        ni->coalesced = permutation && c0.coalesced && ni->schema.IsTemporal();
        ni->cardinality = c0.cardinality;
        break;
      }
      case OpKind::kUnionAll: {
        const NodeInfo& c1 = *cs[1];
        ni->order = {};  // ⊎ is unordered (Table 1)
        ni->duplicate_free = false;
        ni->snapshot_duplicate_free = false;
        ni->coalesced = false;
        ni->cardinality = c0.cardinality + c1.cardinality;
        break;
      }
      case OpKind::kUnion: {
        const NodeInfo& c1 = *cs[1];
        ni->order = {};
        ni->duplicate_free = c0.duplicate_free && c1.duplicate_free;
        ni->snapshot_duplicate_free = false;
        ni->coalesced = false;
        ni->cardinality = c0.cardinality + 0.5 * c1.cardinality;
        break;
      }
      case OpKind::kUnionT: {
        const NodeInfo& c1 = *cs[1];
        ni->order = {};
        ni->duplicate_free = c0.duplicate_free && c1.duplicate_free &&
                             c0.snapshot_duplicate_free &&
                             c1.snapshot_duplicate_free;
        ni->snapshot_duplicate_free =
            c0.snapshot_duplicate_free && c1.snapshot_duplicate_free;
        ni->coalesced = false;
        ni->cardinality = c0.cardinality + c1.cardinality;
        break;
      }
      case OpKind::kProduct: {
        const NodeInfo& c1 = *cs[1];
        std::vector<std::pair<std::string, std::string>> mapping;
        for (const Attribute& a : c0.schema.attrs()) {
          mapping.emplace_back(
              a.name, ProductName(a.name, c1.schema, "1."));
        }
        ni->order = RenameOrder(c0.order, mapping);
        ni->duplicate_free = c0.duplicate_free && c1.duplicate_free;
        ni->snapshot_duplicate_free = ni->duplicate_free;
        ni->coalesced = false;
        ni->cardinality = c0.cardinality * c1.cardinality;
        break;
      }
      case OpKind::kProductT: {
        const NodeInfo& c1 = *cs[1];
        std::vector<std::pair<std::string, std::string>> mapping;
        for (const Attribute& a : c0.schema.attrs()) {
          if (a.name == kT1 || a.name == kT2) continue;
          mapping.emplace_back(
              a.name, ProductName(a.name, c1.schema, "1."));
        }
        ni->order = RenameOrder(DropTimeKeys(c0.order), mapping);
        ni->duplicate_free = c0.duplicate_free && c1.duplicate_free;
        ni->snapshot_duplicate_free =
            c0.snapshot_duplicate_free && c1.snapshot_duplicate_free;
        ni->coalesced = false;
        ni->cardinality =
            c0.cardinality * c1.cardinality * params.product_t_overlap;
        break;
      }
      case OpKind::kDifference: {
        const NodeInfo& c1 = *cs[1];
        ni->order = c0.order;
        ni->duplicate_free = c0.duplicate_free;
        ni->snapshot_duplicate_free = c0.snapshot_duplicate_free;
        ni->coalesced = c0.coalesced;
        ni->cardinality =
            std::max(c0.cardinality - c1.cardinality, 0.2 * c0.cardinality);
        break;
      }
      case OpKind::kDifferenceT: {
        ni->order = DropTimeKeys(c0.order);
        ni->duplicate_free = c0.snapshot_duplicate_free;
        ni->snapshot_duplicate_free = c0.snapshot_duplicate_free;
        ni->coalesced = false;  // \T destroys coalescing (Table 1)
        ni->cardinality = c0.cardinality;
        break;
      }
      case OpKind::kAggregate: {
        ni->order = OrderPrefixOnAttrs(c0.order, node->group_by());
        ni->duplicate_free = true;
        ni->snapshot_duplicate_free = true;
        ni->coalesced = false;
        ni->cardinality =
            std::max(1.0, c0.cardinality * params.group_shrink);
        break;
      }
      case OpKind::kAggregateT: {
        ni->order = OrderPrefixOnAttrs(c0.order, node->group_by());
        ni->duplicate_free = true;
        ni->snapshot_duplicate_free = true;
        ni->coalesced = false;  // ℵT destroys coalescing (Table 1)
        ni->cardinality = std::max(1.0, 2.0 * c0.cardinality - 1.0);
        break;
      }
      case OpKind::kRdup: {
        std::vector<std::pair<std::string, std::string>> mapping;
        for (const Attribute& a : c0.schema.attrs()) {
          if (a.name == kT1 || a.name == kT2) {
            mapping.emplace_back(a.name, "1." + a.name);
          } else {
            mapping.emplace_back(a.name, a.name);
          }
        }
        ni->order = RenameOrder(c0.order, mapping);
        ni->duplicate_free = true;
        ni->snapshot_duplicate_free = ni->schema.IsTemporal() ? false : true;
        ni->coalesced = false;
        ni->cardinality =
            c0.duplicate_free ? c0.cardinality
                              : c0.cardinality * params.rdup_shrink;
        break;
      }
      case OpKind::kRdupT: {
        ni->order = DropTimeKeys(c0.order);
        ni->duplicate_free = true;
        ni->snapshot_duplicate_free = true;
        ni->coalesced = false;  // rdupT destroys coalescing (Table 1)
        ni->cardinality = c0.snapshot_duplicate_free
                              ? c0.cardinality
                              : std::max(1.0, 2.0 * c0.cardinality - 1.0) *
                                    params.rdup_shrink;
        break;
      }
      case OpKind::kSort: {
        if (IsPrefixOf(node->sort_spec(), c0.order)) {
          ni->order = c0.order;
        } else {
          // Stable sort refines: result is ordered by the sort spec, then
          // by any previous order on ties.
          ni->order = node->sort_spec();
          for (const SortKey& k : c0.order) {
            bool dup = false;
            for (const SortKey& existing : ni->order) {
              if (existing.attr == k.attr) {
                dup = true;
                break;
              }
            }
            if (!dup) ni->order.push_back(k);
          }
        }
        ni->duplicate_free = c0.duplicate_free;
        ni->snapshot_duplicate_free = c0.snapshot_duplicate_free;
        ni->coalesced = c0.coalesced;
        ni->cardinality = c0.cardinality;
        break;
      }
      case OpKind::kCoalesce: {
        ni->order = DropTimeKeys(c0.order);
        ni->duplicate_free = c0.duplicate_free;
        ni->snapshot_duplicate_free = c0.snapshot_duplicate_free;
        ni->coalesced = true;  // coalT enforces coalescing
        ni->cardinality = c0.coalesced
                              ? c0.cardinality
                              : c0.cardinality * params.coalesce_shrink;
        break;
      }
      default:
        return Status::Error("unhandled operator in Fill");
    }

    // A conventional DBMS does not guarantee the order of operation
    // results (Section 4.5); only sort (and clustered base-table scans)
    // carries a known order at the DBMS site.
    if (ni->site == Site::kDbms && node->kind() != OpKind::kSort &&
        node->kind() != OpKind::kScan) {
      ni->order = {};
    }
    return Status::OK();
  }

}  // namespace

const std::vector<std::string>& NodeInfo::NoRelations() {
  static const std::vector<std::string> empty;
  return empty;
}

namespace {

/// The relation-dependency set of `node` from its children's sets: a scan
/// introduces its own relation; a unary operator aliases its child's vector
/// (no copy); a binary operator merges — but reuses a side's vector when the
/// other contributes nothing new, so long operator chains over the same
/// scans share one allocation.
std::shared_ptr<const std::vector<std::string>> DeriveRelationDeps(
    const PlanNode& node, const std::vector<const NodeInfo*>& cs) {
  if (node.kind() == OpKind::kScan) {
    return std::make_shared<const std::vector<std::string>>(
        std::vector<std::string>{node.rel_name()});
  }
  if (cs.empty()) return nullptr;
  if (cs.size() == 1) return cs[0]->relations;
  std::shared_ptr<const std::vector<std::string>> merged = cs[0]->relations;
  for (size_t i = 1; i < cs.size(); ++i) {
    const std::shared_ptr<const std::vector<std::string>>& other =
        cs[i]->relations;
    if (other == nullptr || other->empty() || other == merged) continue;
    if (merged == nullptr || merged->empty()) {
      merged = other;
      continue;
    }
    if (std::includes(merged->begin(), merged->end(), other->begin(),
                      other->end())) {
      continue;
    }
    auto out = std::make_shared<std::vector<std::string>>();
    out->reserve(merged->size() + other->size());
    std::set_union(merged->begin(), merged->end(), other->begin(),
                   other->end(), std::back_inserter(*out));
    merged = std::move(out);
  }
  return merged;
}

}  // namespace

Status DerivationCache::Derive(const PlanPtr& plan, const Catalog& catalog,
                               const CardinalityParams& params) {
  if (Find(plan.get()) != nullptr) return Status::OK();
  std::vector<const NodeInfo*> cs;
  std::vector<Schema> child_schemas;
  cs.reserve(plan->arity());
  child_schemas.reserve(plan->arity());
  for (const PlanPtr& c : plan->children()) {
    TQP_RETURN_IF_ERROR(Derive(c, catalog, params));
    // Entry references are stable across rehashes (node-based map).
    const NodeInfo* info = Find(c.get());
    cs.push_back(info);
    child_schemas.push_back(info->schema);
  }
  TQP_ASSIGN_OR_RETURN(schema, DeriveSchema(*plan, child_schemas, catalog));
  NodeInfo ni;
  ni.schema = schema;
  TQP_RETURN_IF_ERROR(FillNodeInfo(plan, catalog, params, cs, &ni));
  ni.relations = DeriveRelationDeps(*plan, cs);
  entries_.emplace(plan.get(), Entry{plan, std::move(ni)});
  return Status::OK();
}

Result<AnnotatedPlan> AnnotatedPlan::Make(PlanPtr plan, const Catalog* catalog,
                                          QueryContract contract,
                                          CardinalityParams params,
                                          DerivationCache* cache) {
  TQP_CHECK(catalog != nullptr);
  AnnotatedPlan out;
  out.plan_ = plan;
  out.catalog_ = catalog;
  out.contract_ = contract;
  out.info_.reserve(plan->subtree_size());

  // ---- Bottom-up: schema, site, order, guarantees, cardinality. ----
  // Purely structural, so it runs through a derivation cache (the caller's,
  // so shared subtrees amortize across plans, or a local one) and is then
  // materialized into this plan's per-node map.
  DerivationCache local_cache;
  DerivationCache* c = cache != nullptr ? cache : &local_cache;
  TQP_RETURN_IF_ERROR(c->Derive(plan, *catalog, params));

  struct Materialize {
    const DerivationCache* cache;
    std::unordered_map<const PlanNode*, NodeInfo>* info;
    void Visit(const PlanPtr& node) {
      if (info->count(node.get()) > 0) return;  // shared subtree
      for (const PlanPtr& ch : node->children()) Visit(ch);
      info->emplace(node.get(), *cache->Find(node.get()));
    }
  };
  Materialize materialize{c, &out.info_};
  materialize.Visit(plan);

  // ---- Top-down: the Table 2 properties. ----
  // Each parent→child edge contributes a property triple (DeriveChildProps)
  // derived from the parent's resolved properties; a node's properties are
  // the disjunction of its incoming edges' contributions. On a proper tree
  // (one edge per node) this is exactly the single-parent assignment; on a
  // hash-consed DAG the disjunction is the conservative combination (a true
  // property only restricts rule applicability, never enables an unsound
  // rewrite).
  {
    NodeInfo& root = out.info_.at(plan.get());
    root.order_required = contract.result_type == ResultType::kList;
    root.duplicates_relevant = contract.result_type != ResultType::kSet;
    root.period_preserving = true;  // ≡SQL is never a snapshot equivalence
  }

  // Fetches the bottom-up bits DeriveChildProps consults for this edge.
  auto edge = [&out](const PlanNode* node, size_t i, const NodeProps& parent) {
    bool ldf = false, lsdf = false, csdf = false;
    switch (node->kind()) {
      case OpKind::kDifference:
      case OpKind::kDifferenceT: {
        const NodeInfo& left = out.info_.at(node->child(0).get());
        ldf = left.duplicate_free;
        lsdf = left.snapshot_duplicate_free;
        break;
      }
      case OpKind::kCoalesce:
        csdf = out.info_.at(node->child(i).get()).snapshot_duplicate_free;
        break;
      default:
        break;
    }
    return DeriveChildProps(*node, i, parent, ldf, lsdf, csdf);
  };

  if (out.info_.size() == plan->subtree_size()) {
    // Proper tree (no node occurs twice): single-parent assignment, walked
    // recursively without any topological bookkeeping. This is the common
    // case — rewrites only create shared subtrees when one logical
    // subexpression occurs twice in a plan.
    struct TreeWalker {
      const decltype(edge)& edge_fn;
      std::unordered_map<const PlanNode*, NodeInfo>* info;
      void Visit(const PlanPtr& node) {
        const NodeInfo& ni = info->at(node.get());
        NodeProps parent{ni.order_required, ni.duplicates_relevant,
                         ni.period_preserving};
        for (size_t i = 0; i < node->arity(); ++i) {
          NodeProps cp = edge_fn(node.get(), i, parent);
          NodeInfo& ci = info->at(node->child(i).get());
          ci.order_required = cp.order_required;
          ci.duplicates_relevant = cp.duplicates_relevant;
          ci.period_preserving = cp.period_preserving;
          Visit(node->child(i));
        }
      }
    };
    TreeWalker tw{edge, &out.info_};
    tw.Visit(plan);
    return out;
  }

  // General DAG: process unique nodes in topological order (reverse DFS
  // post-order), so every parent is fully resolved before its edges fire,
  // OR-ing each edge's contribution into the child.
  std::vector<const PlanNode*> topo;
  {
    std::unordered_set<const PlanNode*> visited;
    struct TopoWalker {
      std::unordered_set<const PlanNode*>* visited;
      std::vector<const PlanNode*>* post;
      void Visit(const PlanPtr& node) {
        if (!visited->insert(node.get()).second) return;
        for (const PlanPtr& ch : node->children()) Visit(ch);
        post->push_back(node.get());
      }
    };
    TopoWalker tw{&visited, &topo};
    tw.Visit(plan);
    std::reverse(topo.begin(), topo.end());
  }

  for (const PlanNode* node : topo) {
    if (node == plan.get()) continue;
    NodeInfo& ni = out.info_.at(node);
    ni.order_required = false;
    ni.duplicates_relevant = false;
    ni.period_preserving = false;
  }

  for (const PlanNode* node : topo) {
    // Safe reference: edges only mutate the three property bools of child
    // entries, and a node is never its own descendant.
    const NodeInfo& ni = out.info_.at(node);
    NodeProps parent{ni.order_required, ni.duplicates_relevant,
                     ni.period_preserving};
    for (size_t i = 0; i < node->arity(); ++i) {
      NodeProps cp = edge(node, i, parent);
      NodeInfo& ci = out.info_.at(node->child(i).get());
      ci.order_required |= cp.order_required;
      ci.duplicates_relevant |= cp.duplicates_relevant;
      ci.period_preserving |= cp.period_preserving;
    }
  }
  return out;
}

const NodeInfo& AnnotatedPlan::info(const PlanNode* node) const {
  auto it = info_.find(node);
  TQP_CHECK(it != info_.end());
  return it->second;
}

}  // namespace tqp
