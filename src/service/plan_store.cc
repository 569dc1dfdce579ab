#include "service/plan_store.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

namespace tqp {

namespace {

// ---- Token-stream writer ---------------------------------------------------
//
// The format is a flat whitespace-separated token stream with s-expression
// grouping. Atoms are bare words/numbers; strings are length-prefixed
// ("<len>:<bytes>") so arbitrary query text, relation names, and literals
// round-trip without any escaping rules.

void A(std::string* out, const char* atom) {
  if (!out->empty() && out->back() != '(') out->push_back(' ');
  *out += atom;
}

void WInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  A(out, buf);
}

void WUint(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  A(out, buf);
}

void WDbl(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);  // exact double round trip
  A(out, buf);
}

void WStr(std::string* out, const std::string& s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "\"%zu:", s.size());
  A(out, buf);
  *out += s;  // raw bytes, immediately after the colon
}

void Open(std::string* out) {
  if (!out->empty() && out->back() != '(') out->push_back(' ');
  out->push_back('(');
}

void Close(std::string* out) { out->push_back(')'); }

// ---- Token-stream reader ---------------------------------------------------

class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  bool AtEnd() {
    SkipWs();
    return pos_ >= s_.size();
  }

  /// True iff the next token is ')' (does not consume).
  bool PeekClose() {
    SkipWs();
    return pos_ < s_.size() && s_[pos_] == ')';
  }

  Status Expect(char c) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      return Corrupt(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  Result<std::string> Atom() {
    SkipWs();
    if (pos_ >= s_.size()) return Corrupt("unexpected end of stream");
    char c = s_[pos_];
    if (c == '(' || c == ')' || c == '"') {
      return Corrupt("expected atom");
    }
    size_t start = pos_;
    while (pos_ < s_.size() && !std::isspace(static_cast<unsigned char>(
                                   s_[pos_])) &&
           s_[pos_] != '(' && s_[pos_] != ')') {
      ++pos_;
    }
    return s_.substr(start, pos_ - start);
  }

  Result<std::string> Str() {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return Corrupt("expected string");
    }
    ++pos_;
    size_t len = 0;
    bool any = false;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      len = len * 10 + static_cast<size_t>(s_[pos_] - '0');
      if (len > s_.size()) return Corrupt("string length overruns stream");
      ++pos_;
      any = true;
    }
    if (!any || pos_ >= s_.size() || s_[pos_] != ':') {
      return Corrupt("malformed string length prefix");
    }
    ++pos_;
    if (pos_ + len > s_.size()) return Corrupt("string overruns stream");
    std::string out = s_.substr(pos_, len);
    pos_ += len;
    return out;
  }

  Result<int64_t> Int() {
    TQP_ASSIGN_OR_RETURN(a, Atom());
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(a.c_str(), &end, 10);
    if (errno != 0 || end == a.c_str() || *end != '\0') {
      return Corrupt("malformed integer '" + a + "'");
    }
    return static_cast<int64_t>(v);
  }

  Result<uint64_t> Uint() {
    TQP_ASSIGN_OR_RETURN(a, Atom());
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(a.c_str(), &end, 10);
    if (errno != 0 || end == a.c_str() || *end != '\0' || a[0] == '-') {
      return Corrupt("malformed unsigned integer '" + a + "'");
    }
    return static_cast<uint64_t>(v);
  }

  /// The error for input nested deeper than kMaxPlanDepth.
  Status TooDeep() const {
    return Corrupt("nested deeper than " + std::to_string(kMaxPlanDepth) +
                   " levels");
  }

  Result<double> Dbl() {
    TQP_ASSIGN_OR_RETURN(a, Atom());
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(a.c_str(), &end);
    if (end == a.c_str() || *end != '\0') {
      return Corrupt("malformed double '" + a + "'");
    }
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  Status Corrupt(const std::string& what) const {
    return Status::Error("plan store: corrupt snapshot at byte " +
                         std::to_string(pos_) + ": " + what);
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---- Values ----------------------------------------------------------------

void WriteValue(std::string* out, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      A(out, "vn");
      return;
    case ValueType::kInt:
      A(out, "vi");
      WInt(out, v.AsInt());
      return;
    case ValueType::kDouble:
      A(out, "vd");
      WDbl(out, v.AsDouble());
      return;
    case ValueType::kString:
      A(out, "vs");
      WStr(out, v.AsString());
      return;
    case ValueType::kTime:
      A(out, "vt");
      WInt(out, v.AsTime());
      return;
  }
}

Result<Value> ReadValue(Reader* r) {
  TQP_ASSIGN_OR_RETURN(tag, r->Atom());
  if (tag == "vn") return Value::Null();
  if (tag == "vi") {
    TQP_ASSIGN_OR_RETURN(v, r->Int());
    return Value::Int(v);
  }
  if (tag == "vd") {
    TQP_ASSIGN_OR_RETURN(v, r->Dbl());
    return Value::Double(v);
  }
  if (tag == "vs") {
    TQP_ASSIGN_OR_RETURN(v, r->Str());
    return Value::String(v);
  }
  if (tag == "vt") {
    TQP_ASSIGN_OR_RETURN(v, r->Int());
    return Value::Time(v);
  }
  return Status::Error("plan store: unknown value tag '" + tag + "'");
}

// ---- Expressions -----------------------------------------------------------

void WriteExpr(std::string* out, const ExprPtr& e) {
  Open(out);
  switch (e->kind()) {
    case ExprKind::kAttr:
      A(out, "attr");
      WStr(out, e->attr_name());
      break;
    case ExprKind::kConst:
      A(out, "const");
      WriteValue(out, e->constant());
      break;
    case ExprKind::kCompare:
      A(out, "cmp");
      WInt(out, static_cast<int64_t>(e->compare_op()));
      break;
    case ExprKind::kAnd:
      A(out, "and");
      break;
    case ExprKind::kOr:
      A(out, "or");
      break;
    case ExprKind::kNot:
      A(out, "not");
      break;
    case ExprKind::kArith:
      A(out, "arith");
      WInt(out, static_cast<int64_t>(e->arith_op()));
      break;
    case ExprKind::kOverlaps:
      A(out, "overlaps");
      break;
  }
  for (const ExprPtr& c : e->children()) WriteExpr(out, c);
  Close(out);
}

// Reads an expression at nesting level `level` (see kMaxPlanDepth).
Result<ExprPtr> ReadExpr(Reader* r, int level) {
  if (level > kMaxPlanDepth) return r->TooDeep();
  TQP_RETURN_IF_ERROR(r->Expect('('));
  TQP_ASSIGN_OR_RETURN(tag, r->Atom());

  std::string attr_name;
  Value constant;
  int64_t op = 0;
  if (tag == "attr") {
    TQP_ASSIGN_OR_RETURN(s, r->Str());
    attr_name = s;
  } else if (tag == "const") {
    TQP_ASSIGN_OR_RETURN(v, ReadValue(r));
    constant = v;
  } else if (tag == "cmp" || tag == "arith") {
    TQP_ASSIGN_OR_RETURN(o, r->Int());
    op = o;
  } else if (tag != "and" && tag != "or" && tag != "not" &&
             tag != "overlaps") {
    return Status::Error("plan store: unknown expression tag '" + tag + "'");
  }

  std::vector<ExprPtr> children;
  while (!r->PeekClose()) {
    TQP_ASSIGN_OR_RETURN(c, ReadExpr(r, level + 1));
    children.push_back(c);
  }
  TQP_RETURN_IF_ERROR(r->Expect(')'));

  auto arity = [&](size_t n) -> Status {
    if (children.size() != n) {
      return Status::Error("plan store: expression '" + tag + "' expects " +
                           std::to_string(n) + " children, got " +
                           std::to_string(children.size()));
    }
    return Status::OK();
  };

  if (tag == "attr") {
    TQP_RETURN_IF_ERROR(arity(0));
    return Expr::Attr(std::move(attr_name));
  }
  if (tag == "const") {
    TQP_RETURN_IF_ERROR(arity(0));
    return Expr::Const(std::move(constant));
  }
  if (tag == "cmp") {
    TQP_RETURN_IF_ERROR(arity(2));
    if (op < 0 || op > static_cast<int64_t>(CompareOp::kGe)) {
      return Status::Error("plan store: compare op out of range");
    }
    return Expr::Compare(static_cast<CompareOp>(op), children[0], children[1]);
  }
  if (tag == "and") {
    TQP_RETURN_IF_ERROR(arity(2));
    return Expr::And(children[0], children[1]);
  }
  if (tag == "or") {
    TQP_RETURN_IF_ERROR(arity(2));
    return Expr::Or(children[0], children[1]);
  }
  if (tag == "not") {
    TQP_RETURN_IF_ERROR(arity(1));
    return Expr::Not(children[0]);
  }
  if (tag == "arith") {
    TQP_RETURN_IF_ERROR(arity(2));
    if (op < 0 || op > static_cast<int64_t>(ArithOp::kDiv)) {
      return Status::Error("plan store: arith op out of range");
    }
    return Expr::Arith(static_cast<ArithOp>(op), children[0], children[1]);
  }
  // overlaps
  TQP_RETURN_IF_ERROR(arity(4));
  return Expr::Overlaps(children[0], children[1], children[2], children[3]);
}

// ---- Sort specs and contracts ----------------------------------------------

void WriteSortSpec(std::string* out, const SortSpec& spec) {
  Open(out);
  A(out, "sortspec");
  for (const SortKey& k : spec) {
    WStr(out, k.attr);
    WInt(out, k.ascending ? 1 : 0);
  }
  Close(out);
}

Result<SortSpec> ReadSortSpec(Reader* r) {
  TQP_RETURN_IF_ERROR(r->Expect('('));
  TQP_ASSIGN_OR_RETURN(tag, r->Atom());
  if (tag != "sortspec") {
    return Status::Error("plan store: expected sortspec, got '" + tag + "'");
  }
  SortSpec spec;
  while (!r->PeekClose()) {
    TQP_ASSIGN_OR_RETURN(attr, r->Str());
    TQP_ASSIGN_OR_RETURN(asc, r->Int());
    spec.push_back(SortKey{attr, asc != 0});
  }
  TQP_RETURN_IF_ERROR(r->Expect(')'));
  return spec;
}

void WriteContract(std::string* out, const QueryContract& c) {
  Open(out);
  A(out, "contract");
  WInt(out, static_cast<int64_t>(c.result_type));
  WriteSortSpec(out, c.order_by);
  Close(out);
}

Result<QueryContract> ReadContract(Reader* r) {
  TQP_RETURN_IF_ERROR(r->Expect('('));
  TQP_ASSIGN_OR_RETURN(tag, r->Atom());
  if (tag != "contract") {
    return Status::Error("plan store: expected contract, got '" + tag + "'");
  }
  TQP_ASSIGN_OR_RETURN(type, r->Int());
  if (type < 0 || type > static_cast<int64_t>(ResultType::kSet)) {
    return Status::Error("plan store: result type out of range");
  }
  TQP_ASSIGN_OR_RETURN(order, ReadSortSpec(r));
  TQP_RETURN_IF_ERROR(r->Expect(')'));
  QueryContract c;
  c.result_type = static_cast<ResultType>(type);
  c.order_by = std::move(order);
  return c;
}

// ---- Plans -----------------------------------------------------------------

const std::unordered_map<std::string, OpKind>& KindByName() {
  static const std::unordered_map<std::string, OpKind>* map = [] {
    auto* m = new std::unordered_map<std::string, OpKind>();
    for (size_t i = 0; i < kOpKindCount; ++i) {
      OpKind k = static_cast<OpKind>(i);
      (*m)[OpKindName(k)] = k;
    }
    return m;
  }();
  return *map;
}

void WritePlanNode(std::string* out, const PlanPtr& p) {
  Open(out);
  A(out, OpKindName(p->kind()));
  switch (p->kind()) {
    case OpKind::kScan:
      WStr(out, p->rel_name());
      break;
    case OpKind::kSelect:
      WriteExpr(out, p->predicate());
      break;
    case OpKind::kProject:
      Open(out);
      A(out, "items");
      for (const ProjItem& item : p->projections()) {
        WStr(out, item.name);
        WriteExpr(out, item.expr);
      }
      Close(out);
      break;
    case OpKind::kAggregate:
    case OpKind::kAggregateT:
      Open(out);
      A(out, "group");
      for (const std::string& g : p->group_by()) WStr(out, g);
      Close(out);
      Open(out);
      A(out, "aggs");
      for (const AggSpec& a : p->aggregates()) {
        WInt(out, static_cast<int64_t>(a.func));
        WStr(out, a.attr);
        WStr(out, a.out_name);
      }
      Close(out);
      break;
    case OpKind::kSort:
      WriteSortSpec(out, p->sort_spec());
      break;
    default:
      break;  // pure structural operators carry no payload
  }
  for (const PlanPtr& c : p->children()) WritePlanNode(out, c);
  Close(out);
}

// Reads a plan node at nesting level `level` (see kMaxPlanDepth).
Result<PlanPtr> ReadPlanNode(Reader* r, int level) {
  if (level > kMaxPlanDepth) return r->TooDeep();
  TQP_RETURN_IF_ERROR(r->Expect('('));
  TQP_ASSIGN_OR_RETURN(name, r->Atom());
  auto it = KindByName().find(name);
  if (it == KindByName().end()) {
    return Status::Error("plan store: unknown operator '" + name + "'");
  }
  const OpKind kind = it->second;

  std::string rel_name;
  ExprPtr predicate;
  std::vector<ProjItem> items;
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;
  SortSpec sort_spec;

  switch (kind) {
    case OpKind::kScan: {
      TQP_ASSIGN_OR_RETURN(s, r->Str());
      rel_name = s;
      break;
    }
    case OpKind::kSelect: {
      TQP_ASSIGN_OR_RETURN(e, ReadExpr(r, level + 1));
      predicate = e;
      break;
    }
    case OpKind::kProject: {
      TQP_RETURN_IF_ERROR(r->Expect('('));
      TQP_ASSIGN_OR_RETURN(tag, r->Atom());
      if (tag != "items") return Status::Error("plan store: expected items");
      while (!r->PeekClose()) {
        TQP_ASSIGN_OR_RETURN(n, r->Str());
        TQP_ASSIGN_OR_RETURN(e, ReadExpr(r, level + 1));
        items.push_back(ProjItem{e, n});
      }
      TQP_RETURN_IF_ERROR(r->Expect(')'));
      break;
    }
    case OpKind::kAggregate:
    case OpKind::kAggregateT: {
      TQP_RETURN_IF_ERROR(r->Expect('('));
      TQP_ASSIGN_OR_RETURN(gtag, r->Atom());
      if (gtag != "group") return Status::Error("plan store: expected group");
      while (!r->PeekClose()) {
        TQP_ASSIGN_OR_RETURN(g, r->Str());
        group_by.push_back(g);
      }
      TQP_RETURN_IF_ERROR(r->Expect(')'));
      TQP_RETURN_IF_ERROR(r->Expect('('));
      TQP_ASSIGN_OR_RETURN(atag, r->Atom());
      if (atag != "aggs") return Status::Error("plan store: expected aggs");
      while (!r->PeekClose()) {
        TQP_ASSIGN_OR_RETURN(f, r->Int());
        if (f < 0 || f > static_cast<int64_t>(AggFunc::kAvg)) {
          return Status::Error("plan store: aggregate function out of range");
        }
        TQP_ASSIGN_OR_RETURN(attr, r->Str());
        TQP_ASSIGN_OR_RETURN(out_name, r->Str());
        aggs.push_back(AggSpec{static_cast<AggFunc>(f), attr, out_name});
      }
      TQP_RETURN_IF_ERROR(r->Expect(')'));
      break;
    }
    case OpKind::kSort: {
      TQP_ASSIGN_OR_RETURN(s, ReadSortSpec(r));
      sort_spec = std::move(s);
      break;
    }
    default:
      break;
  }

  std::vector<PlanPtr> children;
  while (!r->PeekClose()) {
    TQP_ASSIGN_OR_RETURN(c, ReadPlanNode(r, level + 1));
    children.push_back(c);
  }
  TQP_RETURN_IF_ERROR(r->Expect(')'));

  auto arity = [&](size_t n) -> Status {
    if (children.size() != n) {
      return Status::Error("plan store: operator '" + name + "' expects " +
                           std::to_string(n) + " children, got " +
                           std::to_string(children.size()));
    }
    return Status::OK();
  };

  switch (kind) {
    case OpKind::kScan:
      TQP_RETURN_IF_ERROR(arity(0));
      return PlanNode::Scan(std::move(rel_name));
    case OpKind::kSelect:
      TQP_RETURN_IF_ERROR(arity(1));
      return PlanNode::Select(children[0], predicate);
    case OpKind::kProject:
      TQP_RETURN_IF_ERROR(arity(1));
      return PlanNode::Project(children[0], std::move(items));
    case OpKind::kUnionAll:
      TQP_RETURN_IF_ERROR(arity(2));
      return PlanNode::UnionAll(children[0], children[1]);
    case OpKind::kProduct:
      TQP_RETURN_IF_ERROR(arity(2));
      return PlanNode::Product(children[0], children[1]);
    case OpKind::kDifference:
      TQP_RETURN_IF_ERROR(arity(2));
      return PlanNode::Difference(children[0], children[1]);
    case OpKind::kAggregate:
      TQP_RETURN_IF_ERROR(arity(1));
      return PlanNode::Aggregate(children[0], std::move(group_by),
                                 std::move(aggs));
    case OpKind::kRdup:
      TQP_RETURN_IF_ERROR(arity(1));
      return PlanNode::Rdup(children[0]);
    case OpKind::kProductT:
      TQP_RETURN_IF_ERROR(arity(2));
      return PlanNode::ProductT(children[0], children[1]);
    case OpKind::kDifferenceT:
      TQP_RETURN_IF_ERROR(arity(2));
      return PlanNode::DifferenceT(children[0], children[1]);
    case OpKind::kAggregateT:
      TQP_RETURN_IF_ERROR(arity(1));
      return PlanNode::AggregateT(children[0], std::move(group_by),
                                  std::move(aggs));
    case OpKind::kRdupT:
      TQP_RETURN_IF_ERROR(arity(1));
      return PlanNode::RdupT(children[0]);
    case OpKind::kUnion:
      TQP_RETURN_IF_ERROR(arity(2));
      return PlanNode::Union(children[0], children[1]);
    case OpKind::kUnionT:
      TQP_RETURN_IF_ERROR(arity(2));
      return PlanNode::UnionT(children[0], children[1]);
    case OpKind::kSort:
      TQP_RETURN_IF_ERROR(arity(1));
      return PlanNode::Sort(children[0], std::move(sort_spec));
    case OpKind::kCoalesce:
      TQP_RETURN_IF_ERROR(arity(1));
      return PlanNode::Coalesce(children[0]);
    case OpKind::kTransferS:
      TQP_RETURN_IF_ERROR(arity(1));
      return PlanNode::TransferS(children[0]);
    case OpKind::kTransferD:
      TQP_RETURN_IF_ERROR(arity(1));
      return PlanNode::TransferD(children[0]);
  }
  return Status::Error("plan store: unreachable operator kind");
}

// v2 added the backend kind + calibration fingerprint to the header; v3
// dropped the catalog mutation count, which means nothing in another
// process (the content fingerprint alone keys the snapshot).
constexpr const char* kMagicPrefix = "tqp-plan-cache-v";
constexpr const char* kMagic = "tqp-plan-cache-v3";

/// True iff `data` starts with the magic of another format version:
/// kMagicPrefix followed by digits, other than kMagic.
bool IsOtherFormatVersion(const std::string& data) {
  Reader r(data);
  Result<std::string> magic = r.Atom();
  const std::string prefix = kMagicPrefix;
  return magic.ok() && *magic != kMagic && magic->size() > prefix.size() &&
         magic->compare(0, prefix.size(), prefix) == 0 &&
         magic->find_first_not_of("0123456789", prefix.size()) ==
             std::string::npos;
}

}  // namespace

// ---- Public serialization --------------------------------------------------

std::string SerializePlan(const PlanPtr& plan) {
  std::string out;
  WritePlanNode(&out, plan);
  return out;
}

Result<PlanPtr> DeserializePlan(const std::string& data) {
  Reader r(data);
  TQP_ASSIGN_OR_RETURN(plan, ReadPlanNode(&r, 1));
  if (!r.AtEnd()) {
    return Status::Error("plan store: trailing bytes after plan");
  }
  return plan;
}

std::string SerializeSnapshot(const PlanCacheSnapshot& snapshot) {
  std::string entries;
  size_t kept = 0;
  for (const PlanCacheEntry& e : snapshot.entries) {
    // A plan built by hand can nest deeper than the readers accept; its
    // entry stays out and costs only warmth.
    if (std::max(e.initial_plan->depth(), e.best_plan->depth()) >
        kMaxPlanDepth) {
      continue;
    }
    std::string entry;
    Open(&entry);
    A(&entry, "entry");
    WStr(&entry, e.key);
    WStr(&entry, e.text);
    WriteContract(&entry, e.contract);
    WDbl(&entry, e.best_cost);
    WDbl(&entry, e.initial_cost);
    WUint(&entry, e.plans_considered);
    WInt(&entry, e.truncated ? 1 : 0);
    Open(&entry);
    A(&entry, "derivation");
    for (const std::string& d : e.derivation) WStr(&entry, d);
    Close(&entry);
    WritePlanNode(&entry, e.initial_plan);
    WritePlanNode(&entry, e.best_plan);
    Close(&entry);
    entries += entry;
    entries.push_back('\n');
    ++kept;
  }
  std::string out;
  A(&out, kMagic);
  WUint(&out, snapshot.catalog_fingerprint);
  WStr(&out, snapshot.backend_kind);
  WUint(&out, snapshot.calibration_fingerprint);
  WUint(&out, kept);
  out.push_back('\n');
  return out + entries;
}

Result<PlanCacheSnapshot> DeserializeSnapshot(const std::string& data) {
  Reader r(data);
  TQP_ASSIGN_OR_RETURN(magic, r.Atom());
  if (magic != kMagic) {
    return Status::Error("plan store: bad magic '" + magic +
                         "' (expected " + kMagic + ")");
  }
  PlanCacheSnapshot out;
  TQP_ASSIGN_OR_RETURN(fingerprint, r.Uint());
  TQP_ASSIGN_OR_RETURN(backend_kind, r.Str());
  TQP_ASSIGN_OR_RETURN(calibration_fp, r.Uint());
  TQP_ASSIGN_OR_RETURN(count, r.Uint());
  out.catalog_fingerprint = fingerprint;
  out.backend_kind = backend_kind;
  out.calibration_fingerprint = calibration_fp;
  // No reserve(count): a corrupt count must fail on the missing entries,
  // not on an allocation of its size.
  for (uint64_t i = 0; i < count; ++i) {
    TQP_RETURN_IF_ERROR(r.Expect('('));
    TQP_ASSIGN_OR_RETURN(tag, r.Atom());
    if (tag != "entry") return Status::Error("plan store: expected entry");
    PlanCacheEntry e;
    TQP_ASSIGN_OR_RETURN(key, r.Str());
    e.key = key;
    TQP_ASSIGN_OR_RETURN(text, r.Str());
    e.text = text;
    TQP_ASSIGN_OR_RETURN(contract, ReadContract(&r));
    e.contract = contract;
    TQP_ASSIGN_OR_RETURN(best_cost, r.Dbl());
    e.best_cost = best_cost;
    TQP_ASSIGN_OR_RETURN(initial_cost, r.Dbl());
    e.initial_cost = initial_cost;
    TQP_ASSIGN_OR_RETURN(considered, r.Uint());
    e.plans_considered = static_cast<size_t>(considered);
    TQP_ASSIGN_OR_RETURN(truncated, r.Int());
    e.truncated = truncated != 0;
    TQP_RETURN_IF_ERROR(r.Expect('('));
    TQP_ASSIGN_OR_RETURN(dtag, r.Atom());
    if (dtag != "derivation") {
      return Status::Error("plan store: expected derivation");
    }
    while (!r.PeekClose()) {
      TQP_ASSIGN_OR_RETURN(d, r.Str());
      e.derivation.push_back(d);
    }
    TQP_RETURN_IF_ERROR(r.Expect(')'));
    TQP_ASSIGN_OR_RETURN(initial, ReadPlanNode(&r, 1));
    e.initial_plan = initial;
    TQP_ASSIGN_OR_RETURN(best, ReadPlanNode(&r, 1));
    e.best_plan = best;
    TQP_RETURN_IF_ERROR(r.Expect(')'));
    out.entries.push_back(std::move(e));
  }
  if (!r.AtEnd()) {
    return Status::Error("plan store: trailing bytes after last entry");
  }
  return out;
}

// ---- File I/O --------------------------------------------------------------

Status SavePlanCache(const Engine& engine, const std::string& path) {
  const std::string data = SerializeSnapshot(engine.ExportPlanCache());
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Error("plan store: cannot open '" + tmp + "' for writing");
  }
  const size_t written = std::fwrite(data.data(), 1, data.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != data.size() || !close_ok) {
    std::remove(tmp.c_str());
    return Status::Error("plan store: short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error("plan store: cannot rename '" + tmp + "' to '" +
                         path + "'");
  }
  return Status::OK();
}

Result<PlanStoreLoadOutcome> LoadPlanCache(Engine* engine,
                                           const std::string& path) {
  PlanStoreLoadOutcome out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    out.file_missing = true;  // a normal cold start
    return out;
  }
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Error("plan store: read error on '" + path + "'");
  }
  // Another build's format is unreadable here but not corrupt: a stale
  // snapshot, so the engine starts cold.
  if (IsOtherFormatVersion(data)) {
    out.stale = true;
    return out;
  }
  TQP_ASSIGN_OR_RETURN(snapshot, DeserializeSnapshot(data));
  out.in_snapshot = snapshot.entries.size();
  out.imported = engine->ImportPlanCache(snapshot);
  // ImportPlanCache rejects wholesale on a fingerprint, backend or
  // calibration mismatch; an accepted snapshot installs every entry that
  // annotates against the live catalog.
  out.stale = out.imported == 0 && out.in_snapshot > 0;
  return out;
}

}  // namespace tqp
