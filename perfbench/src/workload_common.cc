#include <algorithm>
#include <set>

#include "core/hash.h"
#include "core/profile.h"
#include "exec/cost_model.h"
#include "opt/enumerate.h"
#include "tql/translator.h"
#include "vexec/vexec.h"
#include "workload.h"

namespace perfbench {

using tqp::PlanPtr;
using tqp::Relation;
using tqp::Result;
using tqp::TraceSpan;

void TagOp(TraceSpan* span, uint64_t op_id) {
  if (span->active()) span->Arg("op_id", op_id);
}

namespace {

void CollectScans(const tqp::PlanNode* node, std::set<std::string>* out) {
  if (node->kind() == tqp::OpKind::kScan) out->insert(node->rel_name());
  for (const PlanPtr& child : node->children()) CollectScans(child.get(), out);
}

Result<Relation> ReferenceEvaluate(const PlanPtr& plan,
                                   const tqp::Catalog& catalog,
                                   const tqp::QueryContract& contract) {
  TQP_ASSIGN_OR_RETURN(ann, tqp::AnnotatedPlan::Make(plan, &catalog, contract));
  return tqp::Evaluate(ann, tqp::EngineConfig{});
}

}  // namespace

const Oracle::Entry& Oracle::Get(const std::string& text, const PlanPtr& best,
                                 const PlanPtr& initial,
                                 const tqp::QueryContract& contract,
                                 const tqp::Catalog& catalog,
                                 size_t wire_batch_rows) {
  std::string key = text + "\n" + std::to_string(best->fingerprint());
  std::set<std::string> scanned;
  CollectScans(initial.get(), &scanned);
  for (const std::string& rel : scanned) {
    key += "\n" + rel + "@" + std::to_string(catalog.relation_version(rel));
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) return it->second;
  Entry entry;
  Result<Relation> expected = ReferenceEvaluate(best, catalog, contract);
  Result<Relation> base = ReferenceEvaluate(initial, catalog, contract);
  if (expected.ok() && base.ok()) {
    entry.ok = true;
    entry.digest =
        wire_batch_rows > 0
            ? tqp::HashString(RenderWireFrames(*expected, wire_batch_rows))
            : DigestRelation(*expected);
    entry.contract_ok = SatisfiesContract(contract, *base, *expected);
  }
  return entries_.emplace(std::move(key), entry).first->second;
}

HandPipeline::HandPipeline(const tqp::Catalog* catalog,
                           const tqp::EngineOptions& options)
    : catalog_(catalog),
      options_(options),
      derivation_(std::make_unique<tqp::DerivationCache>()) {}

void HandPipeline::ResetDerivations() {
  derivation_ = std::make_unique<tqp::DerivationCache>();
}

Result<HandPipeline::Prepared> HandPipeline::Prepare(const std::string& text,
                                                     tqp::Tracer* tracer,
                                                     uint64_t op_id,
                                                     LayerSums* sums) {
  Result<tqp::TranslatedQuery> compiled = [&] {
    TraceSpan span(tracer, "tql", "compile");
    TagOp(&span, op_id);
    return tqp::CompileQuery(text, *catalog_, options_.translator);
  }();
  if (!compiled.ok()) return compiled.status();
  (*sums)["tql.compiles"] += 1;

  PlanPtr root;
  {
    TraceSpan span(tracer, "algebra", "intern");
    TagOp(&span, op_id);
    root = interner_.Intern(compiled->plan);
  }

  // Optimize() overrides the enumeration's models with the unified ones.
  tqp::EnumerationOptions eopts = options_.enumeration;
  eopts.cardinality = options_.cardinality;
  eopts.cost_engine = options_.engine;
  Result<tqp::EnumerationResult> enumerated = [&] {
    TraceSpan span(tracer, "opt", "enumerate");
    TagOp(&span, op_id);
    return tqp::EnumeratePlans(root, *catalog_, compiled->contract,
                               options_.rules, eopts, &interner_,
                               derivation_.get());
  }();
  if (!enumerated.ok()) return enumerated.status();
  const tqp::EnumerationResult& en = *enumerated;
  (*sums)["opt.calls"] += 1;
  (*sums)["opt.plans"] += static_cast<double>(en.plans.size());
  (*sums)["opt.matches"] += static_cast<double>(en.matches);
  (*sums)["opt.admitted"] += static_cast<double>(en.admitted);
  (*sums)["opt.gated_out"] += static_cast<double>(en.gated_out);
  (*sums)["opt.memo_hits"] += static_cast<double>(en.memo_hits);
  (*sums)["opt.expanded"] += static_cast<double>(en.expanded);
  (*sums)["opt.truncated"] += en.truncated ? 1.0 : 0.0;

  size_t best_index = 0;
  {
    TraceSpan span(tracer, "opt", "cost");
    TagOp(&span, op_id);
    double best_cost = 0.0;
    if (en.costs.size() == en.plans.size()) {
      for (size_t i = 0; i < en.costs.size(); ++i) {
        if (i == 0 || en.costs[i] < best_cost) {
          best_cost = en.costs[i];
          best_index = i;
        }
      }
    } else {
      tqp::PlanContext ctx(derivation_.get(), nullptr, &compiled->contract);
      for (size_t i = 0; i < en.plans.size(); ++i) {
        const PlanPtr& plan = en.plans[i].plan;
        if (!derivation_->Derive(plan, *catalog_, options_.cardinality).ok()) {
          continue;
        }
        double cost = tqp::EstimatePlanCost(plan, ctx, options_.engine);
        if (i == 0 || cost < best_cost) {
          best_cost = cost;
          best_index = i;
        }
      }
    }
  }
  Prepared out;
  out.best = en.plans[best_index].plan;
  out.contract = compiled->contract;
  return out;
}

Result<Relation> HandPipeline::Execute(const PlanPtr& best,
                                       const tqp::QueryContract& contract,
                                       tqp::Tracer* tracer, uint64_t op_id,
                                       LayerSums* sums) {
  Result<tqp::AnnotatedPlan> ann = [&] {
    TraceSpan span(tracer, "algebra", "annotate");
    TagOp(&span, op_id);
    return tqp::AnnotatedPlan::Make(best, catalog_, contract,
                                    options_.cardinality, derivation_.get());
  }();
  if (!ann.ok()) return ann.status();

  tqp::ProfileNode profile;
  tqp::ExecStats stats;
  std::map<std::string, uint64_t> self_by_kind;
  if (options_.executor == tqp::ExecutorKind::kVectorized) {
    tqp::VexecOptions vopts;
    vopts.batch_size = options_.vexec_batch_size;
    vopts.threads = options_.vexec_threads;
    vopts.memory_budget = options_.vexec_memory_budget;
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t t0 = NowNs();
    Result<Relation> out = [&] {
      TraceSpan span(tracer, "vexec", "execute");
      TagOp(&span, op_id);
      return tqp::ExecuteVectorized(*ann, options_.engine, &stats, vopts,
                                    &profile);
    }();
    const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    if (!out.ok()) return out;
    (*sums)["vexec.calls"] += 1;
    (*sums)["vexec.wall_s"] += wall_s;
    (*sums)["vexec.cpu_s"] += cpu_s;
    (*sums)["vexec.threads"] = static_cast<double>(vopts.threads);
    (*sums)["vexec.rows"] += static_cast<double>(stats.vec_rows);
    (*sums)["vexec.batches"] += static_cast<double>(stats.vec_batches);
    (*sums)["vexec.materializations"] +=
        static_cast<double>(stats.vec_materializations);
    (*sums)["vexec.morsels"] += static_cast<double>(stats.morsels);
    (*sums)["vexec.steals"] += static_cast<double>(stats.steals);
    AddProfileSelfNs(profile, &self_by_kind);
    for (const auto& [kind, ns] : self_by_kind) {
      (*sums)["vexec.op." + kind + ".self_ms"] += NsToMs(ns);
    }
    return out;
  }

  Result<Relation> out = [&] {
    TraceSpan span(tracer, "exec", "evaluate");
    TagOp(&span, op_id);
    return tqp::Evaluate(*ann, options_.engine, &stats, &profile);
  }();
  if (!out.ok()) return out;
  (*sums)["exec.calls"] += 1;
  (*sums)["exec.tuples_produced"] += static_cast<double>(stats.tuples_produced);
  (*sums)["exec.tuples_transferred"] +=
      static_cast<double>(stats.tuples_transferred);
  (*sums)["exec.result_cache_hits"] +=
      static_cast<double>(stats.result_cache_hits);
  (*sums)["exec.result_cache_probes"] += static_cast<double>(
      stats.result_cache_hits + stats.result_cache_misses);
  (*sums)["backend.pushdowns"] += static_cast<double>(stats.backend_pushdowns);
  (*sums)["backend.rows"] += static_cast<double>(stats.backend_rows);
  (*sums)["backend.fallbacks"] += static_cast<double>(stats.backend_fallbacks);
  (*sums)["backend.refusals"] += static_cast<double>(stats.backend_refusals);
  // Pushed-down subtrees are profiled as one node each.
  std::vector<const tqp::ProfileNode*> stack = {&profile};
  while (!stack.empty()) {
    const tqp::ProfileNode* node = stack.back();
    stack.pop_back();
    if (node->backend_pushed) {
      (*sums)["backend.pushed_ms"] += NsToMs(node->wall_ns);
    }
    for (const tqp::ProfileNode& child : node->children) stack.push_back(&child);
  }
  AddProfileSelfNs(profile, &self_by_kind);
  for (const auto& [kind, ns] : self_by_kind) {
    (*sums)["exec.op." + kind + ".self_ms"] += NsToMs(ns);
  }
  return out;
}

}  // namespace perfbench
