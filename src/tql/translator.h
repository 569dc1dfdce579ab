// Translation of parsed TQL queries into initial algebra plans.
//
// This realizes the "straightforward mapping of the user-level query to an
// initial algebra expression" of Section 2.1 and fixes the ≡SQL contract of
// Definition 5.1 from the outermost DISTINCT / ORDER BY:
//
//   * FROM lists become chains of × (or ×T under VALIDTIME),
//   * WHERE becomes σ,
//   * the select list becomes π (T1/T2 are appended under VALIDTIME) or
//     ℵ/ℵT when aggregates or GROUP BY are present,
//   * EXCEPT becomes \ (or \T with an rdupT inserted on the left argument —
//     temporal difference requires a snapshot-duplicate-free left input),
//   * UNION becomes rdup(⊎) / rdupT(⊎), UNION ALL becomes ⊎, and MAXUNION
//     exposes the algebra's max-multiplicity ∪ / ∪T,
//   * DISTINCT adds rdup/rdupT, COALESCED adds coalT, ORDER BY adds sort,
//   * in the layered architecture the whole plan is initially computed in
//     the DBMS with one final T_S on top (exactly Figure 2(a)).
#ifndef TQP_TQL_TRANSLATOR_H_
#define TQP_TQL_TRANSLATOR_H_

#include <string>

#include "algebra/derivation.h"
#include "algebra/plan.h"
#include "core/catalog.h"
#include "tql/parser.h"

namespace tqp {

class Tracer;

/// Translation options.
struct TranslatorOptions {
  /// Layered architecture: emit a final T_S so the initial plan executes in
  /// the DBMS (Figure 2(a)). When false, plans target a stand-alone temporal
  /// DBMS: no transfers are emitted and scans are placed at the stratum.
  bool layered = true;
  /// Per-query span recorder (core/trace.h); non-owning, nullptr = untraced.
  /// CompileQuery emits parse and translate spans.
  Tracer* tracer = nullptr;
};

/// A translated query: the initial plan plus its ≡SQL contract.
struct TranslatedQuery {
  PlanPtr plan;
  QueryContract contract;
};

/// Translates a parsed query against a catalog. A plan deeper than
/// kMaxPlanDepth (a long chain of set operations) is InvalidArgument.
Result<TranslatedQuery> TranslateQuery(const QueryAst& ast,
                                       const Catalog& catalog,
                                       const TranslatorOptions& options = {});

/// Parses and translates in one step.
Result<TranslatedQuery> CompileQuery(const std::string& text,
                                     const Catalog& catalog,
                                     const TranslatorOptions& options = {});

}  // namespace tqp

#endif  // TQP_TQL_TRANSLATOR_H_
