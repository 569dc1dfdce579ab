// Synthetic workload generation.
//
// The paper has no public dataset; experiments run on synthetic relations
// with controllable knobs for exactly the phenomena the algebra reasons
// about: exact duplicates (rdup work), value-equivalent overlapping periods
// (snapshot duplicates: rdupT work, \T preconditions), and value-equivalent
// adjacent periods (coalescible tuples: coalT work).
#ifndef TQP_WORKLOAD_GENERATOR_H_
#define TQP_WORKLOAD_GENERATOR_H_

#include <cstdint>

#include "core/relation.h"

namespace tqp {

/// Parameters for synthetic relation generation.
struct RelationGenParams {
  /// Number of base tuples generated (the final cardinality is higher when
  /// duplicate/adjacency/overlap fractions are positive).
  size_t cardinality = 1000;
  /// Distinct values of the Name attribute (value-equivalence classes).
  size_t num_names = 50;
  /// Distinct values of the Cat attribute.
  size_t num_categories = 8;
  /// Periods are drawn within [0, time_horizon).
  TimePoint time_horizon = 1000;
  /// Maximum period duration.
  TimePoint max_period_length = 50;
  /// Fraction of base tuples duplicated exactly (regular duplicates).
  double duplicate_fraction = 0.0;
  /// Fraction of base tuples split into two adjacent fragments (coalescible).
  double adjacency_fraction = 0.0;
  /// Fraction of base tuples copied with an overlapping shifted period
  /// (snapshot duplicates).
  double overlap_fraction = 0.0;
  /// Generate T1/T2 (temporal) or a plain conventional relation.
  bool temporal = true;
  /// Distinct values of the Val attribute. Large-relation workloads (the
  /// vexec pipeline bench generates millions of rows) widen this so Val
  /// does not degenerate into a tiny domain.
  size_t num_values = 1000;
  /// Zipf exponent s for the Name and Val draws. 0 (default) keeps the
  /// legacy uniform draws — bit-for-bit the same RNG sequence and output as
  /// before the knob existed. s > 0 skews toward low indices with
  /// P(i) ∝ 1/(i+1)^s, concentrating value-equivalence classes and hash-join
  /// keys (heavy-hitter classes stress the class index's partitions).
  double value_zipf = 0.0;
  /// Number of value-equivalent shifted copies emitted per overlap event.
  /// 1 (default) is the legacy single snapshot duplicate; k > 1 emits a
  /// clustered burst of k chained overlapping periods, so a few classes
  /// carry long overlap chains (worst-case rdupT/\T sweeps) instead of the
  /// overlap load spreading evenly.
  size_t overlap_burst = 1;
  uint64_t seed = 42;
};

/// Generates a relation with schema (Name:string, Cat:int, Val:int[,T1,T2]).
Relation GenerateRelation(const RelationGenParams& params);

/// Deterministic xorshift-based generator (reproducible across platforms).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b9) {}

  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() % (1ULL << 53)) /
                         static_cast<double>(1ULL << 53); }

 private:
  uint64_t state_;
};

}  // namespace tqp

#endif  // TQP_WORKLOAD_GENERATOR_H_
