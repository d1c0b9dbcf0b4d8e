// Maximum-weight bipartite matching (the assignment problem, paper
// Sec. 3.2).
//
// SLIM adopts the simple greedy heuristic — "link the pair with the highest
// similarity at each step" — which is what the paper evaluates. An exact
// O(n^3) Hungarian solver is provided as a reference implementation for the
// ablation benches and for verifying how far the heuristic is from optimal
// on small instances.
#ifndef SLIM_MATCH_MATCHER_H_
#define SLIM_MATCH_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "match/bipartite.h"

namespace slim {

/// A one-to-one matching: no entity appears in more than one selected edge.
struct Matching {
  std::vector<WeightedEdge> pairs;
  double total_weight = 0.0;

  /// Verifies the one-to-one constraint; used by tests and SLIM_DCHECKs.
  bool IsValidMatching() const;
};

/// Comparator fixing the greedy selection order: heaviest edge first, ties
/// broken on (u, v). A total order whenever each (u, v) pair appears once,
/// which makes the greedy matching independent of how the edges were
/// produced — the property the external (run-merged) edge path relies on.
bool GreedyEdgeOrder(const WeightedEdge& a, const WeightedEdge& b);

/// Sorts `edges` into GreedyEdgeOrder over their indices with one stable
/// LSD radix sort (common/radix_sort.h). When `pair_sorted`, the edges
/// arrive in (u, v) order — as every linkage driver's scoring emits them —
/// and the stable sort keeps that order among equal weights, so only the
/// weight is sorted on; otherwise (u, v) is sorted on too. `threads` as in
/// RadixSort. -0.0 and 0.0 rank as equal weights, as in GreedyEdgeOrder.
void SortGreedyOrder(std::vector<IndexEdge>* edges, bool pair_sorted,
                     int threads);

/// The greedy pass over index edges offered in GreedyEdgeOrder: used
/// vertices are marked in two byte arrays sized by the vertex counts, and
/// only the matched pairs are turned back into ids. Every linkage driver
/// and GreedyMaxWeightMatching end in it. Offering edges out of order is a
/// programming error (SLIM_DCHECKed).
class FlatGreedyMatcher {
 public:
  FlatGreedyMatcher(size_t lefts, size_t rights);

  void Offer(const IndexEdge& edge);

  /// The matching in selection order, edge (u, v) mapped to
  /// (left_ids[u], right_ids[v]). Called once, after the last Offer().
  Matching Take(std::span<const EntityId> left_ids,
                std::span<const EntityId> right_ids);

 private:
  std::vector<uint8_t> taken_u_, taken_v_;  // 1: vertex already matched
  std::vector<IndexEdge> pairs_;
  IndexEdge last_;
  bool any_ = false;
};

/// Incremental greedy matcher for id edge streams that already arrive in
/// GreedyEdgeOrder and whose vertex universe is not known up front, so
/// used vertices go in hash sets (the linkage drivers know their stores
/// and use FlatGreedyMatcher). Offer() consumes one edge at a time;
/// Take() finalises. Offering edges out of order is a programming error
/// (SLIM_DCHECKed).
class StreamingGreedyMatcher {
 public:
  void Offer(const WeightedEdge& edge);
  Matching Take();

 private:
  Matching matching_;
  std::unordered_set<EntityId> used_u_, used_v_;
  WeightedEdge last_;
  bool any_ = false;
};

/// Greedy maximum-sum matching: repeatedly selects the heaviest remaining
/// edge whose endpoints are both unmatched. Deterministic: ties break on
/// (u, v). A thin adapter over the flat pass: the graph's ids are ranked
/// densely, SortGreedyOrder orders the index edges (weight only when the
/// graph is already in PairEdgeOrder) and FlatGreedyMatcher matches them.
Matching GreedyMaxWeightMatching(const BipartiteGraph& graph);

/// Exact maximum-weight bipartite matching via the Hungarian algorithm
/// (shortest augmenting paths with potentials), treating absent edges as
/// weight 0 and dropping zero-weight pairs from the result. O(n^2 m) on the
/// dense matrix — intended for graphs up to a few thousand vertices.
Matching HungarianMaxWeightMatching(const BipartiteGraph& graph);

}  // namespace slim

#endif  // SLIM_MATCH_MATCHER_H_
