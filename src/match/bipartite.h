// Weighted bipartite graph over the entities of the two datasets
// (paper Sec. 3.2): left vertices come from dataset E, right vertices from
// dataset I, and edge weights are similarity scores. Only positive-score
// pairs are added (the paper adds no edge for negative scores).
#ifndef SLIM_MATCH_BIPARTITE_H_
#define SLIM_MATCH_BIPARTITE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/record.h"

namespace slim {

/// One weighted edge (u from dataset E, v from dataset I).
struct WeightedEdge {
  EntityId u = 0;
  EntityId v = 0;
  double weight = 0.0;

  bool operator==(const WeightedEdge&) const = default;
};

/// One weighted edge over dense vertex indices: u and v are ranks in the
/// ascending left / right id lists (the stores' EntityIdx), so any order
/// on indices is the same order on ids. The linkage drivers score, sort
/// and match these 16-byte edges and turn only matched pairs into ids.
struct IndexEdge {
  uint32_t u = 0;
  uint32_t v = 0;
  double weight = 0.0;

  bool operator==(const IndexEdge&) const = default;
};

/// The canonical (u, v) edge order every driver seals its edge set into.
/// A total order whenever each (u, v) pair appears once (each pair is
/// scored exactly once), so the sealed graph is independent of thread,
/// shard, and spill-run boundaries.
inline bool PairEdgeOrder(const WeightedEdge& a, const WeightedEdge& b) {
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

/// Edge-list bipartite graph. Vertices are implicit (any EntityId may
/// appear); parallel edges are not checked — callers add each (u, v) once.
class BipartiteGraph {
 public:
  BipartiteGraph() = default;
  explicit BipartiteGraph(std::vector<WeightedEdge> edges)
      : edges_(std::move(edges)) {}

  void AddEdge(EntityId u, EntityId v, double weight) {
    edges_.push_back({u, v, weight});
  }
  void Reserve(size_t n) { edges_.reserve(n); }

  const std::vector<WeightedEdge>& edges() const { return edges_; }
  size_t num_edges() const { return edges_.size(); }

  /// Distinct left / right vertex counts.
  size_t num_left_vertices() const;
  size_t num_right_vertices() const;

 private:
  std::vector<WeightedEdge> edges_;
};

}  // namespace slim

#endif  // SLIM_MATCH_BIPARTITE_H_
