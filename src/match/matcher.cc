#include "match/matcher.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/radix_sort.h"

namespace slim {

bool Matching::IsValidMatching() const {
  std::unordered_set<EntityId> left, right;
  for (const auto& e : pairs) {
    if (!left.insert(e.u).second) return false;
    if (!right.insert(e.v).second) return false;
  }
  return true;
}

bool GreedyEdgeOrder(const WeightedEdge& a, const WeightedEdge& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

namespace {

// Index-edge form of GreedyEdgeOrder (read by SLIM_DCHECKs only).
[[maybe_unused]] bool IndexGreedyOrder(const IndexEdge& a,
                                       const IndexEdge& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

// An unsigned key that ascends as `weight` descends: IEEE-754 bits ordered
// as unsigned (sign flipped for positives, all bits for negatives), then
// inverted. Adding 0.0 turns -0.0 into 0.0 so the two compare equal.
uint64_t DescendingWeightKey(double weight) {
  const uint64_t bits = std::bit_cast<uint64_t>(weight + 0.0);
  const uint64_t ascending =
      (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
  return ~ascending;
}

// Ranks one endpoint of `edges` densely: returns its distinct ids
// ascending and writes each edge's rank into (*out)[k].*slot, via one
// radix sort of (id, edge) pairs.
std::vector<EntityId> RankEndpoint(const std::vector<WeightedEdge>& edges,
                                   EntityId WeightedEdge::*side,
                                   uint32_t IndexEdge::*slot,
                                   std::vector<IndexEdge>* out) {
  struct Item {
    uint64_t key;  // the id with its sign bit flipped: unsigned order
    uint32_t edge;
  };
  constexpr uint64_t kSign = uint64_t{1} << 63;
  std::vector<Item> items(edges.size());
  for (size_t k = 0; k < edges.size(); ++k) {
    items[k] = {static_cast<uint64_t>(edges[k].*side) ^ kSign,
                static_cast<uint32_t>(k)};
  }
  std::vector<Item> scratch;
  RadixSort(
      &items, &scratch, 1, [](const Item& item, int) { return item.key; },
      1);
  std::vector<EntityId> ids;
  uint64_t last_key = 0;
  for (const Item& item : items) {
    if (ids.empty() || item.key != last_key) {
      ids.push_back(static_cast<EntityId>(item.key ^ kSign));
      last_key = item.key;
    }
    (*out)[item.edge].*slot = static_cast<uint32_t>(ids.size() - 1);
  }
  return ids;
}

}  // namespace

void SortGreedyOrder(std::vector<IndexEdge>* edges, bool pair_sorted,
                     int threads) {
  std::vector<IndexEdge> scratch;
  // Word 0 is the least significant: the weight alone, or (u, v) under it.
  const auto word = [pair_sorted](const IndexEdge& e, int w) -> uint64_t {
    if (pair_sorted || w == 1) return DescendingWeightKey(e.weight);
    return uint64_t{e.u} << 32 | e.v;
  };
  RadixSort(edges, &scratch, pair_sorted ? 1 : 2, word, threads);
}

FlatGreedyMatcher::FlatGreedyMatcher(size_t lefts, size_t rights)
    : taken_u_(lefts, 0), taken_v_(rights, 0) {}

void FlatGreedyMatcher::Offer(const IndexEdge& edge) {
  SLIM_DCHECK(!any_ || !IndexGreedyOrder(edge, last_));
  last_ = edge;
  any_ = true;
  if (taken_u_[edge.u] != 0 || taken_v_[edge.v] != 0) return;
  taken_u_[edge.u] = 1;
  taken_v_[edge.v] = 1;
  pairs_.push_back(edge);
}

Matching FlatGreedyMatcher::Take(std::span<const EntityId> left_ids,
                                 std::span<const EntityId> right_ids) {
  Matching matching;
  matching.pairs.reserve(pairs_.size());
  for (const IndexEdge& e : pairs_) {
    matching.pairs.push_back({left_ids[e.u], right_ids[e.v], e.weight});
    matching.total_weight += e.weight;
  }
  SLIM_DCHECK(matching.IsValidMatching());
  return matching;
}

void StreamingGreedyMatcher::Offer(const WeightedEdge& edge) {
  SLIM_DCHECK(!any_ || !GreedyEdgeOrder(edge, last_));
  last_ = edge;
  any_ = true;
  if (used_u_.count(edge.u) || used_v_.count(edge.v)) return;
  used_u_.insert(edge.u);
  used_v_.insert(edge.v);
  matching_.pairs.push_back(edge);
  matching_.total_weight += edge.weight;
}

Matching StreamingGreedyMatcher::Take() {
  SLIM_DCHECK(matching_.IsValidMatching());
  used_u_.clear();
  used_v_.clear();
  any_ = false;
  return std::move(matching_);
}

Matching GreedyMaxWeightMatching(const BipartiteGraph& graph) {
  const std::vector<WeightedEdge>& graph_edges = graph.edges();
  std::vector<IndexEdge> edges(graph_edges.size());
  for (size_t k = 0; k < edges.size(); ++k) {
    edges[k].weight = graph_edges[k].weight;
  }
  const std::vector<EntityId> lefts =
      RankEndpoint(graph_edges, &WeightedEdge::u, &IndexEdge::u, &edges);
  const std::vector<EntityId> rights =
      RankEndpoint(graph_edges, &WeightedEdge::v, &IndexEdge::v, &edges);
  const bool pair_sorted = std::is_sorted(
      edges.begin(), edges.end(), [](const IndexEdge& a, const IndexEdge& b) {
        return a.u != b.u ? a.u < b.u : a.v < b.v;
      });
  SortGreedyOrder(&edges, pair_sorted, 1);
  FlatGreedyMatcher matcher(lefts.size(), rights.size());
  for (const IndexEdge& e : edges) matcher.Offer(e);
  return matcher.Take(lefts, rights);
}

Matching HungarianMaxWeightMatching(const BipartiteGraph& graph) {
  // Collect vertex universes; ensure rows <= cols by transposing if needed.
  std::vector<EntityId> lefts, rights;
  {
    std::unordered_set<EntityId> ls, rs;
    for (const auto& e : graph.edges()) {
      if (ls.insert(e.u).second) lefts.push_back(e.u);
      if (rs.insert(e.v).second) rights.push_back(e.v);
    }
  }
  std::sort(lefts.begin(), lefts.end());
  std::sort(rights.begin(), rights.end());
  const bool transposed = lefts.size() > rights.size();
  if (transposed) std::swap(lefts, rights);

  const size_t n = lefts.size();
  const size_t m = rights.size();
  Matching result;
  if (n == 0) return result;

  std::unordered_map<EntityId, size_t> lidx, ridx;
  for (size_t i = 0; i < n; ++i) lidx[lefts[i]] = i;
  for (size_t j = 0; j < m; ++j) ridx[rights[j]] = j;

  // Dense cost matrix, minimisation form: cost = -weight; absent edge = 0.
  std::vector<std::vector<double>> cost(n, std::vector<double>(m, 0.0));
  for (const auto& e : graph.edges()) {
    const size_t i = transposed ? lidx.at(e.v) : lidx.at(e.u);
    const size_t j = transposed ? ridx.at(e.u) : ridx.at(e.v);
    cost[i][j] = std::min(cost[i][j], -e.weight);
  }

  // Shortest-augmenting-path Hungarian (1-indexed internal arrays).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u_pot(n + 1, 0.0), v_pot(m + 1, 0.0);
  std::vector<size_t> p(m + 1, 0);    // p[j]: row matched to column j
  std::vector<size_t> way(m + 1, 0);
  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double> minv(m + 1, kInf);
    std::vector<char> used(m + 1, 0);
    do {
      used[j0] = 1;
      const size_t i0 = p[j0];
      double delta = kInf;
      size_t j1 = 0;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = cost[i0 - 1][j - 1] - u_pot[i0] - v_pot[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u_pot[p[j]] += delta;
          v_pot[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  // Read out assignments; keep only pairs backed by a real positive edge.
  std::unordered_map<EntityId, std::unordered_map<EntityId, double>> weights;
  for (const auto& e : graph.edges()) weights[e.u][e.v] = e.weight;
  for (size_t j = 1; j <= m; ++j) {
    if (p[j] == 0) continue;
    const EntityId a = transposed ? rights[j - 1] : lefts[p[j] - 1];
    const EntityId b = transposed ? lefts[p[j] - 1] : rights[j - 1];
    const auto it = weights.find(a);
    if (it == weights.end()) continue;
    const auto jt = it->second.find(b);
    if (jt == it->second.end()) continue;
    result.pairs.push_back({a, b, jt->second});
    result.total_weight += jt->second;
  }
  std::sort(result.pairs.begin(), result.pairs.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
  SLIM_DCHECK(result.IsValidMatching());
  return result;
}

}  // namespace slim
