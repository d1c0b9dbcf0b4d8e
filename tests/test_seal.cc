// Tests of the flat seal (core/slim.h internal::SealLinkage,
// match/matcher.h SortGreedyOrder + FlatGreedyMatcher): the radix-sorted,
// byte-array greedy pass must select exactly what the reference greedy —
// std::sort by GreedyEdgeOrder, used vertices in hash sets — selects, in
// the same order; and every driver must give the same links, matching and
// threshold whether or not it keeps the edge graph.
#include <algorithm>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/incremental.h"
#include "slim.h"

namespace slim {
namespace {

// The reference greedy over id edges.
Matching ReferenceGreedy(std::vector<WeightedEdge> edges) {
  std::sort(edges.begin(), edges.end(), GreedyEdgeOrder);
  Matching m;
  std::unordered_set<EntityId> used_u, used_v;
  for (const WeightedEdge& e : edges) {
    if (used_u.count(e.u) != 0 || used_v.count(e.v) != 0) continue;
    used_u.insert(e.u);
    used_v.insert(e.v);
    m.pairs.push_back(e);
    m.total_weight += e.weight;
  }
  return m;
}

// Ids with gaps and negatives, ascending, so index order is id order.
std::vector<EntityId> SpreadIds(size_t n, int64_t first) {
  std::vector<EntityId> ids(n);
  for (size_t k = 0; k < n; ++k) {
    ids[k] = first + static_cast<EntityId>(3 * k);
  }
  return ids;
}

// `count` distinct (u, v) pairs in (u, v) order over lefts x rights, with
// weights drawn from a handful of values so most weights tie.
std::vector<IndexEdge> TiedPairEdges(size_t lefts, size_t rights,
                                     size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(count);
  while (keys.size() < count) {
    keys.push_back(rng.NextUint64(lefts) * rights + rng.NextUint64(rights));
    if (keys.size() == count) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
  }
  constexpr double kWeights[] = {0.25, 0.5, 1.0, 1.5, 2.0, 7.0};
  std::vector<IndexEdge> edges;
  edges.reserve(count);
  for (const uint64_t key : keys) {
    edges.push_back({static_cast<uint32_t>(key / rights),
                     static_cast<uint32_t>(key % rights),
                     kWeights[rng.NextUint64(std::size(kWeights))]});
  }
  return edges;
}

struct FlatCase {
  size_t lefts;
  size_t rights;
  size_t edges;
  int threads;
};

class FlatSealEqualsReference : public ::testing::TestWithParam<FlatCase> {};

TEST_P(FlatSealEqualsReference, SamePairsInSameOrder) {
  const FlatCase c = GetParam();
  const std::vector<EntityId> left_ids = SpreadIds(c.lefts, -1000);
  const std::vector<EntityId> right_ids = SpreadIds(c.rights, 5);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<IndexEdge> edges =
        TiedPairEdges(c.lefts, c.rights, c.edges, seed);
    std::vector<WeightedEdge> id_edges;
    for (const IndexEdge& e : edges) {
      id_edges.push_back({left_ids[e.u], right_ids[e.v], e.weight});
    }
    const Matching expected = ReferenceGreedy(id_edges);

    SortGreedyOrder(&edges, /*pair_sorted=*/true, c.threads);
    FlatGreedyMatcher matcher(c.lefts, c.rights);
    for (const IndexEdge& e : edges) matcher.Offer(e);
    const Matching flat = matcher.Take(left_ids, right_ids);
    EXPECT_EQ(flat.pairs, expected.pairs) << "seed " << seed;
    EXPECT_EQ(flat.total_weight, expected.total_weight) << "seed " << seed;

    // The graph adapter ranks ids itself and takes any edge order.
    std::vector<WeightedEdge> shuffled = id_edges;
    Rng rng(seed + 100);
    for (size_t k = shuffled.size(); k > 1; --k) {
      std::swap(shuffled[k - 1], shuffled[rng.NextUint64(k)]);
    }
    const Matching adapted =
        GreedyMaxWeightMatching(BipartiteGraph(std::move(shuffled)));
    EXPECT_EQ(adapted.pairs, expected.pairs) << "seed " << seed;
    EXPECT_EQ(adapted.total_weight, expected.total_weight) << "seed " << seed;
  }
}

// The last two cases lie above RadixSort's 2^15-item parallel threshold.
INSTANTIATE_TEST_SUITE_P(
    TiesAndThreads, FlatSealEqualsReference,
    ::testing::Values(FlatCase{40, 30, 300, 1}, FlatCase{40, 30, 300, 4},
                      FlatCase{900, 700, 50000, 1},
                      FlatCase{900, 700, 50000, 4}),
    [](const ::testing::TestParamInfo<FlatCase>& test_case) {
      return "edges" + std::to_string(test_case.param.edges) + "_threads" +
             std::to_string(test_case.param.threads);
    });

TEST(FlatSeal, SignedZeroAndNegativeWeightsFollowGreedyEdgeOrder) {
  BipartiteGraph graph;
  graph.AddEdge(2, 20, -0.0);
  graph.AddEdge(1, 21, 0.0);
  graph.AddEdge(1, 20, -1.0);
  graph.AddEdge(3, 22, -0.5);
  const Matching flat = GreedyMaxWeightMatching(graph);
  const Matching expected = ReferenceGreedy(graph.edges());
  EXPECT_EQ(flat.pairs, expected.pairs);
}

const LocationDataset& CabMaster() {
  static const LocationDataset ds = [] {
    CabGeneratorOptions opt;
    opt.num_taxis = 36;
    opt.duration_days = 1.5;
    opt.record_interval_seconds = 360.0;
    return GenerateCabDataset(opt);
  }();
  return ds;
}

LinkedPairSample CabSample() {
  PairSampleOptions opt;
  opt.entities_per_side = 18;
  opt.intersection_ratio = 0.5;
  opt.inclusion_probability = 0.5;
  opt.seed = 11;
  auto s = SampleLinkedPair(CabMaster(), opt);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s.value());
}

SlimConfig SealConfig(bool keep_graph, int threads) {
  SlimConfig c;
  c.candidates = CandidateKind::kBruteForce;
  c.threads = threads;
  c.keep_graph = keep_graph;
  return c;
}

// Everything but the graph agrees; the graph is empty exactly when it was
// not asked for, and the edge count is recorded either way.
void ExpectSameSeal(const LinkageResult& kept, const LinkageResult& skipped,
                    const std::string& what) {
  EXPECT_EQ(skipped.links, kept.links) << what;
  EXPECT_EQ(skipped.matching.pairs, kept.matching.pairs) << what;
  EXPECT_EQ(skipped.matching.total_weight, kept.matching.total_weight)
      << what;
  EXPECT_EQ(skipped.threshold_valid, kept.threshold_valid) << what;
  EXPECT_EQ(skipped.threshold.threshold, kept.threshold.threshold) << what;
  EXPECT_GT(kept.positive_edges, 0u) << what;
  EXPECT_EQ(kept.graph.num_edges(), kept.positive_edges) << what;
  EXPECT_EQ(skipped.graph.num_edges(), 0u) << what;
  EXPECT_EQ(skipped.positive_edges, kept.positive_edges) << what;
}

TEST(FlatSeal, LinkWithoutGraphEqualsLinkWithGraph) {
  const LinkedPairSample s = CabSample();
  for (const int threads : {1, 4}) {
    auto kept = SlimLinker(SealConfig(true, threads)).Link(s.a, s.b);
    auto skipped = SlimLinker(SealConfig(false, threads)).Link(s.a, s.b);
    ASSERT_TRUE(kept.ok() && skipped.ok());
    EXPECT_FALSE(kept->links.empty());
    ExpectSameSeal(*kept, *skipped, "threads " + std::to_string(threads));
  }
}

TEST(FlatSeal, IncrementalEpochsWithoutGraphEqualWithGraph) {
  const LinkedPairSample s = CabSample();
  IncrementalLinker kept(SealConfig(true, 2));
  IncrementalLinker skipped(SealConfig(false, 2));
  const std::vector<Record>& a = s.a.records();
  const std::vector<Record>& b = s.b.records();
  const size_t half_a = a.size() / 2;
  const size_t half_b = b.size() / 2;
  const std::vector<std::pair<std::span<const Record>,
                              std::span<const Record>>>
      epochs = {{{a.data(), half_a}, {b.data(), half_b}},
                {{a.data() + half_a, a.size() - half_a},
                 {b.data() + half_b, b.size() - half_b}}};
  int epoch = 0;
  for (const auto& [part_a, part_b] : epochs) {
    for (IncrementalLinker* linker : {&kept, &skipped}) {
      linker->Ingest(LinkageSide::kE, part_a);
      linker->Ingest(LinkageSide::kI, part_b);
    }
    auto with_graph = kept.LinkEpoch();
    auto without_graph = skipped.LinkEpoch();
    ASSERT_TRUE(with_graph.ok() && without_graph.ok());
    ExpectSameSeal(with_graph->linkage, without_graph->linkage,
                   "epoch " + std::to_string(++epoch));
  }
}

}  // namespace
}  // namespace slim
