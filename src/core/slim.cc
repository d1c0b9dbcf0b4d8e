#include "core/slim.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "core/edge_spill.h"

namespace slim {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

SlimLinker::SlimLinker(SlimConfig config) : config_(std::move(config)) {
  SLIM_CHECK_MSG(config_.history.window_seconds > 0,
                 "window width must be positive");
  SLIM_CHECK_MSG(config_.history.spatial_level >= 0 &&
                     config_.history.spatial_level <= CellId::kMaxLevel,
                 "invalid spatial level");
  SLIM_CHECK_MSG(config_.candidates != CandidateKind::kLsh ||
                     config_.lsh.signature_spatial_level <=
                         config_.history.spatial_level,
                 "LSH signature level must not exceed the history leaf level");
}

Result<LinkageResult> SlimLinker::Link(const LocationDataset& dataset_e,
                                       const LocationDataset& dataset_i) const {
  if (!dataset_e.finalized() || !dataset_i.finalized()) {
    return Status::FailedPrecondition("datasets must be finalized");
  }
  const auto t_start = std::chrono::steady_clock::now();
  LinkageResult result;
  result.candidates_used = config_.candidates;
  const int threads =
      config_.threads > 0 ? config_.threads : DefaultThreadCount();

  // 1. Dense linkage context: bin vocabulary + the two CSR history stores
  //    (CreateHistories of Alg. 1).
  auto t0 = std::chrono::steady_clock::now();
  const LinkageContext ctx =
      LinkageContext::Build(dataset_e, dataset_i, config_.history, threads);
  result.seconds_histories = SecondsSince(t0);
  result.rss_peak_histories = CurrentPeakRssBytes();
  result.possible_pairs = static_cast<uint64_t>(ctx.store_e.size()) *
                          static_cast<uint64_t>(ctx.store_i.size());
  if (ctx.store_e.size() == 0 || ctx.store_i.size() == 0) {
    result.seconds_total = SecondsSince(t_start);
    result.rss_peak_total = CurrentPeakRssBytes();
    return result;
  }

  // 2. Candidate generation (LSHFilterPairs of Alg. 1, generalised to the
  //    configured blocking stage).
  t0 = std::chrono::steady_clock::now();
  std::unique_ptr<CandidateGenerator> generator = MakeCandidateGenerator(
      config_.candidates, ctx, config_.lsh, config_.grid, threads);
  result.candidate_pairs = generator->total_candidate_pairs();
  result.seconds_lsh = SecondsSince(t0);
  result.rss_peak_lsh = CurrentPeakRssBytes();

  // 3. Pairwise similarity scores -> positive-score edges. The candidate
  //    index dies before the shard lists are joined, so the seal's edge
  //    list and sort scratch reuse its memory instead of adding to it.
  t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<IndexEdge>> shard_edges = internal::ScoreEdges(
      SimilarityEngine(ctx, config_.similarity), *generator, 0,
      static_cast<EntityIdx>(ctx.store_e.size()), threads, &result.stats);
  generator.reset();
  std::vector<IndexEdge> edges =
      internal::ConcatenateShards(std::move(shard_edges));
  result.seconds_scoring = SecondsSince(t0);
  result.rss_peak_scoring = CurrentPeakRssBytes();

  // 4/5. Matching + stop threshold — shared with every driver.
  internal::SealLinkage(config_, ctx, threads, std::move(edges), &result);

  result.seconds_total = SecondsSince(t_start);
  result.rss_peak_total = CurrentPeakRssBytes();
  return result;
}

namespace internal {

bool SealNeedsGraph(const SlimConfig& config) {
  return config.keep_graph || config.matcher == MatcherKind::kHungarian;
}

namespace {

// The stop-threshold + final-links tail of both seal inputs:
// result->matching must already be filled.
void ApplyStopThreshold(const SlimConfig& config, LinkageResult* result) {
  // Automated stop threshold over the matched edge weights.
  std::vector<double> weights;
  weights.reserve(result->matching.pairs.size());
  for (const auto& e : result->matching.pairs) weights.push_back(e.weight);

  double cutoff = -std::numeric_limits<double>::infinity();
  if (config.apply_stop_threshold) {
    auto decision = DetectStopThreshold(weights, config.threshold_method);
    if (decision.ok()) {
      result->threshold = std::move(decision.value());
      result->threshold_valid = true;
      cutoff = result->threshold.threshold;
    }
    // On detector failure (too few / degenerate weights) every matched pair
    // is kept — the caller can inspect threshold_valid.
  }

  for (const auto& e : result->matching.pairs) {
    if (e.weight > cutoff) result->links.push_back({e.u, e.v, e.weight});
  }
  std::sort(result->links.begin(), result->links.end(),
            [](const LinkedEntityPair& a, const LinkedEntityPair& b) {
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
}

}  // namespace

std::vector<std::vector<IndexEdge>> ScoreEdges(
    const SimilarityEngine& engine, const CandidateGenerator& generator,
    EntityIdx left_begin, EntityIdx left_end, int threads,
    SimilarityStats* stats) {
  std::vector<std::vector<IndexEdge>> shard_edges(
      static_cast<size_t>(threads));
  std::vector<SimilarityStats> shard_stats(static_cast<size_t>(threads));
  ParallelFor(
      left_end - left_begin,
      [&](size_t begin, size_t end, int shard) {
        auto& edges = shard_edges[static_cast<size_t>(shard)];
        auto& shard_stat = shard_stats[static_cast<size_t>(shard)];
        CellDistanceCache cache;
        ScoreScratch scratch;
        for (size_t k = begin; k < end; ++k) {
          const EntityIdx u = left_begin + static_cast<EntityIdx>(k);
          for (const EntityIdx v : generator.CandidatesFor(u)) {
            const double s =
                engine.ScoreIndexed(u, v, &shard_stat, &cache, &scratch);
            if (s > 0.0) edges.push_back({u, v, s});
          }
        }
        shard_stat.cache_hits += cache.hits();
        shard_stat.cache_misses += cache.misses();
      },
      threads);
  for (const SimilarityStats& shard_stat : shard_stats) *stats += shard_stat;
  return shard_edges;
}

std::vector<IndexEdge> ConcatenateShards(
    std::vector<std::vector<IndexEdge>> shards) {
  size_t total = 0;
  size_t filled = 0;
  for (const auto& shard : shards) {
    total += shard.size();
    filled += shard.empty() ? 0 : 1;
  }
  if (filled == 1) {
    for (auto& shard : shards) {
      if (!shard.empty()) return std::move(shard);
    }
  }
  std::vector<IndexEdge> edges;
  edges.reserve(total);
  for (auto& shard : shards) {
    edges.insert(edges.end(), shard.begin(), shard.end());
    std::vector<IndexEdge>().swap(shard);
  }
  return edges;
}

void SealLinkage(const SlimConfig& config, const LinkageContext& ctx,
                 int threads, std::vector<IndexEdge> edges,
                 LinkageResult* result) {
  SLIM_DCHECK(std::is_sorted(edges.begin(), edges.end(),
                             [](const IndexEdge& a, const IndexEdge& b) {
                               return a.u != b.u ? a.u < b.u : a.v < b.v;
                             }));
  result->positive_edges = edges.size();
  const std::span<const EntityId> left_ids = ctx.store_e.entity_ids().span();
  const std::span<const EntityId> right_ids = ctx.store_i.entity_ids().span();
  if (SealNeedsGraph(config)) {
    // Index order is id order, so the graph comes out (u, v)-sorted.
    std::vector<WeightedEdge> graph_edges;
    graph_edges.reserve(edges.size());
    for (const IndexEdge& e : edges) {
      graph_edges.push_back({left_ids[e.u], right_ids[e.v], e.weight});
    }
    result->graph = BipartiteGraph(std::move(graph_edges));
  }

  // Maximum-sum bipartite matching (LinkPairs of Alg. 1).
  const auto t0 = std::chrono::steady_clock::now();
  if (config.matcher == MatcherKind::kHungarian) {
    result->matching = HungarianMaxWeightMatching(result->graph);
  } else {
    SortGreedyOrder(&edges, /*pair_sorted=*/true, threads);
    FlatGreedyMatcher matcher(left_ids.size(), right_ids.size());
    for (const IndexEdge& e : edges) matcher.Offer(e);
    std::vector<IndexEdge>().swap(edges);
    result->matching = matcher.Take(left_ids, right_ids);
  }
  result->seconds_matching = SecondsSince(t0);
  result->rss_peak_matching = CurrentPeakRssBytes();

  ApplyStopThreshold(config, result);
}

Status SealLinkage(const SlimConfig& config, const LinkageContext& ctx,
                   int threads, EdgeSpill* spill, LinkageResult* result) {
  if (Status s = spill->Seal(); !s.ok()) return s;
  const auto to_index = [](const WeightedEdge& e) {
    return IndexEdge{static_cast<uint32_t>(e.u), static_cast<uint32_t>(e.v),
                     e.weight};
  };

  if (SealNeedsGraph(config)) {
    // The (u, v)-ordered merge is the vector the in-memory seal takes.
    std::vector<IndexEdge> edges;
    edges.reserve(static_cast<size_t>(spill->size()));
    if (Status s = spill->Scan(EdgeOrder::kPair,
                               [&](const WeightedEdge& e) {
                                 edges.push_back(to_index(e));
                               });
        !s.ok()) {
      return s;
    }
    SealLinkage(config, ctx, threads, std::move(edges), result);
    return Status::Ok();
  }

  // The score-ordered merge is exactly GreedyEdgeOrder, so it streams into
  // the greedy pass unsorted and only the matching is ever resident.
  result->positive_edges = spill->size();
  const auto t0 = std::chrono::steady_clock::now();
  FlatGreedyMatcher matcher(ctx.store_e.size(), ctx.store_i.size());
  if (Status s = spill->Scan(
          EdgeOrder::kScore,
          [&](const WeightedEdge& e) { matcher.Offer(to_index(e)); });
      !s.ok()) {
    return s;
  }
  result->matching = matcher.Take(ctx.store_e.entity_ids().span(),
                                  ctx.store_i.entity_ids().span());
  result->seconds_matching = SecondsSince(t0);
  result->rss_peak_matching = CurrentPeakRssBytes();

  ApplyStopThreshold(config, result);
  return Status::Ok();
}

}  // namespace internal

}  // namespace slim
