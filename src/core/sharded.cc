#include "core/sharded.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "core/candidates.h"
#include "core/sctx.h"
#include "core/similarity.h"

namespace slim {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// How much bigger than the shard's resident store bytes the block working
// set (candidate CSR, postings/buckets, per-block edges) is assumed to be.
// Chosen from the measured bench_sharded curves; deliberately conservative
// so a budget is an upper bound, not a target.
constexpr uint64_t kBlockExpansionFactor = 4;

// Structural floor below which no per-entity estimate may fall: one
// candidate-list entry plus one edge per entity is the bare minimum any
// block holds.
constexpr uint64_t kPerEntityFloorBytes = 64;

bool PathExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// The block + merge stages shared by LinkSharded and LinkShardedContext:
// everything after the context exists. `result` arrives with the context
// phase's timings filled in; `t_start` anchors seconds_total.
Result<LinkageResult> RunShardedBlocks(
    const SlimConfig& config, int threads, const LinkageContext& ctx,
    uint64_t rss_before_context, std::chrono::steady_clock::time_point t_start,
    LinkageResult result) {
  // A context built under another resolution (an SCTX file written by an
  // earlier run, say) would silently link at that resolution. Matching it
  // also guarantees the LSH signature level does not exceed the leaf level
  // of the context's cells (the SlimLinker constructor checks it against
  // config.history).
  if (!(ctx.config == config.history)) {
    const auto describe = [](const HistoryConfig& c) {
      return "spatial_level " + std::to_string(c.spatial_level) +
             ", window_seconds " + std::to_string(c.window_seconds) +
             ", region_radius_meters " +
             std::to_string(c.region_radius_meters);
    };
    return Status::InvalidArgument("linkage context was built under " +
                                   describe(ctx.config) +
                                   ", but the run asks for " +
                                   describe(config.history));
  }
  result.possible_pairs = static_cast<uint64_t>(ctx.store_e.size()) *
                          static_cast<uint64_t>(ctx.store_i.size());
  if (ctx.store_e.size() == 0 || ctx.store_i.size() == 0) {
    result.seconds_total = SecondsSince(t_start);
    result.rss_peak_total = CurrentPeakRssBytes();
    return result;
  }

  const ShardPlan plan = EstimateShardPlan(ctx, config, rss_before_context);
  result.shards_used = plan.shards;
  result.left_shards_used = plan.left_shards;

  // 2/3. Candidates + scoring, one L x K block at a time in (left, right)
  //      order. A block's candidate index lives only for its own scoring
  //      pass; edges leave through the external sort, so at any instant
  //      the process holds one block's index plus one run buffer.
  //      Spilling is pointless for a single block (the merge would reload
  //      everything immediately).
  const SimilarityEngine engine(ctx, config.similarity);
  const bool need_graph =
      config.keep_graph || config.matcher == MatcherKind::kHungarian;
  EdgeSpillOptions spill_options;
  spill_options.to_disk = plan.left_shards * plan.shards > 1;
  spill_options.run_bytes = static_cast<size_t>(config.spill_run_bytes);
  // Runs sort into the order the seal scans first (its only scan, when the
  // graph is skipped), so the common path is a single merge pass.
  spill_options.run_order =
      need_graph ? EdgeOrder::kPair : EdgeOrder::kScore;
  EdgeSpill spill(spill_options);

  for (const auto& [left_begin, left_end] : plan.left_ranges) {
    for (const auto& [right_begin, right_end] : plan.ranges) {
      auto t0 = std::chrono::steady_clock::now();
      const std::unique_ptr<CandidateGenerator> generator =
          MakeShardCandidateGenerator(config.candidates, ctx, config.lsh,
                                      config.grid, left_begin, left_end,
                                      right_begin, right_end, threads);
      result.candidate_pairs += generator->total_candidate_pairs();
      result.seconds_lsh += SecondsSince(t0);
      result.rss_peak_lsh = CurrentPeakRssBytes();

      t0 = std::chrono::steady_clock::now();
      std::vector<std::vector<WeightedEdge>> block_edges(
          static_cast<size_t>(threads));
      std::vector<SimilarityStats> block_stats(static_cast<size_t>(threads));
      ParallelFor(
          static_cast<size_t>(left_end - left_begin),
          [&](size_t begin, size_t end, int shard) {
            auto& edges = block_edges[static_cast<size_t>(shard)];
            auto& stats = block_stats[static_cast<size_t>(shard)];
            CellDistanceCache cache;
            ScoreScratch scratch;
            for (size_t k = begin; k < end; ++k) {
              const EntityIdx u_idx =
                  left_begin + static_cast<EntityIdx>(k);
              const EntityId u = ctx.store_e.entity_id(u_idx);
              for (const EntityIdx v_idx :
                   generator->CandidatesFor(u_idx)) {
                const double s = engine.ScoreIndexed(u_idx, v_idx, &stats,
                                                     &cache, &scratch);
                if (s > 0.0) {
                  edges.push_back({u, ctx.store_i.entity_id(v_idx), s});
                }
              }
            }
            stats.cache_hits += cache.hits();
            stats.cache_misses += cache.misses();
          },
          threads);
      // Blocks leave in (left, right, thread-shard) order — any order
      // works, the merge re-sorts — and their scratch dies here.
      for (int shard = 0; shard < threads; ++shard) {
        result.stats += block_stats[static_cast<size_t>(shard)];
        spill.Append(std::move(block_edges[static_cast<size_t>(shard)]));
      }
      result.seconds_scoring += SecondsSince(t0);
      result.rss_peak_scoring = CurrentPeakRssBytes();
    }
  }

  result.spilled_edges = spill.size();
  result.spill_on_disk = spill.on_disk();

  // 4/5. Deterministic merge into the shared matching + threshold tail:
  // the seal fixes the canonical edge orders, so the block partition
  // leaves no trace in the output.
  if (Status s = internal::SealLinkageStreamed(config, &spill, &result);
      !s.ok()) {
    return s;
  }
  result.spill_bytes_written = spill.spill_bytes_written();
  result.merge_passes = spill.merge_passes();

  result.seconds_total = SecondsSince(t_start);
  result.rss_peak_total = CurrentPeakRssBytes();
  return result;
}

}  // namespace

std::vector<std::pair<EntityIdx, EntityIdx>> BalancedEntityRanges(
    size_t count, int parts) {
  size_t k = static_cast<size_t>(std::max(1, parts));
  if (count > 0) k = std::min(k, count);
  if (count == 0) k = 1;
  // Balanced contiguous ranges: the first (count % k) parts take one extra
  // entity, so sizes differ by at most one.
  const size_t base = count / k;
  const size_t extra = count % k;
  std::vector<std::pair<EntityIdx, EntityIdx>> ranges;
  ranges.reserve(k);
  EntityIdx begin = 0;
  for (size_t s = 0; s < k; ++s) {
    const EntityIdx end =
        begin + static_cast<EntityIdx>(base + (s < extra ? 1 : 0));
    ranges.emplace_back(begin, end);
    begin = end;
  }
  SLIM_CHECK(ranges.back().second == count);
  return ranges;
}

ShardPlan ShardPlan::Fixed(size_t rights, int shards) {
  ShardPlan plan;
  plan.ranges = BalancedEntityRanges(rights, shards);
  plan.shards = static_cast<int>(plan.ranges.size());
  // Fixed() cannot know the left extent; EstimateShardPlan balances
  // left_ranges over the actual left store.
  return plan;
}

uint64_t EstimateBlockBytesPerEntity(const LinkageContext& context,
                                     uint64_t rss_before_context) {
  const HistoryStore& si = context.store_i;
  const size_t rights = si.size();
  if (rights == 0) return kPerEntityFloorBytes;

  // Structural floor: the right store's own CSR bytes per entity — bin ids,
  // counts, windows, window->bin map — which the block's postings and
  // candidate lists mirror at least once.
  const uint64_t store_bytes =
      si.bin_ids().size() * (sizeof(BinId) + sizeof(uint32_t) * 2) +
      si.entity_ids().size() *
          (sizeof(EntityId) + sizeof(uint32_t) * 2 + sizeof(uint64_t));
  uint64_t per_entity = store_bytes / rights;

  // RSS calibration: the context build's measured growth per entity (both
  // sides) captures allocator overhead and the binning scratch the
  // structural count misses. Peak RSS is monotone, so the difference is a
  // true lower bound on what the build added.
  const uint64_t rss_now = CurrentPeakRssBytes();
  const size_t entities = context.store_e.size() + rights;
  if (rss_now > rss_before_context && entities > 0) {
    per_entity = std::max(per_entity,
                          (rss_now - rss_before_context) / entities);
  }
  return std::max(per_entity * kBlockExpansionFactor, kPerEntityFloorBytes);
}

ShardPlan EstimateShardPlan(const LinkageContext& context,
                            const SlimConfig& config,
                            uint64_t rss_before_context) {
  const size_t rights = context.store_i.size();
  ShardPlan plan;
  if (config.shards > 0) {
    plan = ShardPlan::Fixed(rights, config.shards);
  } else if (config.shard_memory_budget_bytes == 0 || rights == 0) {
    plan = ShardPlan::Fixed(rights, 1);
  } else {
    const uint64_t per_entity =
        EstimateBlockBytesPerEntity(context, rss_before_context);
    const uint64_t budget = config.shard_memory_budget_bytes;
    // Smallest K with ceil(rights / K) * per_entity <= budget: at most
    // floor(budget / per_entity) entities fit one shard, so K must cover
    // `rights` in chunks of that size (one entity per shard when even a
    // single entity exceeds the budget — sharding cannot go finer).
    const uint64_t entities_per_shard = budget / per_entity;
    const uint64_t shards =
        entities_per_shard == 0
            ? rights
            : (rights + entities_per_shard - 1) / entities_per_shard;
    plan = ShardPlan::Fixed(
        rights, static_cast<int>(std::min<uint64_t>(
                    shards == 0 ? 1 : shards,
                    static_cast<uint64_t>(std::numeric_limits<int>::max()))));
    plan.per_entity_bytes = per_entity;
  }
  plan.left_ranges =
      BalancedEntityRanges(context.store_e.size(), config.left_shards);
  plan.left_shards = static_cast<int>(plan.left_ranges.size());
  return plan;
}

Result<LinkageResult> SlimLinker::LinkSharded(
    const LocationDataset& dataset_e, const LocationDataset& dataset_i) const {
  if (!dataset_e.finalized() || !dataset_i.finalized()) {
    return Status::FailedPrecondition("datasets must be finalized");
  }
  const auto t_start = std::chrono::steady_clock::now();
  LinkageResult result;
  result.candidates_used = config_.candidates;
  const int threads =
      config_.threads > 0 ? config_.threads : DefaultThreadCount();
  const uint64_t rss_before_context = CurrentPeakRssBytes();

  // 1. The global context — identical to the monolithic path: IDF, length
  //    norms, the bin vocabulary, and the LSH query grid are dataset-level
  //    statistics, so they must see both full datasets whatever the plan
  //    is. With sctx_path set the heap build happens at most once (to
  //    create the file) and the run proceeds over the mapped image, so the
  //    steady-state context cost is page cache instead of RSS.
  auto t0 = std::chrono::steady_clock::now();
  LinkageContext ctx;
  if (config_.sctx_path.empty()) {
    ctx = LinkageContext::Build(dataset_e, dataset_i, config_.history,
                                threads);
  } else {
    if (!PathExists(config_.sctx_path)) {
      // Scoped so the heap context dies before the mapped one loads: the
      // whole point is not paying for both at once.
      const LinkageContext built = LinkageContext::Build(
          dataset_e, dataset_i, config_.history, threads);
      if (Status s = WriteSctx(built, config_.sctx_path); !s.ok()) return s;
    }
    Result<LinkageContext> loaded = ReadSctx(config_.sctx_path);
    if (!loaded.ok()) return loaded.status();
    ctx = std::move(loaded.value());
  }
  result.seconds_histories = SecondsSince(t0);
  result.rss_peak_histories = CurrentPeakRssBytes();

  return RunShardedBlocks(config_, threads, ctx, rss_before_context, t_start,
                          std::move(result));
}

Result<LinkageResult> SlimLinker::LinkShardedContext(
    const LinkageContext& context) const {
  const auto t_start = std::chrono::steady_clock::now();
  LinkageResult result;
  result.candidates_used = config_.candidates;
  const int threads =
      config_.threads > 0 ? config_.threads : DefaultThreadCount();
  result.rss_peak_histories = CurrentPeakRssBytes();
  return RunShardedBlocks(config_, threads, context, CurrentPeakRssBytes(),
                          t_start, std::move(result));
}

}  // namespace slim
