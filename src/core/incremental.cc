#include "core/incremental.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/check.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "core/candidates.h"
#include "core/similarity.h"

namespace slim {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Membership flags of the sorted `appended` ids over a store's (sorted)
// entity order.
std::vector<uint8_t> DirtyFlags(const HistoryStore& store,
                                std::span<const EntityId> appended) {
  std::vector<uint8_t> flags(store.size(), 0);
  const FlatArray<EntityId>& ids = store.entity_ids();
  size_t k = 0;
  for (const EntityId id : appended) {
    while (k < ids.size() && ids[k] < id) ++k;
    if (k < ids.size() && ids[k] == id) flags[k] = 1;
  }
  return flags;
}

}  // namespace

IncrementalLinker::IncrementalLinker(SlimConfig config)
    : config_(std::move(config)) {
  SLIM_CHECK_MSG(config_.history.window_seconds > 0,
                 "window width must be positive");
  SLIM_CHECK_MSG(config_.history.spatial_level >= 0 &&
                     config_.history.spatial_level <= CellId::kMaxLevel,
                 "invalid spatial level");
  SLIM_CHECK_MSG(config_.candidates != CandidateKind::kLsh ||
                     config_.lsh.signature_spatial_level <=
                         config_.history.spatial_level,
                 "LSH signature level must not exceed the history leaf level");
  ctx_.config = config_.history;
}

void IncrementalLinker::Ingest(LinkageSide side,
                               std::span<const Record> records) {
  ctx_.AppendRecords(side, records);
  (side == LinkageSide::kE ? pending_records_e_ : pending_records_i_) +=
      records.size();
  (side == LinkageSide::kE ? total_records_e_ : total_records_i_) +=
      records.size();
}

Result<EpochResult> IncrementalLinker::LinkEpoch() {
  const auto t_start = std::chrono::steady_clock::now();
  const int threads =
      config_.threads > 0 ? config_.threads : DefaultThreadCount();

  EpochResult out;
  out.incremental.appended_records = pending_records_e_ + pending_records_i_;
  LinkageResult& result = out.linkage;
  result.candidates_used = config_.candidates;

  // 1. Fold buffered appends into the dense context.
  auto t0 = std::chrono::steady_clock::now();
  const LinkageContext::CompactReport appended = ctx_.Compact(threads);
  // Epoch 1 and any epoch after structural growth re-score everything;
  // pure count-increment epochs reuse every pair not touching an
  // appended entity (see the invalidation contract in the header).
  const bool all_dirty = appended.structural() || epoch_ == 0;
  out.incremental.rescored_all = all_dirty;
  result.seconds_histories = SecondsSince(t0);
  result.rss_peak_histories = CurrentPeakRssBytes();
  result.possible_pairs = static_cast<uint64_t>(ctx_.store_e.size()) *
                          static_cast<uint64_t>(ctx_.store_i.size());

  const auto seal_bookkeeping = [&] {
    ++epoch_;
    out.epoch = epoch_;
    pending_records_e_ = pending_records_i_ = 0;
    // Link delta versus the previous epoch, by full (u, v, score) triple
    // (both lists are (u, v)-sorted and pair-unique).
    auto before = links_.begin();
    auto after = result.links.begin();
    while (before != links_.end() || after != result.links.end()) {
      const bool take_after =
          before == links_.end() ||
          (after != result.links.end() &&
           (after->u < before->u ||
            (after->u == before->u && after->v < before->v)));
      const bool take_before =
          after == result.links.end() ||
          (before != links_.end() &&
           (before->u < after->u ||
            (before->u == after->u && before->v < after->v)));
      if (take_after) {
        out.added_links.push_back(*after++);
      } else if (take_before) {
        out.removed_links.push_back(*before++);
      } else if (before->score != after->score) {
        out.removed_links.push_back(*before++);
        out.added_links.push_back(*after++);
      } else {
        ++before;
        ++after;
      }
    }
    links_ = result.links;
    result.seconds_total = SecondsSince(t_start);
    result.rss_peak_total = CurrentPeakRssBytes();
  };

  if (ctx_.store_e.size() == 0 || ctx_.store_i.size() == 0) {
    // Mirrors the batch early return: no candidates, no links.
    rows_.clear();
    lsh_span_.reset();
    seal_bookkeeping();
    return out;
  }

  // 2. Candidates. For LSH the bucket ids are kept here so those of
  //    un-appended entities carry over between epochs; brute/grid rebuild
  //    their (cheap) structures via the standard factory.
  t0 = std::chrono::steady_clock::now();
  std::unique_ptr<CandidateGenerator> generator;
  if (config_.candidates == CandidateKind::kLsh) {
    // Bucket ids are a pure function of the entity's bins and the query
    // grid, so while the grid holds still an un-appended entity carries its
    // previous ids over (bit-identical to a recomputation).
    const LshWindowSpan span = GlobalWindowSpan(ctx_);
    const bool reuse = lsh_span_ == span;
    const auto side_buckets = [&](const HistoryStore& store,
                                  std::span<const EntityId> dirty,
                                  const SideBuckets& prev) {
      const std::vector<uint8_t> fresh = DirtyFlags(store, dirty);
      const auto carry = [&](EntityIdx u, std::vector<uint64_t>* ids) {
        if (!reuse || fresh[u] != 0) return false;
        const auto it = std::lower_bound(prev.ids.begin(), prev.ids.end(),
                                         store.entity_id(u));
        if (it == prev.ids.end() || *it != store.entity_id(u)) return false;
        const std::span<const uint64_t> row =
            prev.buckets.row(static_cast<size_t>(it - prev.ids.begin()));
        ids->insert(ids->end(), row.begin(), row.end());
        return true;
      };
      if (reuse) {
        out.incremental.signatures_reused +=
            static_cast<uint64_t>(std::count(fresh.begin(), fresh.end(), 0));
      }
      const std::span<const EntityId> ids = store.entity_ids().span();
      return SideBuckets{{ids.begin(), ids.end()},
                         BuildBucketIds(store, ctx_.vocab, 0,
                                        static_cast<EntityIdx>(store.size()),
                                        span, config_.lsh, threads, carry)};
    };
    lsh_e_ = side_buckets(ctx_.store_e, appended.e.appended, lsh_e_);
    lsh_i_ = side_buckets(ctx_.store_i, appended.i.appended, lsh_i_);
    lsh_span_ = span;
    generator = MakeLshCandidates(lsh_e_.buckets, lsh_i_.buckets, 0, 0,
                                  threads);
  } else {
    generator = MakeCandidateGenerator(config_.candidates, ctx_, config_.lsh,
                                       config_.grid, threads);
  }
  result.candidate_pairs = generator->total_candidate_pairs();
  result.seconds_lsh = SecondsSince(t0);
  result.rss_peak_lsh = CurrentPeakRssBytes();

  // 3. Scoring with pair-score reuse. New rows are built per left entity
  //    (deterministic: each entity's row depends only on its own
  //    candidates), reading the previous epoch's rows for clean pairs.
  t0 = std::chrono::steady_clock::now();
  const SimilarityEngine engine(ctx_, config_.similarity);
  const size_t lefts = ctx_.store_e.size();
  const std::vector<uint8_t> dirty_e_flags =
      DirtyFlags(ctx_.store_e, appended.e.appended);
  const std::vector<uint8_t> dirty_i_flags =
      DirtyFlags(ctx_.store_i, appended.i.appended);
  std::vector<ScoreRow> new_rows(lefts);
  std::vector<std::vector<IndexEdge>> shard_edges(
      static_cast<size_t>(threads));
  std::vector<SimilarityStats> shard_stats(static_cast<size_t>(threads));
  std::vector<uint64_t> shard_scored(static_cast<size_t>(threads), 0);
  std::vector<uint64_t> shard_reused(static_cast<size_t>(threads), 0);

  ParallelFor(
      lefts,
      [&](size_t begin, size_t end, int shard) {
        auto& edges = shard_edges[static_cast<size_t>(shard)];
        auto& stats = shard_stats[static_cast<size_t>(shard)];
        uint64_t scored = 0, reused = 0;
        CellDistanceCache cache;
        ScoreScratch scratch;
        for (size_t k = begin; k < end; ++k) {
          const EntityIdx u_idx = static_cast<EntityIdx>(k);
          const EntityId u = ctx_.store_e.entity_id(u_idx);
          const ScoreRow* prev = nullptr;
          if (!all_dirty && dirty_e_flags[u_idx] == 0) {
            const auto it = std::lower_bound(
                rows_.begin(), rows_.end(), u,
                [](const auto& row, EntityId id) { return row.first < id; });
            if (it != rows_.end() && it->first == u) prev = &it->second;
          }
          ScoreRow& row = new_rows[u_idx];
          const auto cands = generator->CandidatesFor(u_idx);
          row.reserve(cands.size());
          size_t j = 0;  // cursor into prev (both ascend by right id)
          for (const EntityIdx v_idx : cands) {
            const EntityId v = ctx_.store_i.entity_id(v_idx);
            double s = 0.0;
            bool hit = false;
            if (prev != nullptr && dirty_i_flags[v_idx] == 0) {
              while (j < prev->size() && (*prev)[j].first < v) ++j;
              hit = j < prev->size() && (*prev)[j].first == v;
            }
            if (hit) {
              s = (*prev)[j].second;
              ++reused;
            } else {
              s = engine.ScoreIndexed(u_idx, v_idx, &stats, &cache,
                                      &scratch);
              ++scored;
            }
            row.emplace_back(v, s);
            if (s > 0.0) edges.push_back({u_idx, v_idx, s});
          }
        }
        stats.cache_hits += cache.hits();
        stats.cache_misses += cache.misses();
        shard_scored[static_cast<size_t>(shard)] += scored;
        shard_reused[static_cast<size_t>(shard)] += reused;
      },
      threads);

  for (int shard = 0; shard < threads; ++shard) {
    result.stats += shard_stats[static_cast<size_t>(shard)];
    out.incremental.pairs_scored += shard_scored[static_cast<size_t>(shard)];
    out.incremental.pairs_reused += shard_reused[static_cast<size_t>(shard)];
  }
  // Persist this epoch's rows as the next epoch's cache (left ids ascend
  // with EntityIdx, so the row list is sorted by construction). The old
  // rows and the candidate index die here, before the seal allocates.
  rows_.clear();
  rows_.reserve(lefts);
  for (size_t k = 0; k < lefts; ++k) {
    rows_.emplace_back(ctx_.store_e.entity_id(static_cast<EntityIdx>(k)),
                       std::move(new_rows[k]));
  }
  std::vector<ScoreRow>().swap(new_rows);
  generator.reset();
  std::vector<IndexEdge> edges =
      internal::ConcatenateShards(std::move(shard_edges));
  result.seconds_scoring = SecondsSince(t0);
  result.rss_peak_scoring = CurrentPeakRssBytes();

  // 4/5. Matching + stop threshold — the exact batch seal, so links,
  // matching, graph, and threshold come out bit-identical to
  // SlimLinker::Link over the union dataset.
  internal::SealLinkage(config_, ctx_, threads, std::move(edges), &result);

  seal_bookkeeping();
  return out;
}

std::vector<LinkedEntityPair> IncrementalLinker::TopK(EntityId u,
                                                      size_t k) const {
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), u,
      [](const auto& row, EntityId id) { return row.first < id; });
  if (it == rows_.end() || it->first != u) return {};
  std::vector<LinkedEntityPair> top;
  top.reserve(it->second.size());
  for (const auto& [v, s] : it->second) {
    if (s > 0.0) top.push_back({u, v, s});
  }
  std::sort(top.begin(), top.end(),
            [](const LinkedEntityPair& a, const LinkedEntityPair& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.v < b.v;
            });
  if (top.size() > k) top.resize(k);
  return top;
}

}  // namespace slim
