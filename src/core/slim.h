// SLIM: Scalable Linkage of Mobility Histories — Algorithm 1 of the paper.
//
// Pipeline (a staged run over the dense LinkageContext):
//   1. context  — intern both datasets into the shared bin vocabulary and
//                 two CSR history stores (core/linkage_context.h)
//   2. candidates — build the configured CandidateGenerator (LSH, brute
//                 force, or grid blocking; core/candidates.h)
//   3. scoring  — pairwise similarity over the proposed pairs -> the
//                 positive-score edges over store indices
//   4. matching — greedy maximum-sum matching: one radix sort by score and
//                 a byte-array pass (the graph is built only on request)
//   5. threshold — fit the 2-component GMM over matched edge weights and
//                 keep only links above the detected stop threshold.
#ifndef SLIM_CORE_SLIM_H_
#define SLIM_CORE_SLIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/candidates.h"
#include "core/history.h"
#include "core/linkage_context.h"
#include "core/similarity.h"
#include "core/threshold.h"
#include "data/dataset.h"
#include "lsh/signature.h"
#include "match/matcher.h"

namespace slim {

/// Which assignment solver performs the final matching.
enum class MatcherKind {
  kGreedy,     // the paper's heuristic (default)
  kHungarian,  // exact; O(n^3), for small instances / ablation
};

/// Full SLIM configuration. Defaults follow the paper's Sec. 5 pipeline
/// defaults (spatial level 12, 15-minute windows, b = 0.5, alpha = 2
/// km/min, 4096 LSH buckets) — except the LSH operating point, which
/// deliberately deviates to t = 0.5 at signature level 10 (docs/TUNING.md
/// has the reasoning; tests/test_build_smoke.cc guards these values).
struct SlimConfig {
  HistoryConfig history;
  SimilarityConfig similarity;

  /// Which candidate generator proposes the pairs to score. kBruteForce is
  /// the paper's "no-LSH SLIM" reference (every cross-dataset pair); kGrid
  /// is ST-Link-style co-visit blocking. docs/TUNING.md discusses the
  /// trade-offs.
  CandidateKind candidates = CandidateKind::kLsh;
  /// LSH parameters (used when candidates == kLsh). Defaults to a
  /// deliberately coarse operating point (level 10, 2-hour steps, t = 0.5)
  /// rather than LshConfig's own Sec. 5.3.2 values — docs/TUNING.md
  /// explains the level/step/threshold trade-offs and when to deviate.
  LshConfig lsh{.similarity_threshold = 0.5,
                .signature_spatial_level = 10,
                .temporal_step_windows = 8};
  /// Grid-blocking parameters (used when candidates == kGrid).
  GridBlockingConfig grid;

  ThresholdMethod threshold_method = ThresholdMethod::kGmmExpectedF1;
  /// When false, the matching is emitted unfiltered (no stop threshold) —
  /// the "full matching" the paper argues against; kept for ablation.
  bool apply_stop_threshold = true;

  MatcherKind matcher = MatcherKind::kGreedy;

  /// Worker threads for every pipeline stage (context building, candidate
  /// generation, pairwise scoring, edge assembly); <= 0 means the library
  /// default (the SLIM_THREADS environment variable, else all hardware
  /// threads — see common/parallel.h). Results are identical at every
  /// thread count.
  int threads = 0;

  /// Right-side shard count K for LinkSharded (core/sharded.h). 0 derives
  /// the count from shard_memory_budget_bytes (1 when no budget is set
  /// either); K >= 1 forces K contiguous EntityIdx shards. Links are
  /// bit-identical at every shard count.
  int shards = 0;

  /// Left-side shard count L for LinkSharded. The driver scores L x K
  /// blocks, so the candidate index and scoring working set scale with one
  /// block of each side instead of the full left store. <= 1 keeps the left
  /// side whole. Links are bit-identical at every (L, K).
  int left_shards = 0;

  /// Approximate peak-memory budget for the candidate + scoring block of
  /// one shard, in bytes. Only consulted when shards == 0: the driver
  /// derives the smallest shard count whose estimated per-block working set
  /// fits the budget (see EstimateShardPlan in core/sharded.h for the
  /// CurrentPeakRssBytes-calibrated estimate). 0 means unbounded.
  uint64_t shard_memory_budget_bytes = 0;

  /// When non-empty, LinkSharded runs against an mmap-backed SCTX context
  /// (core/sctx.h) at this path instead of a heap-resident one: an existing
  /// file is mapped directly (the datasets are not re-interned); a missing
  /// file is built from the datasets, serialized, and the heap copy freed
  /// before mapping. Scores and links are bit-identical either way.
  std::string sctx_path;

  /// Run-buffer budget for the sharded driver's external edge sort
  /// (core/edge_spill.h): edges accumulate up to this many bytes before one
  /// sorted run spills; the k-way merge's read buffers share the same
  /// bound. Only a memory/IO trade-off — never affects links.
  uint64_t spill_run_bytes = uint64_t{64} << 20;

  /// Whether LinkageResult::graph (the full positive-score edge set) is
  /// materialised. Every driver — Link(), LinkSharded() and
  /// IncrementalLinker::LinkEpoch() — honours it: without the graph the
  /// seal radix-sorts the index edges by score (or, in LinkSharded, reads
  /// the spill's score-ordered merge) straight into the greedy pass, so no
  /// id-keyed edge copy is ever held. Links, matching, threshold and
  /// LinkageResult::positive_edges are bit-identical either way; only
  /// `graph` comes back empty. The Hungarian matcher solves over the graph
  /// and builds it whatever this says. slim_link and slim_serve never keep
  /// it.
  bool keep_graph = true;
};

/// One linked entity pair (u from E, v from I) and its similarity score.
struct LinkedEntityPair {
  EntityId u = 0;
  EntityId v = 0;
  double score = 0.0;

  bool operator==(const LinkedEntityPair&) const = default;
};

/// Everything the linkage produced, including the intermediate artifacts
/// the evaluation reports on.
struct LinkageResult {
  /// Final links (above the stop threshold when enabled), sorted by u.
  std::vector<LinkedEntityPair> links;
  /// The full maximum-sum matching before thresholding.
  Matching matching;
  /// The scored bipartite graph (positive similarity scores only), sorted
  /// by (u, v). Used for Hit-Precision@k evaluation. Empty unless
  /// SlimConfig::keep_graph (or the Hungarian matcher) asked for it.
  BipartiteGraph graph;
  /// Positive-score edges the seal received — graph.num_edges() whenever
  /// the graph is kept, and recorded whether or not it is.
  uint64_t positive_edges = 0;

  /// Stop-threshold decision; `threshold_valid` is false when the detector
  /// could not run (e.g. fewer than two matched edges) in which case all
  /// matched pairs are kept.
  ThresholdDecision threshold;
  bool threshold_valid = false;

  /// Scoring instrumentation (record comparisons, alibi pairs, distance-
  /// cache hits/misses, ...).
  SimilarityStats stats;
  /// Which candidate generator produced the scored pairs.
  CandidateKind candidates_used = CandidateKind::kLsh;
  /// Pairs considered after filtering vs the full cross product.
  uint64_t candidate_pairs = 0;
  uint64_t possible_pairs = 0;

  /// Wall-clock seconds per phase. seconds_lsh times the candidate stage
  /// whatever the generator (the name is kept for bench-record
  /// compatibility).
  double seconds_histories = 0.0;
  double seconds_lsh = 0.0;
  double seconds_scoring = 0.0;
  double seconds_matching = 0.0;
  double seconds_total = 0.0;

  /// Peak process RSS (bytes) sampled at the end of each phase, in phase
  /// order; monotone non-decreasing (see common/resource.h). 0 on
  /// platforms without getrusage.
  uint64_t rss_peak_histories = 0;
  uint64_t rss_peak_lsh = 0;
  uint64_t rss_peak_scoring = 0;
  uint64_t rss_peak_matching = 0;
  uint64_t rss_peak_total = 0;

  /// Sharded-driver provenance (LinkSharded; 1 / 0 / false on the
  /// monolithic path). spilled_edges counts edges that passed through the
  /// per-block spill before the merge; spill_on_disk says whether the spill
  /// actually reached a temporary file (it degrades to memory when no
  /// tmpfile is available). spill_bytes_written totals spill-file writes
  /// including the resort pass; merge_passes counts k-way merges the
  /// external sort ran (core/edge_spill.h).
  int shards_used = 1;
  int left_shards_used = 1;
  uint64_t spilled_edges = 0;
  bool spill_on_disk = false;
  uint64_t spill_bytes_written = 0;
  int merge_passes = 0;
};

/// The SLIM linkage algorithm (Alg. 1). Construct once per configuration and
/// call Link(); the linker is stateless across calls.
class SlimLinker {
 public:
  explicit SlimLinker(SlimConfig config);

  const SlimConfig& config() const { return config_; }

  /// Links dataset_e (left, "E") to dataset_i (right, "I"). Both datasets
  /// must be finalized. Returns the full LinkageResult; an empty result
  /// (no links) is success, not an error.
  Result<LinkageResult> Link(const LocationDataset& dataset_e,
                             const LocationDataset& dataset_i) const;

  /// The sharded, memory-bounded driver (core/sharded.h): candidates and
  /// scoring run per L x K block — config().left_shards x config().shards
  /// of them, or as many right shards as
  /// config().shard_memory_budget_bytes demands — with the block edges
  /// streaming through an external sort, then one global matching +
  /// threshold pass. Links, matching, graph (when kept), and stats sums
  /// are bit-identical to Link() at every (L, K, threads); peak memory of
  /// the candidate + scoring stages scales with the largest block instead
  /// of the full stores. With config().sctx_path set, the context is
  /// serialized/mapped via core/sctx.h instead of held on the heap; an
  /// existing file written under another HistoryConfig fails with
  /// InvalidArgument.
  /// Implemented in core/sharded.cc.
  Result<LinkageResult> LinkSharded(const LocationDataset& dataset_e,
                                    const LocationDataset& dataset_i) const;

  /// LinkSharded's block + merge stages over an already-built context —
  /// e.g. one mapped from an SCTX file (core/sctx.h) so the datasets never
  /// re-intern. `context` must outlive the call; result timings report 0
  /// for the context-build phase. Fails with InvalidArgument when
  /// `context.config` differs from config().history (a context built at
  /// another resolution would link at that resolution).
  Result<LinkageResult> LinkShardedContext(const LinkageContext& context)
      const;

 private:
  SlimConfig config_;
};

class EdgeSpill;  // core/edge_spill.h

namespace internal {

/// Whether the seal builds LinkageResult::graph: keep_graph asks for it,
/// and the Hungarian matcher solves over it.
bool SealNeedsGraph(const SlimConfig& config);

/// The scoring loop every batch driver runs: scores each candidate of the
/// left range [left_begin, left_end) on `threads` contiguous shards and
/// returns the positive-score edges per shard, over store indices.
/// Concatenated in shard order they are in (u, v) order — left ranges
/// ascend with the shard and candidate spans ascend within a row. The
/// shards' counters are added to *stats in shard order.
std::vector<std::vector<IndexEdge>> ScoreEdges(
    const SimilarityEngine& engine, const CandidateGenerator& generator,
    EntityIdx left_begin, EntityIdx left_end, int threads,
    SimilarityStats* stats);

/// Concatenates shard edge lists in shard order, freeing each list once
/// it is copied (a lone list is moved, not copied).
std::vector<IndexEdge> ConcatenateShards(
    std::vector<std::vector<IndexEdge>> shards);

/// The one seal every driver ends in. `edges` are the positive-score
/// edges over `ctx`'s store indices in (u, v) order. Records
/// positive_edges; builds the graph only when keep_graph or the Hungarian
/// matcher asks for it; otherwise one stable radix sort by score
/// (SortGreedyOrder) puts the edges in GreedyEdgeOrder for the byte-array
/// greedy pass (FlatGreedyMatcher), which turns only the matched pairs
/// into ids. Then the stop threshold and the final links. Fills
/// seconds_matching / rss_peak_matching. Callers free their candidate
/// index and shard lists first: the seal's sort scratch is its only
/// allocation the size of the edge set.
void SealLinkage(const SlimConfig& config, const LinkageContext& ctx,
                 int threads, std::vector<IndexEdge> edges,
                 LinkageResult* result);

/// The same seal over an external edge sort (core/edge_spill.h) whose
/// edges carry store indices in WeightedEdge's u / v. With the graph it
/// reads the (u, v)-ordered merge back and seals that vector; without,
/// the score-ordered merge already arrives in GreedyEdgeOrder and streams
/// into the same greedy pass, so only the matching is ever resident.
/// IoError from a truncated or corrupt spill propagates; `result` is
/// unusable on error.
Status SealLinkage(const SlimConfig& config, const LinkageContext& ctx,
                   int threads, EdgeSpill* spill, LinkageResult* result);

}  // namespace internal

}  // namespace slim

#endif  // SLIM_CORE_SLIM_H_
