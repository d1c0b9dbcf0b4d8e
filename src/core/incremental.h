// Epoch-based incremental linkage over a build-and-extend context.
//
// The batch pipeline (core/slim.h) links two frozen datasets from
// scratch. IncrementalLinker keeps one LinkageContext alive across
// *epochs*: Ingest() buffers record appends (new events for existing
// entities, or entirely new entities, on either side) and LinkEpoch()
// folds them in — vocabulary intern + store compaction
// (core/linkage_context.h) — then re-runs candidates, scoring, matching,
// and the GMM stop threshold over the merged problem.
//
// The contract, pinned by tests/test_incremental.cc and the CI
// serve-smoke byte-comparison: after any sequence of Ingest/LinkEpoch
// calls, the epoch's links/matching/threshold/graph are BIT-IDENTICAL to
// a from-scratch SlimLinker::Link over the union of every record ever
// ingested, at every thread count. Incrementality changes how much work
// an epoch does, never what it returns:
//
//   * Pair-score reuse. All candidate-pair scores of an epoch are kept
//     (keyed by EntityId, which is stable; EntityIdx is not). A cached
//     score is reused only when nothing that enters Eq. 2 changed for
//     the pair: appends since the last epoch were pure count increments
//     on existing (entity, bin) pairs (no new entities — |U| and thus
//     every IDF value would shift; no new bins — avg|H| and thus every
//     length norm would shift), and neither endpoint was appended to.
//     Any structural growth marks the whole cache stale
//     (LinkageContext::AppendSummary).
//   * LSH bucket-id reuse. An entity's bucket ids are a pure function of
//     its bins and the query grid (core/candidates.h), so the ids of
//     un-appended entities carry over even through epochs that re-score
//     everything — unless the global window span moved, which recomputes
//     every entity's ids. Candidate gathering always re-runs; it is cheap
//     and deterministic.
//
// One asterisk: LinkageResult::stats covers only the pairs actually
// re-scored in the epoch (EpochStats says how many were reused), and the
// stage timings are epoch-local. Links, matching, graph, and threshold
// are the bit-identical surfaces.
//
// Not thread-safe: one linker, one caller (the slim_serve daemon's
// single-threaded command loop). Internally LinkEpoch parallelises over
// config.threads like the batch path. Sharding/SCTX knobs of SlimConfig
// are ignored — the incremental engine is the monolithic path.
#ifndef SLIM_CORE_INCREMENTAL_H_
#define SLIM_CORE_INCREMENTAL_H_

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/csr.h"
#include "common/status.h"
#include "core/linkage_context.h"
#include "core/slim.h"
#include "lsh/lsh_index.h"

namespace slim {

/// What one LinkEpoch spent versus saved (diagnostics; STATS command).
struct EpochStats {
  uint64_t appended_records = 0;  // records folded in by this epoch
  uint64_t pairs_scored = 0;      // candidate pairs scored fresh
  uint64_t pairs_reused = 0;      // candidate pairs served from cache
  uint64_t signatures_reused = 0; // entities whose LSH bucket ids carried over
  bool rescored_all = false;      // structural growth staled the cache
};

/// One epoch's outcome: the batch-identical linkage plus the delta
/// against the previous epoch (the SUBSCRIBE feed).
struct EpochResult {
  int epoch = 0;  // 1-based epoch number this result sealed
  LinkageResult linkage;
  EpochStats incremental;
  /// Links present now but not in the previous epoch, and vice versa.
  /// Compared by the full (u, v, score) triple: a score change surfaces
  /// as remove-then-add. Both sorted by (u, v).
  std::vector<LinkedEntityPair> added_links;
  std::vector<LinkedEntityPair> removed_links;
};

class IncrementalLinker {
 public:
  /// Validates the config like SlimLinker does (CHECK on invalid
  /// geometry). Starts at epoch 0 with an empty context.
  explicit IncrementalLinker(SlimConfig config);

  /// Buffers `records` (any order; new or existing entities) for the
  /// given side. Visible to queries only after the next LinkEpoch().
  void Ingest(LinkageSide side, std::span<const Record> records);

  /// Records buffered since the last LinkEpoch, per side.
  uint64_t pending_records(LinkageSide side) const {
    return side == LinkageSide::kE ? pending_records_e_ : pending_records_i_;
  }

  /// Folds buffered appends into the context and re-links. Calling with
  /// nothing buffered re-seals the current state (every pair served from
  /// cache). Never fails today; the Result slot reports future I/O-backed
  /// epochs.
  Result<EpochResult> LinkEpoch();

  /// Epochs sealed so far.
  int epoch() const { return epoch_; }
  /// The last sealed epoch's links, sorted by (u, v). Empty before the
  /// first LinkEpoch.
  const std::vector<LinkedEntityPair>& links() const { return links_; }
  /// Top-k positive-score candidates of left entity `u` from the last
  /// sealed epoch, sorted by (score desc, v asc). Candidates, not links:
  /// this ranks every scored pair of u, whether or not matching kept it.
  /// Empty when u is unknown or scored no positive pair.
  std::vector<LinkedEntityPair> TopK(EntityId u, size_t k) const;
  /// The live context (post-compaction view of everything ingested).
  const LinkageContext& context() const { return ctx_; }
  const SlimConfig& config() const { return config_; }
  /// Total records ingested (and folded in) per side since construction.
  uint64_t total_records(LinkageSide side) const {
    return side == LinkageSide::kE ? total_records_e_ : total_records_i_;
  }

 private:
  // One left entity's scored candidates: (right EntityId, score)
  // ascending by id, including non-positive scores (a cached negative is
  // as reusable as a cached positive).
  using ScoreRow = std::vector<std::pair<EntityId, double>>;

  SlimConfig config_;
  LinkageContext ctx_;
  int epoch_ = 0;

  // Dirty state accumulated by Ingest, consumed by LinkEpoch.
  bool structural_pending_ = false;
  std::set<EntityId> dirty_e_, dirty_i_;
  uint64_t pending_records_e_ = 0, pending_records_i_ = 0;
  uint64_t total_records_e_ = 0, total_records_i_ = 0;

  // One side's LSH bucket ids: row k belongs to entity ids[k].
  struct SideBuckets {
    std::vector<EntityId> ids;
    Csr<uint64_t> buckets;
  };

  // Carried across epochs: both sides' bucket ids with the query grid they
  // were computed over (none while no ids are kept), the score rows sorted
  // by left EntityId, and the last epoch's links.
  SideBuckets lsh_e_, lsh_i_;
  std::optional<LshWindowSpan> lsh_span_;
  std::vector<std::pair<EntityId, ScoreRow>> rows_;
  std::vector<LinkedEntityPair> links_;
};

}  // namespace slim

#endif  // SLIM_CORE_INCREMENTAL_H_
