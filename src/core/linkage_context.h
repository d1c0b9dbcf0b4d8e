// Dense interned representation of a linkage problem — the one history
// representation the pipeline runs on. The scoring and candidate-filtering
// hot paths never pay hash-map costs per lookup:
//
//   BinVocabulary  — interns every (window, cell) time-location bin that
//                    occurs in EITHER dataset into a contiguous BinId, so
//                    bin-level statistics become flat-array lookups shared
//                    across both sides.
//   HistoryStore   — one dataset's histories in a CSR-style flat layout:
//                    per-entity offset spans over BinId/count arrays, a
//                    parallel window index (from which core/candidates.h
//                    computes the LSH signatures in one in-order pass), and
//                    IDF as a flat array indexed by BinId. Entities are
//                    addressed by dense EntityIdx (their rank in the sorted
//                    entity-id list).
//   LinkageContext — the vocabulary plus the two stores; the input to the
//                    similarity engine and every CandidateGenerator.
//
// One builder makes every context: AppendRecords turns each record into
// flat (entity, window, cell) keys, and Compact radix-sorts the pending
// keys' positions by bin, merges the bins into the vocabulary, sorts the
// keys by entity and merges them into the stores. LinkageContext::Build
// is that same append-then-compact over two datasets. BinIds are
// assigned in (window, cell) order, so a history's bin span is sorted by
// BinId exactly as GroupRecordsIntoBins (core/history.h) sorts its bins,
// and the result is identical at every thread count.
//
// Every flat array lives in a FlatArray<T> (common/flat_array.h): the
// build path owns plain vectors, while a context loaded from an SCTX file
// (core/sctx.h) views the mapped bytes read-only — the scoring and
// candidate layers read either backing transparently, and a mapped context
// holds no per-entity heap structure at all.
#ifndef SLIM_CORE_LINKAGE_CONTEXT_H_
#define SLIM_CORE_LINKAGE_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_array.h"
#include "core/history.h"
#include "data/dataset.h"
#include "geo/cell_id.h"

namespace slim {

/// Contiguous id of an interned (window, cell) bin. Ids are dense in
/// [0, BinVocabulary::size()) and ordered by (window, cell).
using BinId = uint32_t;

/// Dense index of an entity inside one HistoryStore: its rank in the
/// store's sorted entity-id list.
using EntityIdx = uint32_t;

class ContextBuilder;
class SctxIo;

/// The shared (window, cell) -> BinId interning over both datasets.
class BinVocabulary {
 public:
  size_t size() const { return windows_.size(); }
  int64_t window(BinId b) const { return windows_[b]; }
  CellId cell(BinId b) const { return cells_[b]; }

  /// BinId of (window, cell); nullopt when the bin occurs in neither
  /// dataset. O(log size) binary search. Pending (un-compacted) bins are
  /// not found.
  std::optional<BinId> Find(int64_t window, CellId cell) const;

 private:
  friend class ContextBuilder;  // construction (linkage_context.cc)
  friend class SctxIo;          // serialisation + mapped views (core/sctx.cc)

  // Parallel arrays indexed by BinId, sorted by (window, cell raw).
  FlatArray<int64_t> windows_;
  FlatArray<CellId> cells_;
};

/// One dataset's histories in a flat CSR layout plus the dataset-level
/// statistics the similarity score needs, all addressable without hashing.
class HistoryStore {
 public:
  /// Number of entities.
  size_t size() const { return entity_ids_.size(); }
  /// Sorted entity ids; EntityIdx is a position in this vector.
  const FlatArray<EntityId>& entity_ids() const { return entity_ids_; }
  EntityId entity_id(EntityIdx u) const { return entity_ids_[u]; }
  /// Dense index of `entity`; nullopt when absent. O(log size).
  std::optional<EntityIdx> IndexOf(EntityId entity) const;

  /// |H_u|: number of bins of entity u.
  size_t num_bins(EntityIdx u) const {
    return bin_offsets_[u + 1] - bin_offsets_[u];
  }
  /// Entity u's bins as ascending BinIds ((window, cell)-sorted).
  std::span<const BinId> bins(EntityIdx u) const {
    return {bin_ids_.data() + bin_offsets_[u],
            bin_ids_.data() + bin_offsets_[u + 1]};
  }
  /// Record counts parallel to bins(u).
  std::span<const uint32_t> counts(EntityIdx u) const {
    return {bin_counts_.data() + bin_offsets_[u],
            bin_counts_.data() + bin_offsets_[u + 1]};
  }
  /// Saturating u16 quantisation of counts(u) (counts above 65535 clamp),
  /// precomputed for the integer overlap prefilters of
  /// core/score_kernel.h::QuantizedOverlap.
  std::span<const uint16_t> quantized_counts(EntityIdx u) const {
    return {quantized_counts_.data() + bin_offsets_[u],
            quantized_counts_.data() + bin_offsets_[u + 1]};
  }

  /// Sorted distinct occupied windows of entity u.
  std::span<const int64_t> windows(EntityIdx u) const {
    return {windows_.data() + window_offsets_[u],
            windows_.data() + window_offsets_[u + 1]};
  }
  /// 512-bit occupancy fingerprint of windows(u): bit (w mod 512) is set
  /// for every occupied window w. A superset summary — two entities whose
  /// fingerprints share no bit provably share no window, so the scoring
  /// path can reject most zero-overlap candidate pairs on one cache line
  /// instead of merging the window lists. Exactly kWindowMaskWords words.
  const uint64_t* window_mask(EntityIdx u) const {
    return window_masks_.data() + static_cast<size_t>(u) * kWindowMaskWords;
  }
  static constexpr size_t kWindowMaskWords = 8;
  /// The bins of entity u's k-th occupied window (k is a position in
  /// windows(u)), as a [begin, end) span of positions into bin_ids().
  std::pair<uint32_t, uint32_t> WindowBinRange(EntityIdx u, size_t k) const {
    const uint32_t w = window_offsets_[u] + static_cast<uint32_t>(k);
    return {window_bin_begin_[w], window_bin_begin_[w + 1]};
  }
  /// Flat bin-id / count arrays (for WindowBinRange-based iteration).
  const FlatArray<BinId>& bin_ids() const { return bin_ids_; }
  const FlatArray<uint32_t>& bin_counts() const { return bin_counts_; }

  /// Mean |H_u| over the store (0 when empty).
  double avg_bins() const { return avg_bins_; }
  /// Number of this store's histories containing bin b.
  uint32_t bin_entity_count(BinId b) const { return bin_entity_counts_[b]; }
  /// idf(b) = log(|U| / holders) with log(|U|) for absent bins (Eq. 3),
  /// as a flat lookup. Requires a non-empty store.
  double idf(BinId b) const { return idf_[b]; }
  /// The full IDF array (size = vocabulary size) for flat-pointer access on
  /// the scoring hot path.
  const FlatArray<double>& idf_values() const { return idf_; }
  /// The normalisation L(u) = (1 - b) + b * |H_u| / avg|H| of Eq. 2.
  double LengthNorm(EntityIdx u, double b) const;

  /// Total records of entity u.
  uint64_t total_records(EntityIdx u) const { return total_records_[u]; }

 private:
  friend class ContextBuilder;  // construction (linkage_context.cc)
  friend class SctxIo;          // serialisation + mapped views
  // Empty histories, which only a mapped SCTX file carries (tests).
  friend struct HistoryStoreTestAccess;

  FlatArray<EntityId> entity_ids_;
  // CSR over bins: entity u owns bin_ids_/bin_counts_ positions
  // [bin_offsets_[u], bin_offsets_[u+1]).
  FlatArray<uint32_t> bin_offsets_;
  FlatArray<BinId> bin_ids_;
  FlatArray<uint32_t> bin_counts_;
  FlatArray<uint16_t> quantized_counts_;  // bin_counts_ saturated to u16
  // CSR over occupied windows: entity u owns windows_ positions
  // [window_offsets_[u], window_offsets_[u+1]); window_bin_begin_ maps each
  // window (plus one global sentinel) to where its bins start in bin_ids_.
  FlatArray<uint32_t> window_offsets_;
  FlatArray<int64_t> windows_;
  FlatArray<uint32_t> window_bin_begin_;
  FlatArray<uint64_t> window_masks_;  // kWindowMaskWords per entity
  // Flat per-BinId statistics (size = vocabulary size).
  FlatArray<uint32_t> bin_entity_counts_;
  FlatArray<double> idf_;
  FlatArray<uint64_t> total_records_;
  double avg_bins_ = 0.0;
};

/// Which side of the linkage a record stream feeds: the left ("E") or
/// right ("I") dataset.
enum class LinkageSide { kE, kI };

/// The dense linkage problem: one shared vocabulary, two history stores.
struct LinkageContext {
  HistoryConfig config;
  BinVocabulary vocab;
  HistoryStore store_e;  // left dataset ("E")
  HistoryStore store_i;  // right dataset ("I")
  /// Keep-alive handle for mapped backings: when the stores view an
  /// SCTX mapping instead of owning heap vectors, this owns the mapping
  /// (an opaque FileContents). Copies of the context share it, so views
  /// stay valid for the lifetime of every copy. Null for built contexts.
  std::shared_ptr<const void> backing;

  /// Builds the context from two finalized datasets: AppendRecords over
  /// each, then Compact over `threads` workers (<= 0 means the library
  /// default). The context is identical at every thread count.
  static LinkageContext Build(const LocationDataset& dataset_e,
                              const LocationDataset& dataset_i,
                              const HistoryConfig& config, int threads = 0);

  /// Buffers `records` (any order; new or existing entities) for one
  /// side: each record becomes one (entity, window, cell) key per cell it
  /// covers, appended to the side's pending keys (a key equal to the one
  /// before it only bumps that key's count). O(1) per point record, with
  /// no lookup. Readers see nothing until Compact().
  void AppendRecords(LinkageSide side, std::span<const Record> records);
  bool has_pending() const {
    return !pending_e_.empty() || !pending_i_.empty();
  }

  /// What one Compact folded in, per side, in the terms the incremental
  /// linker's invalidation logic needs (core/incremental.h).
  struct CompactReport {
    struct Side {
      /// Sorted ids of the entities that had records appended.
      std::vector<EntityId> appended;
      /// A new entity, or a bin new to an appended entity's history.
      /// Either shifts the side's |U|, avg|H| or IDF, so every cached
      /// pair score goes stale; pure count increments on existing
      /// (entity, bin) pairs leave untouched pairs' scores bit-identical.
      bool structural = false;
    };
    Side e, i;
    bool structural() const { return e.structural || i.structural; }
  };

  /// Applies every buffered append: orders each side's pending keys by
  /// (window, cell) with a radix sort of their positions, merges their
  /// bins into the vocabulary (BinIds stay assigned by rank, so old ids
  /// renumber in increasing order), sorts the keys by entity (in place
  /// when they arrived in entity and time order), merges each appended
  /// entity's bins into its history, and rebuilds the stores' flat
  /// arrays. Work is linear in the stores plus the pending keys. After
  /// this, the context equals LinkageContext::Build over the union of all
  /// records ever appended, field for field, at every `threads`. A mapped
  /// (SCTX-backed) store that is rebuilt migrates to owned heap arrays.
  CompactReport Compact(int threads = 0);

 private:
  friend class ContextBuilder;

  // One pending (entity, window, cell) key with its record multiplicity.
  // `records` counts the records whose first covered cell this key is, so
  // an entity's keys sum to its record count in region mode too. The
  // vocabulary merge inside Compact overwrites `cell` with the key's BinId.
  // Transient: SCTX files hold compacted contexts only.
  struct PendingKey {
    EntityId entity;
    int64_t window;
    uint64_t cell;
    uint32_t count;
    uint32_t records;
  };
  std::vector<PendingKey> pending_e_, pending_i_;
};

}  // namespace slim

#endif  // SLIM_CORE_LINKAGE_CONTEXT_H_
