#include "core/candidates.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "core/score_kernel.h"

namespace slim {
namespace {

// Flat CSR candidate storage shared by the LSH and grid generators.
struct CandidateCsr {
  std::vector<uint64_t> offsets;  // size lefts + 1
  std::vector<EntityIdx> flat;    // ascending within each left span

  std::span<const EntityIdx> SpanOf(EntityIdx u) const {
    return {flat.data() + offsets[u], flat.data() + offsets[u + 1]};
  }

  // Builds the CSR from per-left lists (consumed) in left order.
  static CandidateCsr FromLists(std::vector<std::vector<EntityIdx>> lists) {
    CandidateCsr csr;
    csr.offsets.assign(lists.size() + 1, 0);
    for (size_t k = 0; k < lists.size(); ++k) {
      csr.offsets[k + 1] = csr.offsets[k] + lists[k].size();
    }
    csr.flat.resize(csr.offsets.back());
    for (size_t k = 0; k < lists.size(); ++k) {
      std::copy(lists[k].begin(), lists[k].end(),
                csr.flat.begin() + static_cast<ptrdiff_t>(csr.offsets[k]));
    }
    return csr;
  }
};

// Every cross pair of the block: [left_begin, left_end) x [begin, end).
class BruteForceCandidates final : public CandidateGenerator {
 public:
  BruteForceCandidates(EntityIdx left_begin, EntityIdx left_end,
                       EntityIdx begin, EntityIdx end)
      : lefts_(left_end - left_begin), shard_right_(end - begin) {
    std::iota(shard_right_.begin(), shard_right_.end(), begin);
  }

  std::string_view name() const override { return "brute"; }
  std::span<const EntityIdx> CandidatesFor(EntityIdx) const override {
    return shard_right_;
  }
  uint64_t total_candidate_pairs() const override {
    return static_cast<uint64_t>(lefts_) * shard_right_.size();
  }

 private:
  size_t lefts_;
  std::vector<EntityIdx> shard_right_;
};

// Index entries for entities [begin, end) of `store`, their signatures
// computed in parallel into pre-sized slots (entity order is fixed, so the
// entries never depend on scheduling).
std::vector<LshIndex::Entry> SignatureEntries(
    const HistoryStore& store, const BinVocabulary& vocab, EntityIdx begin,
    EntityIdx end, const LshWindowSpan& span, const LshConfig& config,
    int threads) {
  std::vector<LshIndex::Entry> entries(end - begin);
  ParallelFor(
      entries.size(),
      [&](size_t lo, size_t hi, int) {
        for (size_t k = lo; k < hi; ++k) {
          const EntityIdx u = begin + static_cast<EntityIdx>(k);
          entries[k].entity = store.entity_id(u);
          entries[k].signature =
              BuildSignature(store, vocab, u, span,
                             config.temporal_step_windows,
                             config.signature_spatial_level);
        }
      },
      threads);
  return entries;
}

class LshCandidates final : public CandidateGenerator {
 public:
  LshCandidates(const LinkageContext& ctx, const LshConfig& config,
                EntityIdx left_begin, EntityIdx left_end,
                EntityIdx right_begin, EntityIdx right_end, int threads)
      : left_begin_(left_begin) {
    // The grid is pinned to the full problem's span, so a block build's
    // band hashes — and therefore its collisions — are exactly the full
    // build's restricted to the block: a collision is a pairwise predicate
    // over one left and one right signature, and neither signature depends
    // on which other entities were indexed alongside it.
    const LshWindowSpan span = GlobalWindowSpan(ctx);
    const size_t lefts = left_end - left_begin;
    const LshIndex index = LshIndex::Build(
        SignatureEntries(ctx.store_e, ctx.vocab, left_begin, left_end, span,
                         config, threads),
        SignatureEntries(ctx.store_i, ctx.vocab, right_begin, right_end, span,
                         config, threads),
        config, threads);
    total_candidate_pairs_ = index.total_candidate_pairs();

    // Re-key subset positions to global right EntityIdx and drop the index:
    // signatures and bucket tables are construction scaffolding here, and
    // freeing them keeps only the candidate lists resident.
    static_assert(std::is_same_v<EntityIdx, uint32_t>);
    csr_.offsets.assign(lefts + 1, 0);
    for (size_t k = 0; k < lefts; ++k) {
      csr_.offsets[k + 1] =
          csr_.offsets[k] + index.CandidatePositionsAt(k).size();
    }
    csr_.flat.resize(csr_.offsets.back());
    size_t pos = 0;
    for (size_t k = 0; k < lefts; ++k) {
      for (const uint32_t p : index.CandidatePositionsAt(k)) {
        csr_.flat[pos++] = p + right_begin;
      }
    }
  }

  std::string_view name() const override { return "lsh"; }
  std::span<const EntityIdx> CandidatesFor(EntityIdx u) const override {
    return csr_.SpanOf(u - left_begin_);
  }
  uint64_t total_candidate_pairs() const override {
    return total_candidate_pairs_;
  }

 private:
  EntityIdx left_begin_;
  CandidateCsr csr_;
  uint64_t total_candidate_pairs_ = 0;
};

class GridBlockingCandidates final : public CandidateGenerator {
 public:
  GridBlockingCandidates(const LinkageContext& ctx,
                         const GridBlockingConfig& config,
                         EntityIdx left_begin, EntityIdx left_end,
                         EntityIdx right_begin, EntityIdx right_end,
                         int threads)
      : left_begin_(left_begin) {
    const HistoryStore& se = ctx.store_e;
    const HistoryStore& si = ctx.store_i;

    // Inverted index bin -> shard right entities, CSR over the shared
    // vocabulary. Right entities are visited in index order, so every
    // posting list is ascending.
    std::vector<uint64_t> bin_offsets(ctx.vocab.size() + 1, 0);
    for (EntityIdx v = right_begin; v < right_end; ++v) {
      for (const BinId b : si.bins(v)) ++bin_offsets[b + 1];
    }
    for (size_t b = 1; b < bin_offsets.size(); ++b) {
      bin_offsets[b] += bin_offsets[b - 1];
    }
    std::vector<EntityIdx> postings(bin_offsets.back());
    {
      std::vector<uint64_t> cursor = bin_offsets;
      for (EntityIdx v = right_begin; v < right_end; ++v) {
        for (const BinId b : si.bins(v)) postings[cursor[b]++] = v;
      }
    }

    const uint32_t cap = config.max_bin_entities;
    const uint32_t min_overlap = config.min_overlap_records;
    // The quantized-overlap prefilter runs on whatever kernel the CPU
    // resolves to — it is integer-exact, so the surviving pairs are the
    // same on every kernel and shard layout.
    const ScoreKernelOps& ops =
        GetScoreKernelOps(ResolveScoreKernel(ScoreKernel::kAuto));
    // Per-left co-visit gathering touches only that left's own bins, so
    // restricting the loop to the block's left range changes nothing about
    // the lists it does build.
    std::vector<std::vector<EntityIdx>> lists(left_end - left_begin);
    ParallelFor(
        lists.size(),
        [&](size_t begin, size_t end, int) {
          std::vector<uint32_t> match_a, match_b;  // per-worker scratch
          for (size_t k = begin; k < end; ++k) {
            const EntityIdx u = left_begin + static_cast<EntityIdx>(k);
            auto& list = lists[k];
            for (const BinId b : se.bins(u)) {
              // The hotspot stop-word counts holders in the FULL right
              // store, so shard builds skip exactly the bins the
              // monolithic build skips.
              if (cap > 0 && si.bin_entity_count(b) > cap) continue;
              const uint64_t lo = bin_offsets[b], hi = bin_offsets[b + 1];
              list.insert(list.end(), postings.begin() + lo,
                          postings.begin() + hi);
            }
            std::sort(list.begin(), list.end());
            list.erase(std::unique(list.begin(), list.end()), list.end());
            if (min_overlap > 1) {
              std::erase_if(list, [&](EntityIdx v) {
                return QuantizedOverlap(ops, se.bins(u), se.quantized_counts(u),
                                        si.bins(v), si.quantized_counts(v),
                                        &match_a, &match_b) < min_overlap;
              });
            }
          }
        },
        threads);
    csr_ = CandidateCsr::FromLists(std::move(lists));
  }

  std::string_view name() const override { return "grid"; }
  std::span<const EntityIdx> CandidatesFor(EntityIdx u) const override {
    return csr_.SpanOf(u - left_begin_);
  }
  uint64_t total_candidate_pairs() const override { return csr_.flat.size(); }

 private:
  EntityIdx left_begin_;
  CandidateCsr csr_;
};

}  // namespace

LshWindowSpan GlobalWindowSpan(const LinkageContext& ctx) {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  // Each entity's window list is sorted, so its ends bound its occupancy.
  auto widen = [&](const HistoryStore& store) {
    for (EntityIdx k = 0; k < store.size(); ++k) {
      const std::span<const int64_t> windows = store.windows(k);
      if (windows.empty()) continue;
      lo = std::min(lo, windows.front());
      hi = std::max(hi, windows.back());
    }
  };
  widen(ctx.store_e);
  widen(ctx.store_i);
  if (lo > hi) return {0, 0};
  return {lo, hi + 1};
}

LshSignature BuildSignature(const HistoryStore& store,
                            const BinVocabulary& vocab, EntityIdx u,
                            const LshWindowSpan& span, int step_windows,
                            int spatial_level) {
  SLIM_CHECK_MSG(step_windows > 0, "temporal step must be positive");
  LshSignature sig;
  if (span.empty()) return sig;
  const int64_t step = step_windows;
  sig.cells.assign(static_cast<size_t>((span.end - span.lo + step - 1) / step),
                   kSignaturePlaceholder);
  const std::span<const int64_t> windows = store.windows(u);
  const FlatArray<BinId>& bin_ids = store.bin_ids();
  const FlatArray<uint32_t>& bin_counts = store.bin_counts();
  // (lifted cell, count) of the current step's bins; summed per cell after
  // a sort, so the argmax sees cells in ascending CellId order.
  std::vector<std::pair<CellId, uint32_t>> lifted;
  size_t k = 0;
  while (k < windows.size()) {
    SLIM_CHECK_MSG(windows[k] >= span.lo && windows[k] < span.end,
                   "window outside the signature query grid");
    const int64_t q = (windows[k] - span.lo) / step;
    lifted.clear();
    for (; k < windows.size() && (windows[k] - span.lo) / step == q; ++k) {
      const auto [begin, end] = store.WindowBinRange(u, k);
      for (uint32_t p = begin; p < end; ++p) {
        lifted.emplace_back(vocab.cell(bin_ids[p]).Parent(spatial_level),
                            bin_counts[p]);
      }
    }
    std::sort(lifted.begin(), lifted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    CellId best;
    uint32_t best_count = 0;
    for (size_t i = 0; i < lifted.size();) {
      const CellId cell = lifted[i].first;
      uint32_t count = 0;
      for (; i < lifted.size() && lifted[i].first == cell; ++i) {
        count += lifted[i].second;
      }
      if (count > best_count) {  // strict: ties keep the smaller cell
        best = cell;
        best_count = count;
      }
    }
    if (best_count > 0) sig.cells[static_cast<size_t>(q)] = best.raw();
  }
  return sig;
}

std::string_view CandidateKindName(CandidateKind kind) {
  switch (kind) {
    case CandidateKind::kLsh:
      return "lsh";
    case CandidateKind::kBruteForce:
      return "brute";
    case CandidateKind::kGrid:
      return "grid";
  }
  return "unknown";
}

Result<CandidateKind> ParseCandidateKind(std::string_view name) {
  if (name == "lsh") return CandidateKind::kLsh;
  if (name == "brute") return CandidateKind::kBruteForce;
  if (name == "grid") return CandidateKind::kGrid;
  return Status::InvalidArgument("unknown candidate generator: " +
                                 std::string(name));
}

std::unique_ptr<CandidateGenerator> MakeCandidateGenerator(
    CandidateKind kind, const LinkageContext& context,
    const LshConfig& lsh_config, const GridBlockingConfig& grid_config,
    int threads) {
  // A monolithic build IS the one-block build over both full stores.
  return MakeShardCandidateGenerator(
      kind, context, lsh_config, grid_config, 0,
      static_cast<EntityIdx>(context.store_e.size()), 0,
      static_cast<EntityIdx>(context.store_i.size()), threads);
}

std::unique_ptr<CandidateGenerator> MakeShardCandidateGenerator(
    CandidateKind kind, const LinkageContext& context,
    const LshConfig& lsh_config, const GridBlockingConfig& grid_config,
    EntityIdx left_begin, EntityIdx left_end, EntityIdx right_begin,
    EntityIdx right_end, int threads) {
  SLIM_CHECK_MSG(left_begin <= left_end &&
                     left_end <= context.store_e.size(),
                 "left shard range out of bounds");
  SLIM_CHECK_MSG(right_begin <= right_end &&
                     right_end <= context.store_i.size(),
                 "right shard range out of bounds");
  switch (kind) {
    case CandidateKind::kLsh:
      return std::make_unique<LshCandidates>(context, lsh_config, left_begin,
                                             left_end, right_begin, right_end,
                                             threads);
    case CandidateKind::kBruteForce:
      return std::make_unique<BruteForceCandidates>(left_begin, left_end,
                                                    right_begin, right_end);
    case CandidateKind::kGrid:
      return std::make_unique<GridBlockingCandidates>(
          context, grid_config, left_begin, left_end, right_begin, right_end,
          threads);
  }
  SLIM_CHECK_MSG(false, "unreachable candidate kind");
  return nullptr;
}

}  // namespace slim
