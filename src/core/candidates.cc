#include "core/candidates.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/score_kernel.h"

namespace slim {
namespace {

// Candidate lists held as one CSR, row k serving left entity
// left_begin + k (the LSH and grid generators).
class CsrCandidates final : public CandidateGenerator {
 public:
  CsrCandidates(std::string_view name, EntityIdx left_begin,
                Csr<EntityIdx> csr)
      : name_(name), left_begin_(left_begin), csr_(std::move(csr)) {}

  std::string_view name() const override { return name_; }
  std::span<const EntityIdx> CandidatesFor(EntityIdx u) const override {
    return csr_.row(u - left_begin_);
  }
  uint64_t total_candidate_pairs() const override {
    return csr_.values.size();
  }

 private:
  std::string_view name_;
  EntityIdx left_begin_;
  Csr<EntityIdx> csr_;
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

// ST-Link-style co-visit blocking over the block's left range.
Csr<EntityIdx> GridBlockingCandidates(const LinkageContext& ctx,
                                      const GridBlockingConfig& config,
                                      EntityIdx left_begin, EntityIdx left_end,
                                      EntityIdx right_begin,
                                      EntityIdx right_end, int threads) {
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
  return BuildCsr<EntityIdx>(
      left_end - left_begin, threads,
      [&](size_t k, std::vector<EntityIdx>* out) {
        const EntityIdx u = left_begin + static_cast<EntityIdx>(k);
        const auto first = static_cast<ptrdiff_t>(out->size());
        for (const BinId b : se.bins(u)) {
          // The hotspot stop-word counts holders in the FULL right
          // store, so shard builds skip exactly the bins the
          // monolithic build skips.
          if (cap > 0 && si.bin_entity_count(b) > cap) continue;
          out->insert(out->end(), postings.begin() + bin_offsets[b],
                      postings.begin() + bin_offsets[b + 1]);
        }
        std::sort(out->begin() + first, out->end());
        out->erase(std::unique(out->begin() + first, out->end()), out->end());
        if (min_overlap > 1) {
          std::vector<uint32_t> match_a, match_b;
          out->erase(
              std::remove_if(out->begin() + first, out->end(),
                             [&](EntityIdx v) {
                               return QuantizedOverlap(
                                          ops, se.bins(u),
                                          se.quantized_counts(u), si.bins(v),
                                          si.quantized_counts(v), &match_a,
                                          &match_b) < min_overlap;
                             }),
              out->end());
        }
      });
}

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

std::vector<SignatureStep> BuildSignature(const HistoryStore& store,
                                          const BinVocabulary& vocab,
                                          EntityIdx u,
                                          const LshWindowSpan& span,
                                          int step_windows, int spatial_level) {
  SLIM_CHECK_MSG(step_windows > 0, "temporal step must be positive");
  std::vector<SignatureStep> sig;
  if (span.empty()) return sig;
  // Unsigned offsets from span.lo, so that no span width overflows.
  const auto step_of = [&](int64_t window) {
    return (static_cast<uint64_t>(window) - static_cast<uint64_t>(span.lo)) /
           static_cast<uint64_t>(step_windows);
  };
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
    const uint64_t q = step_of(windows[k]);
    lifted.clear();
    for (; k < windows.size() && step_of(windows[k]) == q; ++k) {
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
    if (best_count > 0) sig.push_back({q, best.raw()});
  }
  return sig;
}

Csr<uint64_t> BuildBucketIds(
    const HistoryStore& store, const BinVocabulary& vocab, EntityIdx begin,
    EntityIdx end, const LshWindowSpan& span, const LshConfig& config,
    int threads,
    const std::function<bool(EntityIdx, std::vector<uint64_t>*)>& reuse) {
  const LshBanding banding = LshBanding::Of(span, config);
  return BuildCsr<uint64_t>(
      end - begin, threads, [&](size_t k, std::vector<uint64_t>* out) {
        const EntityIdx u = begin + static_cast<EntityIdx>(k);
        if (reuse && reuse(u, out)) return;
        banding.AppendBucketIds(
            BuildSignature(store, vocab, u, span, config.temporal_step_windows,
                           config.signature_spatial_level),
            out);
      });
}

std::unique_ptr<CandidateGenerator> MakeLshCandidates(
    const Csr<uint64_t>& left, const Csr<uint64_t>& right,
    EntityIdx left_begin, EntityIdx right_begin, int threads) {
  static_assert(std::is_same_v<EntityIdx, uint32_t>);
  return std::make_unique<CsrCandidates>(
      "lsh", left_begin,
      GatherLshCandidates(left, right, right_begin, threads));
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
    case CandidateKind::kLsh: {
      // On the full problem's grid, an entity's bucket ids do not depend
      // on the block, so neither do its collisions.
      const LshWindowSpan span = GlobalWindowSpan(context);
      return MakeLshCandidates(
          BuildBucketIds(context.store_e, context.vocab, left_begin, left_end,
                         span, lsh_config, threads),
          BuildBucketIds(context.store_i, context.vocab, right_begin,
                         right_end, span, lsh_config, threads),
          left_begin, right_begin, threads);
    }
    case CandidateKind::kBruteForce:
      return std::make_unique<BruteForceCandidates>(left_begin, left_end,
                                                    right_begin, right_end);
    case CandidateKind::kGrid:
      return std::make_unique<CsrCandidates>(
          "grid", left_begin,
          GridBlockingCandidates(context, grid_config, left_begin, left_end,
                                 right_begin, right_end, threads));
  }
  SLIM_CHECK_MSG(false, "unreachable candidate kind");
  return nullptr;
}

}  // namespace slim
