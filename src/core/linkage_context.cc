#include "core/linkage_context.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/radix_sort.h"
#include "core/score_kernel.h"
#include "geo/covering.h"
#include "temporal/time_window.h"

namespace slim {

// The stages of LinkageContext::Compact; the only construction path of
// the vocabulary and the stores.
class ContextBuilder {
 public:
  using Key = LinkageContext::PendingKey;
  using SideReport = LinkageContext::CompactReport::Side;

  static LinkageContext::CompactReport Compact(LinkageContext* ctx,
                                               int threads);

 private:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  // Order-preserving map of a signed key word onto an unsigned one.
  static uint64_t Biased(int64_t v) {
    return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
  }
  static std::vector<uint32_t> BinOrder(const std::vector<Key>& keys,
                                        int threads);
  static std::vector<BinId> MergeVocabulary(
      std::vector<Key>* keys_e, std::span<const uint32_t> order_e,
      std::vector<Key>* keys_i, std::span<const uint32_t> order_i,
      BinVocabulary* vocab);
  static void SortByEntity(std::vector<Key>* keys, int threads);
  static SideReport MergeStore(std::vector<Key>* keys,
                               std::span<const BinId> remap,
                               const BinVocabulary& vocab, int threads,
                               HistoryStore* store);
  static void FinishStore(const BinVocabulary& vocab,
                          std::vector<EntityId> ids,
                          std::vector<uint64_t> total_records,
                          std::vector<uint32_t> bin_offsets,
                          std::vector<BinId> bin_ids,
                          std::vector<uint32_t> bin_counts, int threads,
                          HistoryStore* store);
};

LinkageContext::CompactReport ContextBuilder::Compact(LinkageContext* ctx,
                                                      int threads) {
  LinkageContext::CompactReport report;
  if (!ctx->has_pending()) return report;
  // Each side's key positions in (window, cell) order, for the vocabulary
  // merge, which replaces each key's cell by its BinId. Sorting positions
  // instead of keys keeps the extra memory at 8 bytes a key.
  const size_t old_bins = ctx->vocab.size();
  const std::vector<BinId> remap =
      MergeVocabulary(&ctx->pending_e_, BinOrder(ctx->pending_e_, threads),
                      &ctx->pending_i_, BinOrder(ctx->pending_i_, threads),
                      &ctx->vocab);
  const bool vocab_grew = ctx->vocab.size() != old_bins;
  for (std::vector<Key>* keys : {&ctx->pending_e_, &ctx->pending_i_}) {
    SortByEntity(keys, threads);
  }
  const std::tuple<std::vector<Key>*, HistoryStore*, SideReport*> sides[] = {
      {&ctx->pending_e_, &ctx->store_e, &report.e},
      {&ctx->pending_i_, &ctx->store_i, &report.i}};
  for (const auto& [keys, store, side] : sides) {
    // A side without pending keys still rebuilds when the vocabulary
    // grew: its BinIds renumber and its per-bin arrays resize.
    if (!keys->empty() || vocab_grew) {
      *side = MergeStore(keys, remap, ctx->vocab, threads, store);
    }
    std::vector<Key>().swap(*keys);
  }
  return report;
}

// Positions of `keys`, ordered by (window, cell).
std::vector<uint32_t> ContextBuilder::BinOrder(const std::vector<Key>& keys,
                                               int threads) {
  SLIM_CHECK_MSG(keys.size() < kNone, "more than 2^32 pending keys");
  std::vector<uint32_t> order(keys.size()), scratch;
  for (size_t k = 0; k < order.size(); ++k) {
    order[k] = static_cast<uint32_t>(k);
  }
  RadixSort(
      &order, &scratch, 2,
      [&keys](uint32_t k, int word) {
        return word == 0 ? keys[k].cell : Biased(keys[k].window);
      },
      threads);
  return order;
}

// Merges both sides' keys, visited in (window, cell) order, into the
// sorted vocabulary in one linear pass, and overwrites each key's cell
// with its BinId. Returns the old-id -> new-id remap, strictly increasing,
// or an empty remap when no bin is new (the vocabulary is then left
// untouched, so a mapped vocabulary stays mapped).
std::vector<BinId> ContextBuilder::MergeVocabulary(
    std::vector<Key>* keys_e, std::span<const uint32_t> order_e,
    std::vector<Key>* keys_i, std::span<const uint32_t> order_i,
    BinVocabulary* vocab) {
  const size_t base = vocab->windows_.size();
  std::vector<int64_t> windows;
  std::vector<CellId> cells;
  std::vector<BinId> remap(base);
  windows.reserve(base);
  cells.reserve(base);
  // (window, cell raw) heads of the three sorted inputs; a valid cell's
  // raw id has its top bit clear, so kEnd sorts after every bin.
  using Bin = std::pair<int64_t, uint64_t>;
  constexpr Bin kEnd{std::numeric_limits<int64_t>::max(),
                     std::numeric_limits<uint64_t>::max()};
  const auto head = [&kEnd](const std::vector<Key>& keys,
                            std::span<const uint32_t> order, size_t k) {
    return k < order.size() ? Bin{keys[order[k]].window, keys[order[k]].cell}
                            : kEnd;
  };
  size_t b = 0, e = 0, i = 0;
  for (;;) {
    const Bin base_head =
        b < base ? Bin{vocab->windows_[b], vocab->cells_[b].raw()} : kEnd;
    const Bin bin = std::min(
        {base_head, head(*keys_e, order_e, e), head(*keys_i, order_i, i)});
    if (bin == kEnd) break;
    SLIM_CHECK_MSG(windows.size() < std::numeric_limits<BinId>::max(),
                   "bin vocabulary exceeds 2^32 entries");
    const BinId id = static_cast<BinId>(windows.size());
    windows.push_back(bin.first);
    cells.push_back(CellId::FromRaw(bin.second));
    if (base_head == bin) remap[b++] = id;
    for (; head(*keys_e, order_e, e) == bin; ++e) {
      (*keys_e)[order_e[e]].cell = id;
    }
    for (; head(*keys_i, order_i, i) == bin; ++i) {
      (*keys_i)[order_i[i]].cell = id;
    }
  }
  if (windows.size() == base) return {};
  vocab->windows_ = std::move(windows);
  vocab->cells_ = std::move(cells);
  return remap;
}

// Sorts one side's keys by (entity, BinId) and folds equal neighbours into
// one key. Keys appended from records in entity and time order (a
// finalized dataset) arrive sorted by (entity, window), and then only each
// (entity, window) run needs its BinIds sorted, in place; other orders
// take a radix sort.
void ContextBuilder::SortByEntity(std::vector<Key>* keys, int threads) {
  const auto before = [](const Key& a, const Key& b) {
    return a.entity != b.entity ? a.entity < b.entity : a.window < b.window;
  };
  if (std::is_sorted(keys->begin(), keys->end(), before)) {
    for (size_t begin = 0, end = 0; begin < keys->size(); begin = end) {
      end = begin + 1;
      while (end < keys->size() && !before((*keys)[begin], (*keys)[end])) {
        ++end;
      }
      if (end - begin > 1) {
        std::sort(keys->begin() + static_cast<ptrdiff_t>(begin),
                  keys->begin() + static_cast<ptrdiff_t>(end),
                  [](const Key& a, const Key& b) { return a.cell < b.cell; });
      }
    }
  } else {
    std::vector<Key> scratch;
    RadixSort(
        keys, &scratch, 2,
        [](const Key& k, int word) {
          return word == 0 ? k.cell : Biased(k.entity);
        },
        threads);
  }
  size_t kept = 0;
  for (const Key& key : *keys) {
    if (kept > 0 && (*keys)[kept - 1].entity == key.entity &&
        (*keys)[kept - 1].cell == key.cell) {
      (*keys)[kept - 1].count += key.count;
      (*keys)[kept - 1].records += key.records;
    } else {
      (*keys)[kept++] = key;
    }
  }
  keys->resize(kept);
}

// Merges one side's keys — sorted by (entity, BinId), one per pair — into
// its store: each appended entity's delta merges with its renumbered base
// span, untouched entities renumber theirs, and FinishStore derives the
// rest. Linear in the store plus the keys.
ContextBuilder::SideReport ContextBuilder::MergeStore(
    std::vector<Key>* keys, std::span<const BinId> remap,
    const BinVocabulary& vocab, int threads, HistoryStore* store) {
  SideReport report;
  // Entity runs of the keys: run r is keys[run_start[r], run_start[r+1]).
  std::vector<size_t> run_start;
  for (size_t k = 0; k < keys->size(); ++k) {
    if (k == 0 || (*keys)[k].entity != (*keys)[k - 1].entity) {
      run_start.push_back(k);
      report.appended.push_back((*keys)[k].entity);
    }
  }
  run_start.push_back(keys->size());

  // The merged sorted entity list, each with its old index and run.
  const size_t old_n = store->size();
  const size_t runs = report.appended.size();
  std::vector<EntityId> ids;
  std::vector<uint32_t> old_of, run_of;
  ids.reserve(old_n + runs);
  old_of.reserve(old_n + runs);
  run_of.reserve(old_n + runs);
  const std::span<const EntityId> old_ids = store->entity_ids().span();
  const std::span<const EntityId> new_ids = report.appended;
  for (size_t o = 0, r = 0; o < old_n || r < runs;) {
    const bool take_old =
        o < old_n && (r == runs || old_ids[o] <= new_ids[r]);
    const bool take_run =
        r < runs && (o == old_n || new_ids[r] <= old_ids[o]);
    if (take_run && !take_old) report.structural = true;  // a new entity
    ids.push_back(take_old ? old_ids[o] : new_ids[r]);
    old_of.push_back(take_old ? static_cast<uint32_t>(o++) : kNone);
    run_of.push_back(take_run ? static_cast<uint32_t>(r++) : kNone);
  }
  const size_t n = ids.size();
  SLIM_CHECK_MSG(n < kNone, "history store exceeds 2^32 entities");

  // Calls emit(bin, count, new_to_entity) for entity k's merged history,
  // bins ascending.
  const auto merge = [&](size_t k, auto&& emit) {
    std::span<const BinId> bins;
    std::span<const uint32_t> counts;
    if (old_of[k] != kNone) {
      bins = store->bins(old_of[k]);
      counts = store->counts(old_of[k]);
    }
    const Key* d = keys->data();
    const Key* d_end = keys->data();
    if (run_of[k] != kNone) {
      d += run_start[run_of[k]];
      d_end += run_start[run_of[k] + 1];
    }
    size_t j = 0;
    while (j < bins.size() || d != d_end) {
      const BinId old_bin = j == bins.size()  ? kNone
                            : remap.empty() ? bins[j]
                                            : remap[bins[j]];
      const BinId new_bin = d == d_end ? kNone : static_cast<BinId>(d->cell);
      if (old_bin < new_bin) {
        emit(old_bin, counts[j++], false);
      } else if (new_bin < old_bin) {
        emit(new_bin, d->count, true);
        ++d;
      } else {
        emit(old_bin, counts[j++] + d->count, false);
        ++d;
      }
    }
  };

  // Pass 1 sizes every merged history and totals its records; pass 2
  // writes the histories into the flat arrays.
  std::vector<uint32_t> bin_offsets(n + 1, 0);
  std::vector<uint64_t> total_records(n, 0);
  std::vector<uint8_t> new_bin(n, 0);
  ParallelFor(
      n,
      [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
          uint32_t size = 0;
          merge(k, [&](BinId, uint32_t, bool fresh) {
            ++size;
            new_bin[k] |= static_cast<uint8_t>(fresh);
          });
          bin_offsets[k + 1] = size;
          uint64_t records =
              old_of[k] == kNone ? 0 : store->total_records(old_of[k]);
          if (run_of[k] != kNone) {
            for (size_t p = run_start[run_of[k]];
                 p < run_start[run_of[k] + 1]; ++p) {
              records += (*keys)[p].records;
            }
          }
          total_records[k] = records;
        }
      },
      threads);
  uint64_t total_bins = 0;
  for (size_t k = 0; k < n; ++k) {
    total_bins += bin_offsets[k + 1];
    SLIM_CHECK_MSG(total_bins <= std::numeric_limits<uint32_t>::max(),
                   "history store exceeds 2^32 bin occurrences");
    bin_offsets[k + 1] = static_cast<uint32_t>(total_bins);
    if (old_of[k] != kNone && new_bin[k] != 0) report.structural = true;
  }
  std::vector<BinId> bin_ids(total_bins);
  std::vector<uint32_t> bin_counts(total_bins);
  ParallelFor(
      n,
      [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
          uint32_t pos = bin_offsets[k];
          merge(k, [&](BinId bin, uint32_t count, bool) {
            bin_ids[pos] = bin;
            bin_counts[pos] = count;
            ++pos;
          });
        }
      },
      threads);
  FinishStore(vocab, std::move(ids), std::move(total_records),
              std::move(bin_offsets), std::move(bin_ids),
              std::move(bin_counts), threads, store);
  return report;
}

// Derives a store's window index, fingerprints, quantized counts and
// per-bin statistics from its histories, and installs every array. The
// previous arrays (possibly read-only SCTX views) are replaced only here,
// after everything that reads them has run.
void ContextBuilder::FinishStore(const BinVocabulary& vocab,
                                 std::vector<EntityId> ids,
                                 std::vector<uint64_t> total_records,
                                 std::vector<uint32_t> bin_offsets,
                                 std::vector<BinId> bin_ids,
                                 std::vector<uint32_t> bin_counts,
                                 int threads, HistoryStore* store) {
  const size_t n = ids.size();
  const size_t total_bins = bin_ids.size();
  // Window CSR offsets from per-entity distinct-window counts, then a
  // parallel fill.
  std::vector<uint32_t> window_offsets(n + 1, 0);
  ParallelFor(
      n,
      [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
          uint32_t count = 0;
          for (uint32_t p = bin_offsets[k]; p < bin_offsets[k + 1]; ++p) {
            if (p == bin_offsets[k] ||
                vocab.window(bin_ids[p]) != vocab.window(bin_ids[p - 1])) {
              ++count;
            }
          }
          window_offsets[k + 1] = count;
        }
      },
      threads);
  for (size_t k = 0; k < n; ++k) window_offsets[k + 1] += window_offsets[k];
  const size_t total_windows = window_offsets[n];
  std::vector<int64_t> windows(total_windows);
  std::vector<uint32_t> window_bin_begin(total_windows + 1);
  window_bin_begin[total_windows] = static_cast<uint32_t>(total_bins);
  std::vector<uint64_t> window_masks(n * HistoryStore::kWindowMaskWords, 0);
  ParallelFor(
      n,
      [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
          uint32_t win_pos = window_offsets[k];
          uint64_t* mask =
              window_masks.data() + k * HistoryStore::kWindowMaskWords;
          for (uint32_t p = bin_offsets[k]; p < bin_offsets[k + 1]; ++p) {
            const int64_t window = vocab.window(bin_ids[p]);
            if (p == bin_offsets[k] || window != vocab.window(bin_ids[p - 1])) {
              windows[win_pos] = window;
              window_bin_begin[win_pos] = p;
              ++win_pos;
              // Fingerprint bit (window mod 512); the unsigned cast keeps
              // pre-epoch (negative) windows consistent on both stores.
              const uint64_t w = static_cast<uint64_t>(window);
              mask[(w >> 6) & (HistoryStore::kWindowMaskWords - 1)] |=
                  uint64_t{1} << (w & 63);
            }
          }
        }
      },
      threads);

  // Quantized (saturating u16) copy of the counts for the integer overlap
  // prefilters — built here so every store has it without a separate pass.
  std::vector<uint16_t> quantized(total_bins);
  QuantizeCountsSaturating({bin_counts.data(), bin_counts.size()},
                           quantized.data());

  // Dataset-level statistics: per-bin holder counts (each entity's bins are
  // distinct, so every occurrence is one holder) and the IDF array.
  std::vector<uint32_t> bin_entity_counts(vocab.size(), 0);
  std::vector<double> idf(vocab.size());
  uint32_t max_holders = 0;
  for (const BinId b : bin_ids) {
    max_holders = std::max(max_holders, ++bin_entity_counts[b]);
  }
  if (n > 0) {
    // Holder counts repeat (most bins have a few holders), so each
    // distinct count's IDF is computed once; 0 holders get log(|U|).
    const double dn = static_cast<double>(n);
    std::vector<double> idf_of(max_holders + 1);
    idf_of[0] = std::log(dn);
    for (uint32_t h = 1; h <= max_holders; ++h) {
      idf_of[h] = std::log(dn / static_cast<double>(h));
    }
    for (size_t b = 0; b < vocab.size(); ++b) {
      idf[b] = idf_of[bin_entity_counts[b]];
    }
  }
  store->avg_bins_ =
      n == 0 ? 0.0
             : static_cast<double>(total_bins) / static_cast<double>(n);
  store->entity_ids_ = std::move(ids);
  store->total_records_ = std::move(total_records);
  store->bin_offsets_ = std::move(bin_offsets);
  store->window_offsets_ = std::move(window_offsets);
  store->bin_ids_ = std::move(bin_ids);
  store->bin_counts_ = std::move(bin_counts);
  store->quantized_counts_ = std::move(quantized);
  store->windows_ = std::move(windows);
  store->window_bin_begin_ = std::move(window_bin_begin);
  store->window_masks_ = std::move(window_masks);
  store->bin_entity_counts_ = std::move(bin_entity_counts);
  store->idf_ = std::move(idf);
}

std::optional<BinId> BinVocabulary::Find(int64_t window, CellId cell) const {
  // Lower bound over the (window, cell-raw)-sorted parallel arrays.
  size_t lo = 0, hi = windows_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (windows_[mid] < window ||
        (windows_[mid] == window && cells_[mid] < cell)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < windows_.size() && windows_[lo] == window && cells_[lo] == cell) {
    return static_cast<BinId>(lo);
  }
  return std::nullopt;
}

std::optional<EntityIdx> HistoryStore::IndexOf(EntityId entity) const {
  const auto it =
      std::lower_bound(entity_ids_.begin(), entity_ids_.end(), entity);
  if (it == entity_ids_.end() || *it != entity) return std::nullopt;
  return static_cast<EntityIdx>(it - entity_ids_.begin());
}

double HistoryStore::LengthNorm(EntityIdx u, double b) const {
  SLIM_CHECK_MSG(b >= 0.0 && b <= 1.0, "length-norm b must be in [0,1]");
  SLIM_CHECK_MSG(avg_bins_ > 0.0, "LengthNorm on an empty HistoryStore");
  const double rel = static_cast<double>(num_bins(u)) / avg_bins_;
  return (1.0 - b) + b * rel;
}

LinkageContext LinkageContext::Build(const LocationDataset& dataset_e,
                                     const LocationDataset& dataset_i,
                                     const HistoryConfig& config,
                                     int threads) {
  SLIM_CHECK_MSG(dataset_e.finalized() && dataset_i.finalized(),
                 "datasets must be finalized");
  LinkageContext ctx;
  ctx.config = config;
  ctx.AppendRecords(LinkageSide::kE, dataset_e.records());
  if (&dataset_e == &dataset_i) {
    // Symmetric context (the auto-tuner's case): build one side and copy
    // the finished store.
    ctx.Compact(threads);
    ctx.store_i = ctx.store_e;
    return ctx;
  }
  ctx.AppendRecords(LinkageSide::kI, dataset_i.records());
  ctx.Compact(threads);
  return ctx;
}

void LinkageContext::AppendRecords(LinkageSide side,
                                   std::span<const Record> records) {
  SLIM_CHECK_MSG(config.spatial_level >= 0 &&
                     config.spatial_level <= CellId::kMaxLevel,
                 "invalid spatial level");
  SLIM_CHECK_MSG(config.window_seconds > 0, "invalid window width");
  std::vector<PendingKey>& keys =
      side == LinkageSide::kE ? pending_e_ : pending_i_;
  if (keys.empty()) keys.reserve(records.size());
  const auto push = [&keys](EntityId entity, int64_t window, CellId cell,
                            uint32_t first) {
    if (!keys.empty()) {
      PendingKey& last = keys.back();
      if (last.entity == entity && last.window == window &&
          last.cell == cell.raw()) {
        ++last.count;
        last.records += first;
        return;
      }
    }
    keys.push_back({entity, window, cell.raw(), 1, first});
  };
  for (const Record& r : records) {
    const int64_t window = WindowIndexOf(r.timestamp, config.window_seconds);
    if (config.region_radius_meters > 0.0) {
      // Region record: one key per intersecting leaf cell, the record
      // counted once.
      uint32_t first = 1;
      for (const CellId cell :
           CellsCoveringDisc(r.location, config.region_radius_meters,
                             config.spatial_level)) {
        push(r.entity, window, cell, first);
        first = 0;
      }
    } else {
      push(r.entity, window,
           CellId::FromLatLng(r.location, config.spatial_level), 1);
    }
  }
}

LinkageContext::CompactReport LinkageContext::Compact(int threads) {
  return ContextBuilder::Compact(this, threads);
}

}  // namespace slim
