// Tests of the dense interned core (core/linkage_context.h): vocabulary
// ordering and lookup, CSR layout equivalence with the bins
// GroupRecordsIntoBins produces per entity, flat IDF / length norms
// agreeing with the Eq. 2/3 formulas evaluated over those bins, the
// append-then-compact builder matching that reference field for field
// whatever the chunking and order, and its structural-growth report.
#include "core/linkage_context.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/history.h"
#include "data/cab_generator.h"
#include "test_util.h"

namespace slim {
namespace {

constexpr int64_t kWindow = 900;

HistoryConfig Config(int level = 12) {
  HistoryConfig c;
  c.spatial_level = level;
  c.window_seconds = kWindow;
  return c;
}

LocationDataset RandomDataset(uint64_t seed, int entities, int records,
                              const char* name) {
  Rng rng(seed);
  LocationDataset ds(name);
  for (int e = 0; e < entities; ++e) {
    for (int i = 0; i < records; ++i) {
      ds.Add(e, testing::RandomPointInBox(&rng),
             rng.NextInt64(0, 40) * kWindow + rng.NextInt64(0, kWindow - 1));
    }
  }
  ds.Finalize();
  return ds;
}

TEST(BinVocabulary, IdsAreDenseAndOrderedByWindowThenCell) {
  const LocationDataset a = RandomDataset(1, 6, 40, "a");
  const LocationDataset b = RandomDataset(2, 6, 40, "b");
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  ASSERT_GT(ctx.vocab.size(), 0u);
  for (BinId bin = 1; bin < ctx.vocab.size(); ++bin) {
    const bool ordered =
        ctx.vocab.window(bin - 1) < ctx.vocab.window(bin) ||
        (ctx.vocab.window(bin - 1) == ctx.vocab.window(bin) &&
         ctx.vocab.cell(bin - 1) < ctx.vocab.cell(bin));
    EXPECT_TRUE(ordered) << "bin " << bin;
  }
  // Find() inverts the id assignment, and misses report nullopt.
  for (BinId bin = 0; bin < ctx.vocab.size(); ++bin) {
    const auto found = ctx.vocab.Find(ctx.vocab.window(bin),
                                      ctx.vocab.cell(bin));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, bin);
  }
  EXPECT_FALSE(ctx.vocab.Find(999999, ctx.vocab.cell(0)).has_value());
}

// Each entity's bins straight from the binning kernel, in entity order.
std::vector<std::vector<TimeLocationBin>> ReferenceBins(
    const LocationDataset& ds, const HistoryConfig& config) {
  std::vector<std::vector<TimeLocationBin>> out;
  for (const EntityId id : ds.entity_ids()) {
    out.push_back(GroupRecordsIntoBins(ds.RecordsOf(id), config));
  }
  return out;
}

TEST(HistoryStore, CsrLayoutMatchesGroupedBins) {
  const LocationDataset a = RandomDataset(3, 8, 60, "a");
  const LocationDataset b = RandomDataset(4, 8, 60, "b");
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  const auto reference = ReferenceBins(a, Config());

  ASSERT_EQ(ctx.store_e.size(), reference.size());
  size_t total_bins = 0;
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const EntityId id = a.entity_ids()[u];
    const std::vector<TimeLocationBin>& want = reference[u];
    total_bins += want.size();
    ASSERT_EQ(ctx.store_e.entity_id(u), id);
    EXPECT_EQ(*ctx.store_e.IndexOf(id), u);
    ASSERT_EQ(ctx.store_e.num_bins(u), want.size());
    EXPECT_EQ(ctx.store_e.total_records(u), a.RecordsOf(id).size());

    // Bin spans must decode to the grouped bins, in the same order.
    const auto bins = ctx.store_e.bins(u);
    const auto counts = ctx.store_e.counts(u);
    for (size_t k = 0; k < bins.size(); ++k) {
      EXPECT_EQ(ctx.vocab.window(bins[k]), want[k].window);
      EXPECT_EQ(ctx.vocab.cell(bins[k]), want[k].cell);
      EXPECT_EQ(counts[k], want[k].record_count);
      if (k > 0) {
        EXPECT_LT(bins[k - 1], bins[k]);  // ascending BinIds
      }
    }

    // Window index equivalence: same distinct windows, and each window's
    // bin range covers exactly that window's grouped bins.
    std::map<int64_t, size_t> want_windows;  // window -> bin count
    for (const TimeLocationBin& bin : want) ++want_windows[bin.window];
    const auto windows = ctx.store_e.windows(u);
    ASSERT_EQ(windows.size(), want_windows.size());
    size_t k = 0;
    for (const auto& [window, count] : want_windows) {
      EXPECT_EQ(windows[k], window);
      const auto [begin, end] = ctx.store_e.WindowBinRange(u, k);
      ASSERT_EQ(end - begin, count);
      for (uint32_t pos = begin; pos < end; ++pos) {
        EXPECT_EQ(ctx.vocab.window(ctx.store_e.bin_ids()[pos]), window);
      }
      ++k;
    }
  }
  EXPECT_DOUBLE_EQ(ctx.store_e.avg_bins(),
                   static_cast<double>(total_bins) /
                       static_cast<double>(reference.size()));
}

TEST(HistoryStore, WindowMaskCoversEveryOccupiedWindow) {
  const LocationDataset a = RandomDataset(31, 8, 60, "a");
  const LocationDataset b = RandomDataset(32, 8, 60, "b");
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  for (const HistoryStore* store : {&ctx.store_e, &ctx.store_i}) {
    for (EntityIdx u = 0; u < store->size(); ++u) {
      const uint64_t* mask = store->window_mask(u);
      // The fingerprint is a superset summary: every occupied window must
      // have its (window mod 512) bit set, or the scoring prefilter could
      // wrongly prove an intersection empty.
      for (const int64_t w : store->windows(u)) {
        const uint64_t uw = static_cast<uint64_t>(w);
        const uint64_t word = mask[(uw >> 6) % HistoryStore::kWindowMaskWords];
        EXPECT_NE(word & (uint64_t{1} << (uw & 63)), 0u)
            << "entity " << u << " window " << w;
      }
      // And an empty history must have an all-zero mask, so the prefilter
      // also covers the empty case.
      if (store->windows(u).empty()) {
        for (size_t k = 0; k < HistoryStore::kWindowMaskWords; ++k) {
          EXPECT_EQ(mask[k], 0u);
        }
      }
    }
  }
}

TEST(HistoryStore, FlatIdfAgreesWithGroupedBins) {
  const LocationDataset a = RandomDataset(5, 10, 50, "a");
  const LocationDataset b = RandomDataset(6, 10, 50, "b");
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());

  for (const auto& [store, dataset] :
       {std::pair{&ctx.store_e, &a}, std::pair{&ctx.store_i, &b}}) {
    // Holders per (window, cell) and bins per entity, from the kernel.
    const auto reference = ReferenceBins(*dataset, Config());
    std::map<std::pair<int64_t, CellId>, uint32_t> holders;
    size_t total_bins = 0;
    for (const auto& bins : reference) {
      total_bins += bins.size();
      for (const TimeLocationBin& bin : bins) ++holders[{bin.window, bin.cell}];
    }
    const double n = static_cast<double>(reference.size());
    for (BinId bin = 0; bin < ctx.vocab.size(); ++bin) {
      const auto it = holders.find({ctx.vocab.window(bin), ctx.vocab.cell(bin)});
      const uint32_t count = it == holders.end() ? 0 : it->second;
      EXPECT_EQ(store->bin_entity_count(bin), count) << "bin " << bin;
      // Bit-equal, not approximately equal: Eq. 3 with log(N) for bins the
      // side does not hold.
      const double idf = count == 0 ? std::log(n) : std::log(n / count);
      EXPECT_EQ(store->idf(bin), idf) << "bin " << bin;
    }
    // Length normalisation (Eq. 2), at a few b values.
    const double avg = static_cast<double>(total_bins) / n;
    for (double bee : {0.0, 0.5, 1.0}) {
      for (EntityIdx u = 0; u < store->size(); ++u) {
        const double rel = static_cast<double>(reference[u].size()) / avg;
        EXPECT_EQ(store->LengthNorm(u, bee), (1.0 - bee) + bee * rel);
      }
    }
  }
}

TEST(HistoryStore, LookupMissesReturnNullopt) {
  const LocationDataset a = RandomDataset(7, 3, 20, "a");
  const LocationDataset b = RandomDataset(8, 3, 20, "b");
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  EXPECT_FALSE(ctx.store_e.IndexOf(12345).has_value());
  EXPECT_TRUE(ctx.store_e.IndexOf(0).has_value());
}

TEST(LinkageContext, EmptyDatasetsBuildEmptyStores) {
  LocationDataset a("a"), b("b");
  a.Finalize();
  b.Finalize();
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  EXPECT_EQ(ctx.vocab.size(), 0u);
  EXPECT_EQ(ctx.store_e.size(), 0u);
  EXPECT_EQ(ctx.store_i.size(), 0u);
  EXPECT_DOUBLE_EQ(ctx.store_e.avg_bins(), 0.0);
}

TEST(LinkageContext, RegionRecordsFanOutAcrossCells) {
  // A region record must intern one bin per covered leaf cell (the
  // Sec. 2.1 extension of GroupRecordsIntoBins).
  LocationDataset a("a"), b("b");
  a.Add(0, {37.7, -122.4}, 100);
  b.Add(0, {37.7, -122.4}, 100);
  a.Finalize();
  b.Finalize();
  HistoryConfig point_cfg = Config(14);
  HistoryConfig region_cfg = Config(14);
  region_cfg.region_radius_meters = 3000.0;
  const LinkageContext points = LinkageContext::Build(a, b, point_cfg);
  const LinkageContext regions = LinkageContext::Build(a, b, region_cfg);
  EXPECT_EQ(points.store_e.num_bins(0), 1u);
  EXPECT_GT(regions.store_e.num_bins(0), 1u);
  EXPECT_EQ(regions.store_e.total_records(0), 1u);
}

// ---- The builder against an independent reference --------------------

// One side of the reference context: entities ascending, each with its
// GroupRecordsIntoBins bins and its record count.
struct ReferenceSide {
  std::vector<EntityId> ids;
  std::vector<uint64_t> records;
  std::vector<std::vector<TimeLocationBin>> bins;
};

ReferenceSide ReferenceSideOf(const std::vector<Record>& records,
                              const HistoryConfig& config) {
  std::map<EntityId, std::vector<Record>> by_entity;
  for (const Record& r : records) by_entity[r.entity].push_back(r);
  ReferenceSide side;
  for (const auto& [id, recs] : by_entity) {
    side.ids.push_back(id);
    side.records.push_back(recs.size());
    side.bins.push_back(GroupRecordsIntoBins(recs, config));
  }
  return side;
}

// Every flat array of `store`, through its accessors, against the
// reference side: bins and counts as ids into the sorted `vocab`, the
// window index and fingerprints, holder counts, IDF and avg|H|.
void ExpectStoreMatches(const HistoryStore& store, const ReferenceSide& want,
                        const std::vector<std::pair<int64_t, CellId>>& vocab) {
  ASSERT_EQ(store.size(), want.ids.size());
  std::vector<BinId> all_bins;
  std::vector<uint32_t> all_counts;
  std::vector<uint32_t> holders(vocab.size(), 0);
  for (EntityIdx u = 0; u < store.size(); ++u) {
    SCOPED_TRACE(::testing::Message() << "entity " << want.ids[u]);
    ASSERT_EQ(store.entity_id(u), want.ids[u]);
    EXPECT_EQ(store.total_records(u), want.records[u]);
    std::vector<BinId> bins;
    std::vector<uint32_t> counts;
    std::vector<uint16_t> quantized;
    std::vector<int64_t> windows;
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    uint64_t mask[HistoryStore::kWindowMaskWords] = {};
    const uint32_t first = static_cast<uint32_t>(all_bins.size());
    for (size_t k = 0; k < want.bins[u].size(); ++k) {
      const TimeLocationBin& bin = want.bins[u][k];
      const std::pair<int64_t, CellId> key{bin.window, bin.cell};
      const auto it = std::lower_bound(vocab.begin(), vocab.end(), key);
      ASSERT_TRUE(it != vocab.end() && *it == key);
      const BinId id = static_cast<BinId>(it - vocab.begin());
      bins.push_back(id);
      counts.push_back(bin.record_count);
      quantized.push_back(
          static_cast<uint16_t>(std::min<uint32_t>(bin.record_count, 65535)));
      ++holders[id];
      const uint32_t pos = first + static_cast<uint32_t>(k);
      if (windows.empty() || windows.back() != bin.window) {
        windows.push_back(bin.window);
        ranges.emplace_back(pos, pos + 1);
        const uint64_t w = static_cast<uint64_t>(bin.window);
        mask[(w >> 6) % HistoryStore::kWindowMaskWords] |= uint64_t{1}
                                                           << (w & 63);
      } else {
        ranges.back().second = pos + 1;
      }
    }
    all_bins.insert(all_bins.end(), bins.begin(), bins.end());
    all_counts.insert(all_counts.end(), counts.begin(), counts.end());
    const auto span_bins = store.bins(u);
    const auto span_counts = store.counts(u);
    const auto span_quantized = store.quantized_counts(u);
    const auto span_windows = store.windows(u);
    EXPECT_EQ(std::vector<BinId>(span_bins.begin(), span_bins.end()), bins);
    EXPECT_EQ(std::vector<uint32_t>(span_counts.begin(), span_counts.end()),
              counts);
    EXPECT_EQ(std::vector<uint16_t>(span_quantized.begin(),
                                    span_quantized.end()),
              quantized);
    EXPECT_EQ(std::vector<int64_t>(span_windows.begin(), span_windows.end()),
              windows);
    for (size_t k = 0; k < ranges.size() && k < span_windows.size(); ++k) {
      EXPECT_EQ(store.WindowBinRange(u, k), ranges[k]) << "window " << k;
    }
    for (size_t w = 0; w < HistoryStore::kWindowMaskWords; ++w) {
      EXPECT_EQ(store.window_mask(u)[w], mask[w]) << "mask word " << w;
    }
  }
  EXPECT_EQ(std::vector<BinId>(store.bin_ids().begin(), store.bin_ids().end()),
            all_bins);
  EXPECT_EQ(std::vector<uint32_t>(store.bin_counts().begin(),
                                  store.bin_counts().end()),
            all_counts);
  ASSERT_EQ(store.idf_values().size(), vocab.size());
  const double n = static_cast<double>(want.ids.size());
  for (BinId b = 0; b < vocab.size(); ++b) {
    EXPECT_EQ(store.bin_entity_count(b), holders[b]) << "bin " << b;
    if (n > 0) {
      const double idf =
          holders[b] == 0 ? std::log(n) : std::log(n / holders[b]);
      EXPECT_EQ(store.idf(b), idf) << "bin " << b;
    }
  }
  EXPECT_EQ(store.avg_bins(),
            n == 0 ? 0.0 : static_cast<double>(all_bins.size()) / n);
}

void ExpectContextMatches(const LinkageContext& ctx,
                          const std::vector<Record>& records_e,
                          const std::vector<Record>& records_i) {
  const ReferenceSide e = ReferenceSideOf(records_e, ctx.config);
  const ReferenceSide i = ReferenceSideOf(records_i, ctx.config);
  std::set<std::pair<int64_t, CellId>> bins;
  for (const ReferenceSide* side : {&e, &i}) {
    for (const auto& entity_bins : side->bins) {
      for (const TimeLocationBin& bin : entity_bins) {
        bins.insert({bin.window, bin.cell});
      }
    }
  }
  const std::vector<std::pair<int64_t, CellId>> vocab(bins.begin(),
                                                      bins.end());
  ASSERT_EQ(ctx.vocab.size(), vocab.size());
  for (BinId b = 0; b < vocab.size(); ++b) {
    EXPECT_EQ(ctx.vocab.window(b), vocab[b].first) << "bin " << b;
    EXPECT_EQ(ctx.vocab.cell(b), vocab[b].second) << "bin " << b;
  }
  {
    SCOPED_TRACE("store E");
    ExpectStoreMatches(ctx.store_e, e, vocab);
  }
  {
    SCOPED_TRACE("store I");
    ExpectStoreMatches(ctx.store_i, i, vocab);
  }
}

// Records of `entities` entities around a few cells, over windows on both
// sides of 1970, with some exact duplicates.
std::vector<Record> RandomRecords(Rng* rng, int entities, int records) {
  std::vector<Record> out;
  for (int k = 0; k < records; ++k) {
    const EntityId entity = static_cast<EntityId>(rng->NextUint64(
                                static_cast<uint64_t>(entities))) *
                            7919;
    const LatLng at{37.70 + 0.02 * static_cast<double>(rng->NextUint64(5)),
                    -122.45 + 0.02 * static_cast<double>(rng->NextUint64(5))};
    out.push_back({entity, at,
                   rng->NextInt64(-30, 30) * kWindow +
                       rng->NextInt64(0, kWindow - 1)});
    if (rng->NextBernoulli(0.2)) out.push_back(out.back());
  }
  return out;
}

struct BuilderCase {
  double region_radius_meters;
  int threads;
};

class BuilderMatchesReference : public ::testing::TestWithParam<BuilderCase> {
};

// Random chunkings and shuffled orders of both sides' records, compacted
// at random points, end as the reference context over all of them; so
// does the batch Build.
TEST_P(BuilderMatchesReference, WhateverTheChunkingAndOrder) {
  HistoryConfig config = Config(14);
  config.region_radius_meters = GetParam().region_radius_meters;
  const int threads = GetParam().threads;
  Rng rng(17);
  const std::vector<Record> all_e = RandomRecords(&rng, 9, 300);
  const std::vector<Record> all_i = RandomRecords(&rng, 7, 250);

  const LinkageContext batch =
      LinkageContext::Build(LocationDataset::FromRecords("e", all_e),
                            LocationDataset::FromRecords("i", all_i), config,
                            threads);
  {
    SCOPED_TRACE("batch Build");
    ExpectContextMatches(batch, all_e, all_i);
  }

  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    std::vector<Record> e = all_e, i = all_i;
    for (std::vector<Record>* side : {&e, &i}) {
      for (size_t k = side->size(); k > 1; --k) {
        std::swap((*side)[k - 1], (*side)[rng.NextUint64(k)]);
      }
    }
    LinkageContext ctx;
    ctx.config = config;
    std::vector<Record> seen_e, seen_i;
    size_t next_e = 0, next_i = 0;
    while (next_e < e.size() || next_i < i.size()) {
      const bool take_e =
          next_i == i.size() || (next_e < e.size() && rng.NextBernoulli(0.5));
      std::vector<Record>& from = take_e ? e : i;
      size_t& next = take_e ? next_e : next_i;
      const size_t n =
          std::min<size_t>(from.size() - next, 1 + rng.NextUint64(60));
      const std::span<const Record> chunk(from.data() + next, n);
      ctx.AppendRecords(take_e ? LinkageSide::kE : LinkageSide::kI, chunk);
      (take_e ? seen_e : seen_i).insert((take_e ? seen_e : seen_i).end(),
                                        chunk.begin(), chunk.end());
      next += n;
      if (rng.NextBernoulli(0.3)) {
        ctx.Compact(threads);
        ASSERT_FALSE(ctx.has_pending());
        ExpectContextMatches(ctx, seen_e, seen_i);
      }
    }
    ctx.Compact(threads);
    ExpectContextMatches(ctx, e, i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PointsAndRegions, BuilderMatchesReference,
    ::testing::Values(BuilderCase{0.0, 1}, BuilderCase{0.0, 4},
                      BuilderCase{900.0, 1}, BuilderCase{900.0, 4}),
    [](const ::testing::TestParamInfo<BuilderCase>& param) {
      return std::string(param.param.region_radius_meters > 0 ? "Regions"
                                                              : "Points") +
             "T" + std::to_string(param.param.threads);
    });

// Enough keys for the builder's sorts to run their parallel passes: keys
// in no order (the radix path) and from datasets (the in-place path).
TEST(BuilderMatchesReferenceLarge, ParallelSortsMatchTheReference) {
  Rng rng(23);
  const std::vector<Record> e = RandomRecords(&rng, 400, 40000);
  const std::vector<Record> i = RandomRecords(&rng, 300, 38000);
  LinkageContext ctx;
  ctx.config = Config(16);
  const size_t half = e.size() / 2;
  ctx.AppendRecords(LinkageSide::kE, {e.data(), half});
  ctx.AppendRecords(LinkageSide::kI, i);
  ctx.Compact(4);
  ctx.AppendRecords(LinkageSide::kE, {e.data() + half, e.size() - half});
  ctx.Compact(4);
  ExpectContextMatches(ctx, e, i);
  // Datasets append in (entity, time) order, the in-place path.
  ExpectContextMatches(
      LinkageContext::Build(LocationDataset::FromRecords("e", e),
                            LocationDataset::FromRecords("i", i), ctx.config,
                            4),
      e, i);
}

// ---- The structural-growth report ---------------------------------------

Record At(EntityId entity, int cell, int64_t window) {
  const LatLng location{37.70 + 0.05 * cell, -122.45};
  return {entity, location, window * kWindow + 1};
}

class CompactReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_.config = Config();
    // E entity 1 holds bin (0, cell 0); I entity 2 holds (0, cell 1).
    const Record e[] = {At(1, 0, 0)};
    const Record i[] = {At(2, 1, 0)};
    ctx_.AppendRecords(LinkageSide::kE, e);
    ctx_.AppendRecords(LinkageSide::kI, i);
    const LinkageContext::CompactReport first = ctx_.Compact();
    EXPECT_TRUE(first.e.structural);
    EXPECT_TRUE(first.i.structural);
  }
  LinkageContext ctx_;
};

TEST_F(CompactReportTest, CountOnlyAppendIsNotStructural) {
  const Record e[] = {At(1, 0, 0), At(1, 0, 0)};
  ctx_.AppendRecords(LinkageSide::kE, e);
  const LinkageContext::CompactReport report = ctx_.Compact();
  EXPECT_FALSE(report.structural());
  EXPECT_EQ(report.e.appended, std::vector<EntityId>{1});
  EXPECT_TRUE(report.i.appended.empty());
  EXPECT_EQ(ctx_.store_e.counts(0)[0], 3u);
}

TEST_F(CompactReportTest, NewBinForAKnownEntityIsStructural) {
  const Record e[] = {At(1, 0, 5)};
  ctx_.AppendRecords(LinkageSide::kE, e);
  const LinkageContext::CompactReport report = ctx_.Compact();
  EXPECT_TRUE(report.e.structural);
  EXPECT_FALSE(report.i.structural);
}

TEST_F(CompactReportTest, KnownBinNewToTheEntityIsStructural) {
  // Bin (0, cell 1) is in the vocabulary (entity 2 holds it), but new to
  // entity 1.
  const Record e[] = {At(1, 1, 0)};
  ctx_.AppendRecords(LinkageSide::kE, e);
  EXPECT_TRUE(ctx_.Compact().e.structural);
}

TEST_F(CompactReportTest, NewEntityIsStructural) {
  const Record i[] = {At(9, 1, 0)};
  ctx_.AppendRecords(LinkageSide::kI, i);
  const LinkageContext::CompactReport report = ctx_.Compact();
  EXPECT_FALSE(report.e.structural);
  EXPECT_TRUE(report.i.structural);
  EXPECT_EQ(report.i.appended, std::vector<EntityId>{9});
}

TEST_F(CompactReportTest, BinNewOnlyToTheOtherSideDoesNotCount) {
  // Bin (0, cell 0) is new to side I and to its entity 2; on side E,
  // entity 1 already holds it and only gains a count.
  const Record e[] = {At(1, 0, 0)};
  const Record i[] = {At(2, 0, 0)};
  ctx_.AppendRecords(LinkageSide::kE, e);
  ctx_.AppendRecords(LinkageSide::kI, i);
  const LinkageContext::CompactReport report = ctx_.Compact();
  EXPECT_FALSE(report.e.structural);
  EXPECT_TRUE(report.i.structural);
}

TEST_F(CompactReportTest, AppendedIdsAreSortedAndUnique) {
  const Record e[] = {At(5, 0, 0), At(3, 0, 0), At(5, 0, 1), At(1, 0, 0)};
  ctx_.AppendRecords(LinkageSide::kE, e);
  const LinkageContext::CompactReport report = ctx_.Compact();
  EXPECT_EQ(report.e.appended, (std::vector<EntityId>{1, 3, 5}));
}

TEST_F(CompactReportTest, NothingPendingReportsNothing) {
  const LinkageContext::CompactReport report = ctx_.Compact();
  EXPECT_FALSE(report.structural());
  EXPECT_TRUE(report.e.appended.empty());
  EXPECT_TRUE(report.i.appended.empty());
}

}  // namespace
}  // namespace slim
