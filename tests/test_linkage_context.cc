// Tests of the dense interned core (core/linkage_context.h): vocabulary
// ordering and lookup, CSR layout equivalence with the bins
// GroupRecordsIntoBins produces per entity, and flat IDF / length norms
// agreeing with the Eq. 2/3 formulas evaluated over those bins.
#include "core/linkage_context.h"

#include <algorithm>
#include <cmath>
#include <map>
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

}  // namespace
}  // namespace slim
