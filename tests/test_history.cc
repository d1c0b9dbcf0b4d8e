// Mobility histories: the leaf-window arithmetic (temporal/time_window.h),
// the binning kernel (core/history.h), and the per-history view and
// dataset-level statistics of the dense HistoryStore built from it.
#include "core/history.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/linkage_context.h"
#include "temporal/time_window.h"
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

// A one-dataset context: store_e holds the dataset's histories.
LinkageContext ContextOf(const LocationDataset& ds, int level = 12) {
  return LinkageContext::Build(ds, ds, Config(level));
}

TEST(WindowIndex, FloorsTowardMinusInfinity) {
  EXPECT_EQ(WindowIndexOf(0, 900), 0);
  EXPECT_EQ(WindowIndexOf(899, 900), 0);
  EXPECT_EQ(WindowIndexOf(900, 900), 1);
  EXPECT_EQ(WindowIndexOf(-1, 900), -1);
  EXPECT_EQ(WindowIndexOf(-900, 900), -1);
  EXPECT_EQ(WindowIndexOf(-901, 900), -2);
}

TEST(WindowIndex, StartInvertsIndex) {
  for (int64_t t : {-5000, -1, 0, 1, 899, 12345}) {
    const int64_t w = WindowIndexOf(t, 900);
    EXPECT_LE(WindowStart(w, 900), t);
    EXPECT_GT(WindowStart(w + 1, 900), t);
  }
}

TEST(RunawayDistance, ScalesWithWindowAndSpeed) {
  EXPECT_DOUBLE_EQ(RunawayDistanceMeters(900, 33.0), 29700.0);
  EXPECT_DOUBLE_EQ(RunawayDistanceMeters(60, 10.0), 600.0);
}

TEST(GroupRecordsIntoBins, EmptyRecords) {
  EXPECT_TRUE(GroupRecordsIntoBins({}, Config()).empty());
}

TEST(GroupRecordsIntoBins, GroupsRecordsIntoBins) {
  const LatLng p{37.7, -122.4};
  const std::vector<Record> recs = {
      {1, p, 100},   // window 0
      {1, p, 200},   // window 0, same cell -> same bin, count 2
      {1, p, 1000},  // window 1
  };
  const auto bins = GroupRecordsIntoBins(recs, Config());
  const CellId cell = CellId::FromLatLng(p, 12);
  EXPECT_EQ(bins, (std::vector<TimeLocationBin>{{0, cell, 2}, {1, cell, 1}}));
}

TEST(GroupRecordsIntoBins, DistinctCellsSameWindowAreDistinctBins) {
  const std::vector<Record> recs = {
      {1, {37.70, -122.40}, 100},
      {1, {37.80, -122.50}, 200},  // far enough for a different level-12 cell
  };
  const auto bins = GroupRecordsIntoBins(recs, Config());
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0].window, 0);
  EXPECT_EQ(bins[1].window, 0);
}

TEST(GroupRecordsIntoBins, BinsSortedByWindowThenCell) {
  Rng rng(3);
  std::vector<Record> recs;
  for (int i = 0; i < 200; ++i) {
    recs.push_back({1, testing::RandomPointInBox(&rng),
                    rng.NextInt64(0, 50) * kWindow + 10});
  }
  const auto bins = GroupRecordsIntoBins(recs, Config());
  for (size_t i = 1; i < bins.size(); ++i) {
    const auto& prev = bins[i - 1];
    const auto& cur = bins[i];
    EXPECT_TRUE(prev.window < cur.window ||
                (prev.window == cur.window && prev.cell < cur.cell));
  }
}

TEST(HistoryStore, WindowIndexAgreesWithBins) {
  Rng rng(4);
  LocationDataset ds("t");
  for (int i = 0; i < 100; ++i) {
    ds.Add(1, testing::RandomPointInBox(&rng),
           rng.NextInt64(0, 20) * kWindow + 5);
  }
  ds.Finalize();
  const LinkageContext ctx = ContextOf(ds);
  const HistoryStore& store = ctx.store_e;
  EXPECT_EQ(store.total_records(0), 100u);
  const auto bins = GroupRecordsIntoBins(ds.RecordsOf(1), Config());
  std::vector<int64_t> expect_windows;
  for (const TimeLocationBin& bin : bins) {
    if (expect_windows.empty() || expect_windows.back() != bin.window) {
      expect_windows.push_back(bin.window);
    }
  }
  const auto windows = store.windows(0);
  ASSERT_EQ(std::vector<int64_t>(windows.begin(), windows.end()),
            expect_windows);
  // Each window's bin range holds exactly that window's bins.
  size_t next = 0;
  for (size_t k = 0; k < windows.size(); ++k) {
    const auto [begin, end] = store.WindowBinRange(0, k);
    EXPECT_EQ(begin, next);
    for (uint32_t p = begin; p < end; ++p) {
      EXPECT_EQ(ctx.vocab.window(store.bin_ids()[p]), windows[k]);
      EXPECT_EQ(ctx.vocab.cell(store.bin_ids()[p]), bins[p].cell);
      EXPECT_EQ(store.bin_counts()[p], bins[p].record_count);
    }
    next = end;
  }
  EXPECT_EQ(next, bins.size());
}

TEST(HistoryStore, BuildsAllEntities) {
  LocationDataset ds("t");
  ds.Add(1, {37.7, -122.4}, 100);
  ds.Add(2, {37.7, -122.4}, 100);
  ds.Add(2, {37.7, -122.4}, 2000);
  ds.Finalize();
  const LinkageContext ctx = ContextOf(ds);
  const HistoryStore& store = ctx.store_e;
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.IndexOf(1).has_value());
  ASSERT_TRUE(store.IndexOf(2).has_value());
  EXPECT_FALSE(store.IndexOf(3).has_value());
  EXPECT_EQ(store.num_bins(*store.IndexOf(2)), 2u);
  EXPECT_DOUBLE_EQ(store.avg_bins(), 1.5);
}

TEST(HistoryStore, BinEntityCountsAndIdf) {
  const LatLng shared{37.70, -122.40};
  const LatLng lonely{37.80, -122.50};
  LocationDataset ds("t");
  ds.Add(1, shared, 100);
  ds.Add(2, shared, 200);
  ds.Add(3, shared, 300);
  ds.Add(3, lonely, 400);
  ds.Finalize();
  const LinkageContext ctx = ContextOf(ds);
  const BinId shared_bin = *ctx.vocab.Find(0, CellId::FromLatLng(shared, 12));
  const BinId lonely_bin = *ctx.vocab.Find(0, CellId::FromLatLng(lonely, 12));
  EXPECT_EQ(ctx.store_e.bin_entity_count(shared_bin), 3u);
  EXPECT_EQ(ctx.store_e.bin_entity_count(lonely_bin), 1u);
  // idf = log(N / holders): shared bin held by all 3 -> log(1) = 0.
  EXPECT_NEAR(ctx.store_e.idf(shared_bin), 0.0, 1e-12);
  EXPECT_NEAR(ctx.store_e.idf(lonely_bin), std::log(3.0), 1e-12);
}

TEST(HistoryStore, AbsentBinGetsTheMaximalIdf) {
  // A bin held only by the other side's histories is maximally unique on
  // this side: log(N).
  LocationDataset a("a"), b("b");
  a.Add(1, {37.70, -122.40}, 100);
  a.Add(2, {37.70, -122.40}, 100);
  b.Add(9, {37.80, -122.50}, 100);
  a.Finalize();
  b.Finalize();
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  const BinId only_b =
      *ctx.vocab.Find(0, CellId::FromLatLng({37.80, -122.50}, 12));
  EXPECT_EQ(ctx.store_e.bin_entity_count(only_b), 0u);
  EXPECT_NEAR(ctx.store_e.idf(only_b), std::log(2.0), 1e-12);
}

TEST(HistoryStore, LengthNormBm25Shape) {
  LocationDataset ds("t");
  // Entity 1: 1 bin. Entity 2: 3 bins. Average = 2.
  ds.Add(1, {37.7, -122.4}, 100);
  ds.Add(2, {37.7, -122.4}, 100);
  ds.Add(2, {37.7, -122.4}, 1000);
  ds.Add(2, {37.7, -122.4}, 2000);
  ds.Finalize();
  const LinkageContext ctx = ContextOf(ds);
  const HistoryStore& store = ctx.store_e;
  const EntityIdx h1 = *store.IndexOf(1);
  const EntityIdx h2 = *store.IndexOf(2);
  // b = 0: lengths ignored.
  EXPECT_DOUBLE_EQ(store.LengthNorm(h1, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(store.LengthNorm(h2, 0.0), 1.0);
  // b = 1: pure relative size.
  EXPECT_DOUBLE_EQ(store.LengthNorm(h1, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(store.LengthNorm(h2, 1.0), 1.5);
  // b = 0.5: halfway.
  EXPECT_DOUBLE_EQ(store.LengthNorm(h1, 0.5), 0.75);
  EXPECT_DOUBLE_EQ(store.LengthNorm(h2, 0.5), 1.25);
}

// Property sweep: for any spatial level, total bin records equal dataset
// records, and bin cells carry the configured level.
class HistoryLevelProperty : public ::testing::TestWithParam<int> {};

TEST_P(HistoryLevelProperty, BinInvariantsHold) {
  const int level = GetParam();
  Rng rng(100 + static_cast<uint64_t>(level));
  LocationDataset ds("t");
  for (int e = 0; e < 5; ++e) {
    for (int i = 0; i < 50; ++i) {
      ds.Add(e, testing::RandomPointInBox(&rng),
             rng.NextInt64(0, 30) * kWindow + rng.NextInt64(0, kWindow - 1));
    }
  }
  ds.Finalize();
  const LinkageContext ctx = ContextOf(ds, level);
  const HistoryStore& store = ctx.store_e;
  for (EntityIdx u = 0; u < store.size(); ++u) {
    uint64_t records = 0;
    for (size_t k = 0; k < store.num_bins(u); ++k) {
      EXPECT_EQ(ctx.vocab.cell(store.bins(u)[k]).level(), level);
      EXPECT_GT(store.counts(u)[k], 0u);
      records += store.counts(u)[k];
    }
    EXPECT_EQ(records, 50u);
    EXPECT_EQ(store.total_records(u), 50u);
    // Bins per window sum to total bins.
    size_t bins_via_windows = 0;
    for (size_t k = 0; k < store.windows(u).size(); ++k) {
      const auto [begin, end] = store.WindowBinRange(u, k);
      bins_via_windows += end - begin;
    }
    EXPECT_EQ(bins_via_windows, store.num_bins(u));
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, HistoryLevelProperty,
                         ::testing::Values(4, 8, 12, 16, 20, 24));

}  // namespace
}  // namespace slim
