// LSH signatures (paper Sec. 4): the sparse CSR signature pass of
// core/candidates.h pinned to a dense brute-force reference computed from
// the raw records, plus the banding formulas of lsh/signature.h.
#include "lsh/signature.h"

#include <cmath>
#include <map>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "slim.h"
#include "stats/lambert_w.h"
#include "test_util.h"

namespace slim {
namespace {

constexpr int64_t kWindow = 900;

CellId Cell(int level, uint64_t i, uint64_t j) {
  return CellId::FromIndices(level, i, j);
}

HistoryConfig Config(int level = 12) {
  HistoryConfig c;
  c.spatial_level = level;
  c.window_seconds = kWindow;
  return c;
}

// A dense signature: one raw cell per query step, kPlaceholder for a step
// without records.
constexpr uint64_t kPlaceholder = 0;

struct DenseSignature {
  std::vector<uint64_t> cells;

  size_t size() const { return cells.size(); }
  bool IsPlaceholder(size_t q) const { return cells[q] == kPlaceholder; }
};

size_t NumSteps(const LshWindowSpan& span, int step) {
  return span.empty() ? 0
                      : static_cast<size_t>((span.end - span.lo + step - 1) /
                                            step);
}

// BuildSignature of entity u, spread over the dense grid; the sparse form
// must list ascending, in-grid, occupied steps.
DenseSignature BuildDense(const HistoryStore& store, const BinVocabulary& vocab,
                          EntityIdx u, const LshWindowSpan& span, int step,
                          int level) {
  DenseSignature sig;
  sig.cells.assign(NumSteps(span, step), kPlaceholder);
  uint64_t next = 0;
  for (const SignatureStep& s :
       BuildSignature(store, vocab, u, span, step, level)) {
    EXPECT_GE(s.step, next) << "steps must ascend";
    EXPECT_LT(s.step, sig.size());
    EXPECT_NE(s.cell, kPlaceholder);
    if (s.step >= sig.size()) break;
    sig.cells[s.step] = s.cell;
    next = s.step + 1;
  }
  return sig;
}

// The reference: for each query step, count every record's leaf cell(s)
// lifted to `level` in a std::map and take the highest count, ties going
// to the smaller cell. Computed from the raw records, independently of the
// binning kernel and the CSR store.
DenseSignature ReferenceSignature(std::span<const Record> records,
                                const HistoryConfig& hc,
                                const LshWindowSpan& span, int step,
                                int level) {
  DenseSignature sig;
  if (span.empty()) return sig;
  std::vector<std::map<CellId, uint32_t>> counts(NumSteps(span, step));
  for (const Record& r : records) {
    const int64_t q =
        (WindowIndexOf(r.timestamp, hc.window_seconds) - span.lo) / step;
    std::vector<CellId> cells;
    if (hc.region_radius_meters > 0.0) {
      cells = CellsCoveringDisc(r.location, hc.region_radius_meters,
                                hc.spatial_level);
    } else {
      cells.push_back(CellId::FromLatLng(r.location, hc.spatial_level));
    }
    for (const CellId c : cells) {
      ++counts[static_cast<size_t>(q)][c.Parent(level)];
    }
  }
  for (const auto& step_counts : counts) {
    uint64_t best = kPlaceholder;
    uint32_t best_count = 0;
    for (const auto& [cell, count] : step_counts) {
      if (count > best_count) {
        best = cell.raw();
        best_count = count;
      }
    }
    sig.cells.push_back(best);
  }
  return sig;
}

// Every entity of both stores: the CSR pass equals the reference over the
// full problem's query grid.
void ExpectMatchesReference(const LocationDataset& a,
                            const LocationDataset& b, const HistoryConfig& hc,
                            int step, int level) {
  const LinkageContext ctx = LinkageContext::Build(a, b, hc);
  const LshWindowSpan span = GlobalWindowSpan(ctx);
  for (const auto& [store, dataset] :
       {std::pair{&ctx.store_e, &a}, std::pair{&ctx.store_i, &b}}) {
    for (EntityIdx u = 0; u < store->size(); ++u) {
      const EntityId id = store->entity_id(u);
      const DenseSignature got =
          BuildDense(*store, ctx.vocab, u, span, step, level);
      const DenseSignature want =
          ReferenceSignature(dataset->RecordsOf(id), hc, span, step, level);
      ASSERT_EQ(got.cells, want.cells)
          << "entity " << id << " step " << step << " level " << level;
    }
  }
}

// One entity's history given as (window, leaf cell, record count) entries:
// `count` records at the cell's center in that window.
struct Visit {
  int64_t window;
  CellId cell;
  int count;
};

void AddVisits(LocationDataset* ds, EntityId entity,
               const std::vector<Visit>& visits) {
  for (const Visit& v : visits) {
    for (int k = 0; k < v.count; ++k) {
      ds->Add(entity, v.cell.CenterLatLng(), v.window * kWindow + 1 + k);
    }
  }
}

// The signature of entity 0 of a one-entity dataset over [lo, end),
// checked against the reference on the way out.
DenseSignature SignatureOf(const std::vector<Visit>& visits, int64_t lo,
                         int64_t end, int step, int level) {
  LocationDataset ds("visits");
  AddVisits(&ds, 0, visits);
  ds.Finalize();
  const HistoryConfig hc = Config(visits.front().cell.level());
  const LinkageContext ctx = LinkageContext::Build(ds, ds, hc);
  const LshWindowSpan span{lo, end};
  const DenseSignature sig =
      BuildDense(ctx.store_e, ctx.vocab, 0, span, step, level);
  EXPECT_EQ(sig.cells,
            ReferenceSignature(ds.RecordsOf(0), hc, span, step, level).cells);
  return sig;
}

TEST(Signature, PaperIllustrativeExample) {
  // Fig. 3: 12 leaf windows, queries of 3 windows -> signature length 4.
  // "Circle" dominates query 1 for entity u (3 visits vs 2).
  const CellId circle = Cell(12, 100, 100);
  const CellId square = Cell(12, 200, 200);
  const DenseSignature sig = SignatureOf(
      {
          {0, circle, 1}, {0, square, 1}, {1, circle, 1}, {1, square, 1},
          {2, circle, 1},                                    // query 1: c=3,s=2
          {3, square, 1}, {4, square, 1}, {5, circle, 1},    // query 2: s=2,c=1
          // query 3 (windows 6-8): empty -> placeholder
          {9, circle, 1}, {10, circle, 1}, {11, circle, 1},  // query 4: c=3
      },
      0, 12, 3, 12);
  ASSERT_EQ(sig.size(), 4u);
  EXPECT_EQ(sig.cells[0], circle.raw());
  EXPECT_EQ(sig.cells[1], square.raw());
  EXPECT_TRUE(sig.IsPlaceholder(2));
  EXPECT_EQ(sig.cells[3], circle.raw());
}

TEST(Signature, DominatingCellPicksMaxCount) {
  const CellId a = Cell(12, 10, 10);
  const CellId b = Cell(12, 20, 20);
  const std::vector<Visit> visits = {{0, a, 3}, {0, b, 2}, {1, b, 4}};
  EXPECT_EQ(SignatureOf(visits, 0, 2, 1, 12).cells,
            (std::vector<uint64_t>{a.raw(), b.raw()}));  // 3 vs 2, then b
  EXPECT_EQ(SignatureOf(visits, 0, 2, 2, 12).cells,
            (std::vector<uint64_t>{b.raw()}));  // 3 vs 6 over both windows
}

TEST(Signature, TiesBreakTowardTheSmallerCell) {
  const CellId a = Cell(12, 10, 10);
  const CellId b = Cell(12, 20, 20);
  EXPECT_EQ(SignatureOf({{0, a, 2}, {0, b, 2}}, 0, 1, 1, 12).cells[0],
            std::min(a, b).raw());
  EXPECT_EQ(SignatureOf({{0, b, 2}, {1, a, 2}}, 0, 2, 2, 12).cells[0],
            std::min(a, b).raw());
}

TEST(Signature, CoarserSpatialLevelAggregates) {
  // Two sibling leaf cells with 2+2 records vs a distant cell with 3: at
  // the leaf level the distant cell dominates, at the parent level the
  // siblings' combined count (4) wins.
  const CellId parent = Cell(11, 100, 100);
  const CellId far = Cell(12, 1000, 1000);
  const std::vector<Visit> visits = {
      {0, parent.Child(0), 2}, {0, parent.Child(1), 2}, {0, far, 3}};
  EXPECT_EQ(SignatureOf(visits, 0, 1, 1, 12).cells[0], far.raw());
  EXPECT_EQ(SignatureOf(visits, 0, 1, 1, 11).cells[0], parent.raw());
}

TEST(Signature, SparseWindowsLandInTheirSteps) {
  const CellId a = Cell(10, 5, 5);
  const CellId b = Cell(10, 6, 6);
  // Windows -100, 0 and 1000 over [-100, 1001) in steps of 100: step 0
  // holds -100, step 1 holds 0, step 11 holds 1000, the rest are empty.
  const DenseSignature sig =
      SignatureOf({{-100, a, 1}, {0, b, 2}, {1000, a, 5}}, -100, 1001, 100,
                  10);
  ASSERT_EQ(sig.size(), 12u);
  EXPECT_EQ(sig.cells[0], a.raw());
  EXPECT_EQ(sig.cells[1], b.raw());
  EXPECT_EQ(sig.cells[11], a.raw());
  for (size_t q = 2; q < 11; ++q) EXPECT_TRUE(sig.IsPlaceholder(q)) << q;
}

TEST(Signature, DuplicateVisitsAreSummed) {
  // Two visits to one (window, cell) bin count as one bin of 2 + 5
  // records, which beats a cell with 6.
  const CellId a = Cell(12, 1, 1);
  const CellId b = Cell(12, 2, 2);
  EXPECT_EQ(SignatureOf({{3, a, 2}, {3, b, 6}, {3, a, 5}}, 3, 4, 1, 12)
                .cells[0],
            a.raw());
}

TEST(Signature, PartialLastStepIsQueried) {
  // [0, 10) in steps of 4: the last step covers windows 8 and 9 only.
  const CellId a = Cell(12, 1, 1);
  const CellId b = Cell(12, 2, 2);
  const DenseSignature sig =
      SignatureOf({{0, a, 1}, {9, b, 2}, {9, a, 1}}, 0, 10, 4, 12);
  EXPECT_EQ(sig.cells, (std::vector<uint64_t>{a.raw(), kPlaceholder,
                                              b.raw()}));
}

TEST(Signature, QueriesAlignAcrossHistories) {
  // Two entities over different window subsets must produce signatures
  // whose positions refer to the same query ranges.
  const CellId a = Cell(12, 1, 1);
  const CellId b = Cell(12, 2, 2);
  const DenseSignature s1 = SignatureOf({{0, a, 1}, {5, b, 1}}, 0, 6, 3, 12);
  const DenseSignature s2 = SignatureOf({{1, a, 1}, {4, b, 1}}, 0, 6, 3, 12);
  EXPECT_EQ(s1.cells, (std::vector<uint64_t>{a.raw(), b.raw()}));
  EXPECT_EQ(s2.cells, s1.cells);
}

TEST(Signature, StepLargerThanSpanYieldsSingleQuery) {
  EXPECT_EQ(SignatureOf({{0, Cell(12, 1, 1), 1}}, 0, 3, 100, 12).size(), 1u);
}

TEST(Signature, EmptySpanYieldsEmptySignature) {
  EXPECT_EQ(SignatureOf({{0, Cell(12, 1, 1), 1}}, 0, 0, 4, 12).size(), 0u);
}

TEST(Signature, EmptyEntityIsAllPlaceholders) {
  LocationDataset ds("one");
  AddVisits(&ds, 1, {{0, Cell(12, 1, 1), 1}, {9, Cell(12, 2, 2), 1}});
  ds.Finalize();
  LinkageContext ctx = LinkageContext::Build(ds, ds, Config());
  // An append without bins leaves entity 7 in the store with no history.
  ctx.store_e.Append(7, {}, 0);
  ctx.Compact();
  const EntityIdx empty = *ctx.store_e.IndexOf(7);
  ASSERT_EQ(ctx.store_e.num_bins(empty), 0u);
  EXPECT_TRUE(BuildSignature(ctx.store_e, ctx.vocab, empty,
                             GlobalWindowSpan(ctx), 2, 12)
                  .empty());
  const DenseSignature sig =
      BuildDense(ctx.store_e, ctx.vocab, empty, GlobalWindowSpan(ctx), 2, 12);
  ASSERT_EQ(sig.size(), 5u);
  for (size_t q = 0; q < sig.size(); ++q) EXPECT_TRUE(sig.IsPlaceholder(q));
}

TEST(Signature, MatchesReferenceOnRandomHistories) {
  // Random leaf visits around a few cells, so steps mix many windows,
  // repeated cells and ties, at every lift between leaf and level 8.
  Rng rng(11);
  LocationDataset a("a"), b("b");
  for (LocationDataset* ds : {&a, &b}) {
    for (EntityId e = 0; e < 12; ++e) {
      for (int k = 0; k < 80; ++k) {
        const CellId leaf =
            Cell(14, 8000 + rng.NextUint64(12), 8000 + rng.NextUint64(12));
        ds->Add(e, leaf.CenterLatLng(),
                rng.NextInt64(-60, 60) * kWindow + rng.NextInt64(0, kWindow));
      }
    }
    ds->Finalize();
  }
  for (const int step : {1, 3, 7, 48}) {
    for (const int level : {8, 11, 13, 14}) {
      ExpectMatchesReference(a, b, Config(14), step, level);
    }
  }
}

TEST(Signature, MatchesReferenceOnTheSweepWorkloads) {
  CommuteGeneratorOptions commute =
      CommuteOptionsForScale(BenchScale::kSmall);
  commute.num_commuters = 30;
  commute.duration_days = 3.0;
  CheckinGeneratorOptions checkin = CheckinOptionsForScale(BenchScale::kSmall);
  checkin.num_users = 120;
  CabGeneratorOptions cab = CabOptionsForScale(BenchScale::kSmall);
  cab.num_taxis = 12;
  cab.duration_days = 1.0;
  const LocationDataset workloads[] = {GenerateCommuteDataset(commute),
                                       GenerateCheckinDataset(checkin),
                                       GenerateCabDataset(cab)};
  for (const LocationDataset& master : workloads) {
    PairSampleOptions sampling;  // as many entities as the master allows
    sampling.seed = 5;
    auto pair = SampleLinkedPair(master, sampling);
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    const SlimConfig defaults;  // the stock LSH operating point
    ExpectMatchesReference(pair->a, pair->b, defaults.history,
                           defaults.lsh.temporal_step_windows,
                           defaults.lsh.signature_spatial_level);
    ExpectMatchesReference(pair->a, pair->b, Config(16), 48, 16);
  }
}

TEST(Signature, MatchesReferenceForRegionRecords) {
  // Region records fan out over every covered leaf cell; each copy counts.
  Rng rng(12);
  LocationDataset a("a"), b("b");
  for (LocationDataset* ds : {&a, &b}) {
    for (EntityId e = 0; e < 6; ++e) {
      for (int k = 0; k < 20; ++k) {
        ds->Add(e, testing::RandomPointInBox(&rng),
                rng.NextInt64(0, 40) * kWindow);
      }
    }
    ds->Finalize();
  }
  HistoryConfig hc = Config(14);
  hc.region_radius_meters = 1500.0;
  for (const int level : {10, 14}) ExpectMatchesReference(a, b, hc, 4, level);
}

TEST(Banding, NumBandsMatchesLambertSizing) {
  // b = e^{W(-s ln t)} rounded into [1, s].
  for (const auto& [s, t] : std::vector<std::pair<size_t, double>>{
           {4, 0.6}, {16, 0.6}, {64, 0.5}, {100, 0.8}, {8, 0.2}}) {
    const int b = ComputeNumBands(s, t);
    EXPECT_GE(b, 1);
    EXPECT_LE(b, static_cast<int>(s));
    const double exact = std::exp(
        LambertW0(-static_cast<double>(s) * std::log(t)));
    EXPECT_NEAR(b, exact, 0.51) << "s=" << s << " t=" << t;
  }
}

TEST(Banding, MoreBandsForLowerThresholds) {
  // Lower t -> hash more aggressively (more bands, shorter rows).
  EXPECT_GE(ComputeNumBands(64, 0.3), ComputeNumBands(64, 0.8));
}

TEST(Banding, CollisionProbabilityIsAnSCurve) {
  const int r = 4, b = 16;
  double prev = -1.0;
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    const double p = BandCollisionProbability(t, r, b);
    EXPECT_GE(p, prev - 1e-12);  // monotone
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_NEAR(BandCollisionProbability(0.0, r, b), 0.0, 1e-12);
  EXPECT_NEAR(BandCollisionProbability(1.0, r, b), 1.0, 1e-12);
  // Around the approximate threshold the curve is in its steep middle.
  const double t_star = ApproximateThreshold(r, b);
  const double p_star = BandCollisionProbability(t_star, r, b);
  EXPECT_GT(p_star, 0.3);
  EXPECT_LT(p_star, 0.9);
}

TEST(Banding, ApproximateThresholdFormula) {
  EXPECT_NEAR(ApproximateThreshold(2, 4), std::pow(0.25, 0.5), 1e-12);
  EXPECT_NEAR(ApproximateThreshold(5, 20), std::pow(0.05, 0.2), 1e-12);
}

}  // namespace
}  // namespace slim
