#include "lsh/lsh_index.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/candidates.h"
#include "data/cab_generator.h"
#include "test_util.h"

namespace slim {
namespace {

constexpr int64_t kWindow = 900;

HistoryConfig HConfig(int level = 16) {
  HistoryConfig c;
  c.spatial_level = level;
  c.window_seconds = kWindow;
  return c;
}

LshConfig LConfig() {
  LshConfig c;
  c.similarity_threshold = 0.6;
  c.signature_spatial_level = 14;
  c.temporal_step_windows = 4;
  c.num_buckets = 4096;
  return c;
}

std::vector<LshIndex::Entry> Entries(const LinkageContext& ctx,
                                     const HistoryStore& store,
                                     const LshConfig& lc) {
  const LshWindowSpan span = GlobalWindowSpan(ctx);
  std::vector<LshIndex::Entry> out;
  for (EntityIdx u = 0; u < store.size(); ++u) {
    out.push_back({store.entity_id(u),
                   BuildSignature(store, ctx.vocab, u, span,
                                  lc.temporal_step_windows,
                                  lc.signature_spatial_level)});
  }
  return out;
}

// The index over dataset a (left) and b (right), from signatures over the
// pair's shared query grid.
LshIndex BuildIndex(const LocationDataset& a, const LocationDataset& b,
                    const LshConfig& lc = LConfig()) {
  const LinkageContext ctx = LinkageContext::Build(a, b, HConfig());
  return LshIndex::Build(Entries(ctx, ctx.store_e, lc),
                         Entries(ctx, ctx.store_i, lc), lc);
}

TEST(LshIndex, EmptySidesProduceNoCandidates) {
  const LshIndex idx = LshIndex::Build({}, {}, LConfig());
  EXPECT_EQ(idx.total_candidate_pairs(), 0u);
  EXPECT_TRUE(idx.CandidatesFor(1).empty());
}

TEST(LshIndex, IdenticalBehaviourCollides) {
  // Entities with the same trajectory on both sides must be candidates.
  Rng rng(1);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 8; ++k) {
    anchors.push_back(testing::RandomPointInBox(&rng));
  }
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 24, kWindow);
  const LshIndex idx = BuildIndex(ds, ds);
  for (const EntityId id : ds.entity_ids()) {
    const auto& cands = idx.CandidatesFor(id);
    EXPECT_TRUE(std::binary_search(cands.begin(), cands.end(), id))
        << "entity " << id << " does not see itself";
  }
}

TEST(LshIndex, DisjointPlacesRarelyCollide) {
  // Left entities live in SF, right entities in (translated) LA: their
  // dominating cells never match, so candidate lists stay empty.
  Rng rng(2);
  std::vector<LatLng> sf, la;
  for (int k = 0; k < 6; ++k) {
    const LatLng p = testing::RandomPointInBox(&rng);
    sf.push_back(p);
    la.push_back({p.lat_deg - 3.0, p.lng_deg + 4.0});
  }
  const LocationDataset ds_e = testing::MakeAnchoredDataset(sf, 24, kWindow);
  const LocationDataset ds_i = testing::MakeAnchoredDataset(la, 24, kWindow);
  const LshIndex idx = BuildIndex(ds_e, ds_i);
  EXPECT_EQ(idx.total_candidate_pairs(), 0u);
}

TEST(LshIndex, BandGeometryCoversSignature) {
  Rng rng(3);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 4; ++k) {
    anchors.push_back(testing::RandomPointInBox(&rng));
  }
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 48, kWindow);
  const LshIndex idx = BuildIndex(ds, ds);
  EXPECT_GT(idx.signature_size(), 0u);
  EXPECT_GE(idx.num_bands(), 1);
  EXPECT_GE(idx.rows_per_band(), 1);
  EXPECT_GE(static_cast<size_t>(idx.num_bands()) *
                static_cast<size_t>(idx.rows_per_band()),
            idx.signature_size());
}

TEST(LshIndex, SignaturesAccessibleAndAligned) {
  Rng rng(4);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 3; ++k) {
    anchors.push_back(testing::RandomPointInBox(&rng));
  }
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 12, kWindow);
  const LshIndex idx = BuildIndex(ds, ds);
  const LshSignature* left = idx.LeftSignature(0);
  const LshSignature* right = idx.RightSignature(0);
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);
  EXPECT_EQ(left->size(), idx.signature_size());
  EXPECT_DOUBLE_EQ(SignatureSimilarity(*left, *right), 1.0);
  EXPECT_EQ(idx.LeftSignature(999), nullptr);
}

TEST(LshIndex, CandidateRecallForSimilarPairsIsHigh) {
  // Sample a cab workload twice (the linkage setting): for most entities
  // the true counterpart must be among the LSH candidates.
  CabGeneratorOptions gopt;
  gopt.num_taxis = 30;
  gopt.duration_days = 2.0;
  gopt.record_interval_seconds = 300.0;
  const LocationDataset master = GenerateCabDataset(gopt);

  // Two half-sampled sides with identical entity ids (master ids).
  Rng rng(7);
  LocationDataset a("a"), b("b");
  for (const Record& r : master.records()) {
    if (rng.NextBernoulli(0.5)) a.Add(r);
    if (rng.NextBernoulli(0.5)) b.Add(r);
  }
  a.Finalize();
  b.Finalize();

  LshConfig lc = LConfig();
  // Operating point found on this workload (cf. the Fig. 8 sweep):
  // level-10 signatures over 2-hour queries with t = 0.4 keep full recall
  // while pruning ~90% of the pair space.
  lc.signature_spatial_level = 10;
  lc.temporal_step_windows = 8;
  lc.similarity_threshold = 0.4;
  const LshIndex idx = BuildIndex(a, b, lc);

  size_t hits = 0, total = 0;
  for (const EntityId id : a.entity_ids()) {
    if (!std::binary_search(b.entity_ids().begin(), b.entity_ids().end(),
                            id)) {
      continue;
    }
    ++total;
    const auto& cands = idx.CandidatesFor(id);
    hits += std::binary_search(cands.begin(), cands.end(), id);
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.8);
  // And it must actually filter: far fewer candidates than the full cross
  // product.
  EXPECT_LT(idx.total_candidate_pairs(),
            static_cast<uint64_t>(a.num_entities()) * b.num_entities());
}

TEST(LshIndex, CandidateListsAreSortedAndUnique) {
  Rng rng(8);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 10; ++k)
    anchors.push_back(testing::RandomPointInBox(&rng));
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 24, kWindow);
  const LshIndex idx = BuildIndex(ds, ds);
  for (const EntityId id : ds.entity_ids()) {
    const auto& cands = idx.CandidatesFor(id);
    EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end()));
    EXPECT_EQ(std::adjacent_find(cands.begin(), cands.end()), cands.end());
  }
}

TEST(LshIndex, MoreBucketsNeverAddCandidates) {
  // Hash collisions only merge buckets; growing the bucket array can only
  // shrink (or keep) the candidate sets.
  Rng rng(9);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 12; ++k)
    anchors.push_back(testing::RandomPointInBox(&rng));
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 24, kWindow);
  LshConfig small = LConfig();
  small.num_buckets = 16;
  LshConfig big = LConfig();
  big.num_buckets = 1 << 20;
  const LshIndex idx_small = BuildIndex(ds, ds, small);
  const LshIndex idx_big = BuildIndex(ds, ds, big);
  EXPECT_GE(idx_small.total_candidate_pairs(),
            idx_big.total_candidate_pairs());
}

}  // namespace
}  // namespace slim
