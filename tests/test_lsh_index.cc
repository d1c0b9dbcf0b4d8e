// Banded LSH (paper Sec. 4): the flat band stage of lsh/lsh_index.h and
// core/candidates.h — sparse bucket ids, the sorted bucket table and the
// candidate CSR — pinned to a brute-force reference built from dense
// signatures, per-band hashing and a pairwise collision check.
#include "lsh/lsh_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "slim.h"
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

// ---- The reference -------------------------------------------------------

constexpr uint64_t kPlaceholder = 0;

// The dense signature of entity u: one raw cell per query step, from a
// std::map of lifted-cell counts per step (ties to the smaller cell),
// kPlaceholder where the step holds no records.
std::vector<uint64_t> DenseSignature(const HistoryStore& store,
                                     const BinVocabulary& vocab, EntityIdx u,
                                     const LshWindowSpan& span, int step,
                                     int level) {
  if (span.empty()) return {};
  const int64_t steps = (span.end - span.lo + step - 1) / step;
  std::vector<std::map<CellId, uint32_t>> counts(static_cast<size_t>(steps));
  const std::span<const int64_t> windows = store.windows(u);
  for (size_t k = 0; k < windows.size(); ++k) {
    const auto [begin, end] = store.WindowBinRange(u, k);
    for (uint32_t p = begin; p < end; ++p) {
      counts[static_cast<size_t>((windows[k] - span.lo) / step)]
            [vocab.cell(store.bin_ids()[p]).Parent(level)] +=
          store.bin_counts()[p];
    }
  }
  std::vector<uint64_t> sig;
  for (const auto& step_counts : counts) {
    uint64_t best = kPlaceholder;
    uint32_t best_count = 0;
    for (const auto& [cell, count] : step_counts) {
      if (count > best_count) {
        best = cell.raw();
        best_count = count;
      }
    }
    sig.push_back(best);
  }
  return sig;
}

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The band layout of the paper: s = ceil(span / step), b from the
// Lambert-W sizing, r = ceil(s / b).
struct Layout {
  size_t size = 0;
  size_t bands = 0;
  size_t rows = 0;
};

Layout LayoutOf(const LshWindowSpan& span, const LshConfig& lc) {
  Layout l;
  if (span.empty()) return l;
  const int64_t step = lc.temporal_step_windows;
  l.size = static_cast<size_t>((span.end - span.lo + step - 1) / step);
  l.bands = static_cast<size_t>(
      ComputeNumBands(l.size, lc.similarity_threshold));
  l.rows = (l.size + l.bands - 1) / l.bands;
  return l;
}

// Per band of a dense signature: its bucket (hash % num_buckets), or
// nullopt when every row of the band is a placeholder.
std::vector<std::optional<uint64_t>> BandBuckets(
    const std::vector<uint64_t>& sig, const Layout& l, const LshConfig& lc) {
  std::vector<std::optional<uint64_t>> out(l.bands);
  for (size_t band = 0; band < l.bands; ++band) {
    const size_t row_begin = band * l.rows;
    uint64_t h = lc.hash_seed ^ Mix(row_begin * 0x9e3779b97f4a7c15ULL);
    bool any = false;
    for (size_t row = row_begin; row < row_begin + l.rows && row < sig.size();
         ++row) {
      if (sig[row] == kPlaceholder) continue;
      any = true;
      h = Mix(h ^ Mix((row + 1) * 0xd1b54a32d192ed03ULL) ^ sig[row]);
    }
    if (any) out[band] = h % lc.num_buckets;
  }
  return out;
}

// Per left entity of the context, the ascending right EntityIdx whose band
// buckets collide with it in at least one band.
std::vector<std::vector<EntityIdx>> ReferenceCandidates(
    const LinkageContext& ctx, const LshConfig& lc) {
  const LshWindowSpan span = GlobalWindowSpan(ctx);
  const Layout l = LayoutOf(span, lc);
  const auto buckets = [&](const HistoryStore& store) {
    std::vector<std::vector<std::optional<uint64_t>>> out;
    for (EntityIdx u = 0; u < store.size(); ++u) {
      out.push_back(BandBuckets(
          DenseSignature(store, ctx.vocab, u, span, lc.temporal_step_windows,
                         lc.signature_spatial_level),
          l, lc));
    }
    return out;
  };
  const auto left = buckets(ctx.store_e);
  const auto right = buckets(ctx.store_i);
  std::vector<std::vector<EntityIdx>> lists(left.size());
  for (size_t u = 0; u < left.size(); ++u) {
    for (size_t v = 0; v < right.size(); ++v) {
      for (size_t band = 0; band < l.bands; ++band) {
        if (left[u][band].has_value() && left[u][band] == right[v][band]) {
          lists[u].push_back(static_cast<EntityIdx>(v));
          break;
        }
      }
    }
  }
  return lists;
}

std::vector<EntityIdx> ToVector(std::span<const EntityIdx> span) {
  return {span.begin(), span.end()};
}

// [n * i / parts, n * (i + 1) / parts): part i of an even split.
std::pair<EntityIdx, EntityIdx> Part(size_t n, size_t i, size_t parts) {
  return {static_cast<EntityIdx>(n * i / parts),
          static_cast<EntityIdx>(n * (i + 1) / parts)};
}

// The monolithic generator and every block of the L x K plans, at 1 and 4
// threads, equal the reference (restricted to the block's right range).
// Adds the reference's pair count to *pairs.
void ExpectMatchesReference(const LinkageContext& ctx, const LshConfig& lc,
                            uint64_t* pairs = nullptr) {
  const std::vector<std::vector<EntityIdx>> want =
      ReferenceCandidates(ctx, lc);
  uint64_t total = 0;
  for (const auto& list : want) total += list.size();
  if (pairs != nullptr) *pairs += total;
  for (const int threads : {1, 4}) {
    const auto gen = MakeCandidateGenerator(CandidateKind::kLsh, ctx, lc,
                                            GridBlockingConfig{}, threads);
    ASSERT_EQ(gen->total_candidate_pairs(), total) << threads;
    for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
      ASSERT_EQ(ToVector(gen->CandidatesFor(u)), want[u])
          << "left " << u << " threads " << threads;
    }
    for (const auto& [lparts, rparts] :
         {std::pair{1, 1}, std::pair{2, 4}, std::pair{3, 7}}) {
      for (int li = 0; li < lparts; ++li) {
        const auto [lb, le] = Part(ctx.store_e.size(), li, lparts);
        for (int ri = 0; ri < rparts; ++ri) {
          const auto [rb, re] = Part(ctx.store_i.size(), ri, rparts);
          const auto block = MakeShardCandidateGenerator(
              CandidateKind::kLsh, ctx, lc, GridBlockingConfig{}, lb, le, rb,
              re, threads);
          for (EntityIdx u = lb; u < le; ++u) {
            std::vector<EntityIdx> restricted;
            for (const EntityIdx v : want[u]) {
              if (v >= rb && v < re) restricted.push_back(v);
            }
            ASSERT_EQ(ToVector(block->CandidatesFor(u)), restricted)
                << "left " << u << " block " << li << "x" << ri << " of "
                << lparts << "x" << rparts << " threads " << threads;
          }
        }
      }
    }
  }
}

// A sampled pair from each of the three slim_sweep generators.
const std::vector<LinkedPairSample>& SweepPairs() {
  static const std::vector<LinkedPairSample> pairs = [] {
    CommuteGeneratorOptions commute =
        CommuteOptionsForScale(BenchScale::kSmall);
    commute.num_commuters = 30;
    commute.duration_days = 3.0;
    CheckinGeneratorOptions checkin =
        CheckinOptionsForScale(BenchScale::kSmall);
    checkin.num_users = 120;
    CabGeneratorOptions cab = CabOptionsForScale(BenchScale::kSmall);
    cab.num_taxis = 12;
    cab.duration_days = 1.0;
    std::vector<LinkedPairSample> out;
    for (const LocationDataset& master :
         {GenerateCommuteDataset(commute), GenerateCheckinDataset(checkin),
          GenerateCabDataset(cab)}) {
      PairSampleOptions sampling;  // as many entities as the master allows
      sampling.seed = 5;
      auto pair = SampleLinkedPair(master, sampling);
      EXPECT_TRUE(pair.ok()) << pair.status().ToString();
      out.push_back(std::move(pair.value()));
    }
    return out;
  }();
  return pairs;
}

// The index over dataset a (left) and b (right).
std::unique_ptr<CandidateGenerator> BuildIndex(
    const LinkageContext& ctx, const LshConfig& lc = LConfig()) {
  return MakeCandidateGenerator(CandidateKind::kLsh, ctx, lc,
                                GridBlockingConfig{});
}

// ---- Differential tests --------------------------------------------------

TEST(LshDifferential, SweepWorkloadsMatchTheReference) {
  const SlimConfig defaults;  // the stock operating point
  for (const LinkedPairSample& pair : SweepPairs()) {
    const LinkageContext ctx =
        LinkageContext::Build(pair.a, pair.b, defaults.history);
    uint64_t pairs = 0;
    for (const size_t buckets : {size_t{1}, size_t{16}, size_t{4096},
                                 size_t{1} << 20}) {
      for (const double t : {0.3, 0.5, 0.8}) {
        LshConfig lc = defaults.lsh;
        lc.num_buckets = buckets;
        lc.similarity_threshold = t;
        SCOPED_TRACE(::testing::Message()
                     << pair.a.name() << " buckets " << buckets << " t " << t);
        ExpectMatchesReference(ctx, lc, &pairs);
      }
    }
    EXPECT_GT(pairs, 0u) << pair.a.name();
  }
}

TEST(LshDifferential, PartialAndEmptyBandsMatchTheReference) {
  // Steps that leave a partial last band, and layouts whose trailing bands
  // lie wholly past the signature (all-placeholder bands).
  const LinkedPairSample& pair = SweepPairs()[1];  // sparse check-ins
  const SlimConfig defaults;
  const LinkageContext ctx =
      LinkageContext::Build(pair.a, pair.b, defaults.history);
  bool partial = false, trailing_empty = false;
  for (const int step : {1, 3, 5, 7, 13, 50}) {
    for (const double t : {0.3, 0.8}) {
      LshConfig lc = defaults.lsh;
      lc.temporal_step_windows = step;
      lc.similarity_threshold = t;
      const LshBanding banding = LshBanding::Of(GlobalWindowSpan(ctx), lc);
      const Layout l = LayoutOf(GlobalWindowSpan(ctx), lc);
      ASSERT_EQ(banding.signature_size, l.size);
      ASSERT_EQ(banding.num_bands, l.bands);
      ASSERT_EQ(banding.rows_per_band, l.rows);
      partial |= l.size % l.rows != 0;
      trailing_empty |= (l.bands - 1) * l.rows >= l.size;
      SCOPED_TRACE(::testing::Message() << "step " << step << " t " << t);
      ExpectMatchesReference(ctx, lc);
    }
  }
  EXPECT_TRUE(partial);
  EXPECT_TRUE(trailing_empty);
}

TEST(LshDifferential, EmptyEntitiesAndEmptySides) {
  const LinkedPairSample& pair = SweepPairs()[0];
  const SlimConfig defaults;
  LinkageContext ctx = LinkageContext::Build(pair.a, pair.b, defaults.history);
  // Appends without bins leave entities with no history on both sides.
  ctx.store_e.Append(1u << 30, {}, 0);
  ctx.store_i.Append(1u << 30, {}, 0);
  ctx.Compact();
  ExpectMatchesReference(ctx, defaults.lsh);
  const EntityIdx empty = *ctx.store_e.IndexOf(1u << 30);
  const auto gen = BuildIndex(ctx, defaults.lsh);
  EXPECT_TRUE(gen->CandidatesFor(empty).empty());

  // Empty blocks on either side.
  const auto none = MakeShardCandidateGenerator(
      CandidateKind::kLsh, ctx, defaults.lsh, GridBlockingConfig{}, 0,
      static_cast<EntityIdx>(ctx.store_e.size()), 3, 3);
  EXPECT_EQ(none->total_candidate_pairs(), 0u);
  EXPECT_TRUE(none->CandidatesFor(0).empty());
  const auto no_left = MakeShardCandidateGenerator(
      CandidateKind::kLsh, ctx, defaults.lsh, GridBlockingConfig{}, 5, 5, 0,
      static_cast<EntityIdx>(ctx.store_i.size()));
  EXPECT_EQ(no_left->total_candidate_pairs(), 0u);

  // And the gather itself, on empty sides.
  const Csr<uint64_t> empty_side;
  Csr<uint64_t> one;
  one.values = {7};
  one.offsets = {0, 1};
  EXPECT_EQ(GatherLshCandidates(empty_side, empty_side, 0).rows(), 0u);
  EXPECT_EQ(GatherLshCandidates(empty_side, one, 0).rows(), 0u);
  const Csr<uint32_t> lonely = GatherLshCandidates(one, empty_side, 0);
  ASSERT_EQ(lonely.rows(), 1u);
  EXPECT_TRUE(lonely.row(0).empty());
  EXPECT_EQ(ToVector(GatherLshCandidates(one, one, 40).row(0)),
            std::vector<EntityIdx>{40});
}

TEST(LshDifferential, IncrementalEpochsReuseBucketIds) {
  // Epoch 1 holds each side's earliest and latest records (so the span is
  // final) and half the entities; epoch 2 brings the rest, epoch 3 one
  // more record per entity of a few, epoch 4 nothing. Clean entities carry
  // their bucket ids over, and every epoch's candidates equal the
  // reference over the epoch's context.
  const LinkedPairSample& pair = SweepPairs()[1];
  SlimConfig config;
  config.threads = 4;
  IncrementalLinker linker(config);
  const auto epoch_parts = [](const LocationDataset& ds) {
    std::vector<std::vector<Record>> parts(3);
    const auto [first, last] = std::minmax_element(
        ds.records().begin(), ds.records().end(),
        [](const Record& a, const Record& b) {
          return a.timestamp < b.timestamp;
        });
    for (const Record& r : ds.records()) {
      if (&r == &*first || &r == &*last || r.entity % 2 == 0) {
        parts[0].push_back(r);
      } else if (r.entity % 5 == 1 && parts[2].size() < 8) {
        parts[2].push_back(r);  // held back: a count or bin append later
      } else {
        parts[1].push_back(r);
      }
    }
    return parts;
  };
  const auto parts_e = epoch_parts(pair.a);
  const auto parts_i = epoch_parts(pair.b);
  uint64_t reused = 0;
  for (size_t epoch = 0; epoch < 4; ++epoch) {
    if (epoch < 3) {
      linker.Ingest(LinkageSide::kE, parts_e[epoch]);
      linker.Ingest(LinkageSide::kI, parts_i[epoch]);
    }
    auto result = linker.LinkEpoch();
    ASSERT_TRUE(result.ok());
    reused += result->incremental.signatures_reused;
    uint64_t want = 0;
    for (const auto& list : ReferenceCandidates(linker.context(), config.lsh)) {
      want += list.size();
    }
    EXPECT_EQ(result->linkage.candidate_pairs, want) << "epoch " << epoch + 1;
    if (epoch == 3) {
      EXPECT_EQ(result->incremental.signatures_reused,
                linker.context().store_e.size() +
                    linker.context().store_i.size());
    }
  }
  EXPECT_GT(reused, 0u);
}

// ---- Band stage properties -----------------------------------------------

TEST(LshIndex, IdenticalBehaviourCollides) {
  // Entities with the same trajectory on both sides must be candidates.
  Rng rng(1);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 8; ++k) {
    anchors.push_back(testing::RandomPointInBox(&rng));
  }
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 24, kWindow);
  const LinkageContext ctx = LinkageContext::Build(ds, ds, HConfig());
  const auto idx = BuildIndex(ctx);
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const EntityIdx self = *ctx.store_i.IndexOf(ctx.store_e.entity_id(u));
    const auto cands = idx->CandidatesFor(u);
    EXPECT_TRUE(std::binary_search(cands.begin(), cands.end(), self))
        << "entity " << u << " does not see itself";
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
  const LinkageContext ctx = LinkageContext::Build(ds_e, ds_i, HConfig());
  EXPECT_EQ(BuildIndex(ctx)->total_candidate_pairs(), 0u);
}

TEST(LshIndex, BandGeometryCoversSignature) {
  for (const int64_t width : {1, 7, 48, 1000}) {
    const LshBanding b = LshBanding::Of({-5, -5 + width}, LConfig());
    EXPECT_EQ(b.signature_size, static_cast<uint64_t>((width + 3) / 4));
    EXPECT_GE(b.num_bands, 1u);
    EXPECT_GE(b.rows_per_band, 1u);
    EXPECT_GE(b.num_bands * b.rows_per_band, b.signature_size);
  }
  EXPECT_EQ(LshBanding::Of({3, 3}, LConfig()).num_bands, 0u);
}

TEST(LshIndex, HugeSpansDoNotOverflowTheLayout) {
  LshConfig lc = LConfig();
  lc.temporal_step_windows = 1 << 30;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const LshBanding b = LshBanding::Of({kMin, kMax}, lc);
  EXPECT_EQ(b.signature_size, uint64_t{1} << 34);
}

TEST(LshIndex, BucketIdsNameTheBandAndAscend) {
  LshConfig lc = LConfig();
  lc.num_buckets = 10;
  const LshBanding b = LshBanding::Of({0, 40}, lc);  // 10 steps
  ASSERT_GE(b.num_bands, 2u);
  std::vector<uint64_t> ids;
  const std::vector<SignatureStep> sig = {{0, 11}, {1, 12}, {9, 13}};
  b.AppendBucketIds(sig, &ids);
  std::vector<uint64_t> bands;
  for (const SignatureStep& s : sig) bands.push_back(s.step / b.rows_per_band);
  bands.erase(std::unique(bands.begin(), bands.end()), bands.end());
  ASSERT_EQ(ids.size(), bands.size());
  for (size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(ids[k] / lc.num_buckets, bands[k]);
  }
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  ids.clear();
  b.AppendBucketIds({}, &ids);
  EXPECT_TRUE(ids.empty());
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
  const LinkageContext ctx = LinkageContext::Build(a, b, HConfig());
  const auto idx = BuildIndex(ctx, lc);

  size_t hits = 0, total = 0;
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const auto v = ctx.store_i.IndexOf(ctx.store_e.entity_id(u));
    if (!v.has_value()) continue;
    ++total;
    const auto cands = idx->CandidatesFor(u);
    hits += std::binary_search(cands.begin(), cands.end(), *v);
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.8);
  // And it must actually filter: far fewer candidates than the full cross
  // product.
  EXPECT_LT(idx->total_candidate_pairs(),
            static_cast<uint64_t>(a.num_entities()) * b.num_entities());
}

TEST(LshIndex, CandidateListsAreSortedAndUnique) {
  Rng rng(8);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 10; ++k)
    anchors.push_back(testing::RandomPointInBox(&rng));
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 24, kWindow);
  const LinkageContext ctx = LinkageContext::Build(ds, ds, HConfig());
  const auto idx = BuildIndex(ctx);
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const auto cands = idx->CandidatesFor(u);
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
  const LinkageContext ctx = LinkageContext::Build(ds, ds, HConfig());
  LshConfig small = LConfig();
  small.num_buckets = 16;
  LshConfig big = LConfig();
  big.num_buckets = 1 << 20;
  EXPECT_GE(BuildIndex(ctx, small)->total_candidate_pairs(),
            BuildIndex(ctx, big)->total_candidate_pairs());
}

TEST(LshConfigCheck, RejectsOutOfRangeValues) {
  EXPECT_TRUE(ValidateLshConfig(LConfig(), 16).ok());
  LshConfig lc = LConfig();
  lc.num_buckets = kMaxLshBuckets;
  EXPECT_TRUE(ValidateLshConfig(lc, 16).ok());
  const auto bad = [](auto mutate, int leaf_level = 16) {
    LshConfig c = LConfig();
    mutate(&c);
    const Status s = ValidateLshConfig(c, leaf_level);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  };
  bad([](LshConfig* c) { c->num_buckets = 0; });
  bad([](LshConfig* c) { c->num_buckets = kMaxLshBuckets + 1; });
  bad([](LshConfig* c) { c->num_buckets = static_cast<size_t>(-5); });
  bad([](LshConfig* c) { c->temporal_step_windows = 0; });
  bad([](LshConfig* c) { c->temporal_step_windows = -3; });
  bad([](LshConfig* c) { c->similarity_threshold = 0.0; });
  bad([](LshConfig* c) { c->similarity_threshold = 1.0; });
  bad([](LshConfig* c) { c->similarity_threshold = 1.5; });
  bad([](LshConfig* c) { c->similarity_threshold = std::nan(""); });
  bad([](LshConfig* c) { c->signature_spatial_level = -1; });
  bad([](LshConfig* c) { c->signature_spatial_level = 40; });
  bad([](LshConfig* c) { c->signature_spatial_level = 15; }, 14);
}

}  // namespace
}  // namespace slim
