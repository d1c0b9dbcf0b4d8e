// google-benchmark micro suites for the performance-critical primitives:
// spatial cells, bin pairing, the SIMD score kernels, context building,
// similarity scoring, LSH candidate generation, matching, and the GMM fit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <vector>

#include "slim.h"

namespace slim {
namespace {

// ---------------------------------------------------------------- geo ----

void BM_CellFromLatLng(benchmark::State& state) {
  Rng rng(1);
  std::vector<LatLng> pts;
  for (int i = 0; i < 1024; ++i) {
    pts.push_back({rng.NextDouble(-80, 80), rng.NextDouble(-180, 179)});
  }
  const int level = static_cast<int>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CellId::FromLatLng(pts[i++ & 1023], level));
  }
}
BENCHMARK(BM_CellFromLatLng)->Arg(8)->Arg(16)->Arg(24);

void BM_CellMinDistance(benchmark::State& state) {
  Rng rng(2);
  std::vector<CellId> cells;
  for (int i = 0; i < 1024; ++i) {
    cells.push_back(CellId::FromLatLng(
        {rng.NextDouble(30, 45), rng.NextDouble(-125, -110)}, 12));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MinDistanceMeters(cells[i & 1023], cells[(i + 7) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_CellMinDistance);

// ------------------------------------------------------- score kernel ----

// Args: {span length, kernel ordinal}. Skips (not fails) variants the CPU
// cannot run, so the suite stays portable.
constexpr ScoreKernel kKernelByOrdinal[] = {
    ScoreKernel::kScalar, ScoreKernel::kSse42, ScoreKernel::kAvx2};

// Two strictly ascending bursty spans of length n — runs of consecutive
// windows separated by idle gaps, each run shared or private to one side —
// the scoring loop's typical shape (see bench_kernel.cc).
template <typename T>
std::pair<std::vector<T>, std::vector<T>> KernelBenchSpans(size_t n,
                                                           uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> run_len(8, 48);
  std::uniform_int_distribution<int> gap(16, 256);
  std::uniform_int_distribution<int> owner(0, 2);
  std::vector<T> a, b;
  T value = 0;
  while (a.size() < n || b.size() < n) {
    value = static_cast<T>(value + static_cast<T>(gap(rng)));
    const int len = run_len(rng);
    const int who = owner(rng);
    const bool to_a = who != 2 && a.size() < n;
    const bool to_b = who != 1 && b.size() < n;
    for (int k = 0; k < len; ++k) {
      value = static_cast<T>(value + 1);
      if (to_a) a.push_back(value);
      if (to_b) b.push_back(value);
    }
  }
  return {std::move(a), std::move(b)};
}

void BM_KernelIntersectI64(benchmark::State& state) {
  const ScoreKernel kernel = kKernelByOrdinal[state.range(1)];
  if (!ScoreKernelSupported(kernel)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const ScoreKernelOps& ops = GetScoreKernelOps(kernel);
  const size_t n = static_cast<size_t>(state.range(0));
  const auto [a, b] = KernelBenchSpans<int64_t>(n, 12);
  std::vector<uint32_t> oa(n), ob(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.intersect_i64(a.data(), a.size(), b.data(),
                                               b.size(), oa.data(),
                                               ob.data()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(2 * n));
  state.SetLabel(ScoreKernelName(kernel));
}
BENCHMARK(BM_KernelIntersectI64)
    ->ArgsProduct({{64, 1024, 16384}, {0, 1, 2}});

void BM_KernelIntersectU32(benchmark::State& state) {
  const ScoreKernel kernel = kKernelByOrdinal[state.range(1)];
  if (!ScoreKernelSupported(kernel)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const ScoreKernelOps& ops = GetScoreKernelOps(kernel);
  const size_t n = static_cast<size_t>(state.range(0));
  const auto [a, b] = KernelBenchSpans<uint32_t>(n, 13);
  std::vector<uint32_t> oa(n), ob(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.intersect_u32(a.data(), a.size(), b.data(),
                                               b.size(), oa.data(),
                                               ob.data()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(2 * n));
  state.SetLabel(ScoreKernelName(kernel));
}
BENCHMARK(BM_KernelIntersectU32)
    ->ArgsProduct({{64, 1024, 16384}, {0, 1, 2}});

void BM_KernelIdfContributions(benchmark::State& state) {
  const ScoreKernel kernel = kKernelByOrdinal[state.range(1)];
  if (!ScoreKernelSupported(kernel)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const ScoreKernelOps& ops = GetScoreKernelOps(kernel);
  const size_t n = static_cast<size_t>(state.range(0));
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<double> idf(0.1, 14.0);
  std::uniform_int_distribution<uint32_t> bin(0, 4095);
  std::vector<double> idf_a(4096), idf_b(4096), out(n);
  for (auto& v : idf_a) v = idf(rng);
  for (auto& v : idf_b) v = idf(rng);
  std::vector<uint32_t> bins_a(n), bins_b(n);
  for (size_t k = 0; k < n; ++k) {
    bins_a[k] = bin(rng);
    bins_b[k] = bin(rng);
  }
  for (auto _ : state) {
    ops.idf_contributions(bins_a.data(), bins_b.data(), n, idf_a.data(),
                          idf_b.data(), 1.37, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(ScoreKernelName(kernel));
}
BENCHMARK(BM_KernelIdfContributions)
    ->ArgsProduct({{16, 256, 4096}, {0, 1, 2}});

void BM_KernelIntersectSkewedGallop(benchmark::State& state) {
  const ScoreKernel kernel = kKernelByOrdinal[state.range(0)];
  if (!ScoreKernelSupported(kernel)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const ScoreKernelOps& ops = GetScoreKernelOps(kernel);
  // 128:1 skew — IntersectSortedI64 takes the galloping path.
  const auto [big, _unused] = KernelBenchSpans<int64_t>(16384, 15);
  std::mt19937_64 rng(16);
  std::bernoulli_distribution keep(128.0 / 16384.0);
  std::vector<int64_t> small;
  for (const int64_t v : big) {
    if (keep(rng)) small.push_back(v);
  }
  std::vector<uint32_t> oa(small.size()), ob(small.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        IntersectSortedI64(ops, small.data(), small.size(), big.data(),
                           big.size(), oa.data(), ob.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(small.size() + big.size()));
  state.SetLabel(ScoreKernelName(kernel));
}
BENCHMARK(BM_KernelIntersectSkewedGallop)->Arg(0)->Arg(1)->Arg(2);

// --------------------------------------------------------- similarity ----

LocationDataset BenchCab(int taxis) {
  CabGeneratorOptions opt;
  opt.num_taxis = taxis;
  opt.duration_days = 1.0;
  opt.record_interval_seconds = 240.0;
  return GenerateCabDataset(opt);
}

void BM_ContextBuild(benchmark::State& state) {
  const LocationDataset ds = BenchCab(static_cast<int>(state.range(0)));
  HistoryConfig hc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LinkageContext::Build(ds, ds, hc));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.num_records()));
}
BENCHMARK(BM_ContextBuild)->Arg(8)->Arg(32);

// The INGEST layer: 1024-record appends, in time order as a stream
// arrives, into a context already holding the first half of the records,
// then the one Compact that folds them in.
void BM_AppendCompact(benchmark::State& state) {
  const LocationDataset ds = BenchCab(static_cast<int>(state.range(0)));
  std::vector<Record> records = ds.records();
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.timestamp != b.timestamp ? a.timestamp < b.timestamp
                                                : a.entity < b.entity;
            });
  const size_t half = records.size() / 2;
  LinkageContext base;
  base.AppendRecords(LinkageSide::kE, {records.data(), half});
  base.AppendRecords(LinkageSide::kI, {records.data(), half});
  base.Compact();
  constexpr size_t kBatch = 1024;
  for (auto _ : state) {
    state.PauseTiming();
    LinkageContext ctx = base;
    state.ResumeTiming();
    for (size_t k = half; k < records.size(); k += kBatch) {
      ctx.AppendRecords(LinkageSide::kE,
                        {records.data() + k,
                         std::min(kBatch, records.size() - k)});
    }
    benchmark::DoNotOptimize(ctx.Compact());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size() - half));
}
BENCHMARK(BM_AppendCompact)->Arg(8)->Arg(32);

void BM_SimilarityScorePair(benchmark::State& state) {
  const LocationDataset ds = BenchCab(16);
  HistoryConfig hc;
  const LinkageContext ctx = LinkageContext::Build(ds, ds, hc);
  const SimilarityEngine engine(ctx, SimilarityConfig{});
  SimilarityStats stats;
  size_t i = 0;
  const size_t n = ctx.store_e.size();
  for (auto _ : state) {
    const auto u = static_cast<EntityIdx>(i % n);
    const auto v = static_cast<EntityIdx>((i + 1) % n);
    benchmark::DoNotOptimize(engine.ScoreIndexed(u, v, &stats));
    ++i;
  }
}
BENCHMARK(BM_SimilarityScorePair);

void BM_MnnPairing(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(6);
  std::vector<double> dist(n * n);
  for (auto& d : dist) d = rng.NextDouble(0, 1e5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MutuallyNearestPairs(dist, n, n));
  }
}
BENCHMARK(BM_MnnPairing)->Arg(4)->Arg(16)->Arg(64);

// ----------------------------------------------------------------- lsh ----

// Signatures from the CSR store plus banding and candidate gathering.
void BM_LshCandidates(benchmark::State& state) {
  const LocationDataset ds = BenchCab(static_cast<int>(state.range(0)));
  HistoryConfig hc;
  hc.spatial_level = 16;
  const LinkageContext ctx = LinkageContext::Build(ds, ds, hc);
  LshConfig lc;
  lc.signature_spatial_level = 12;
  lc.temporal_step_windows = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeCandidateGenerator(
        CandidateKind::kLsh, ctx, lc, GridBlockingConfig{}));
  }
}
BENCHMARK(BM_LshCandidates)->Arg(16)->Arg(64);

// ------------------------------------------------------------- match ----

BipartiteGraph RandomGraph(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  BipartiteGraph g;
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v) {
      if (rng.NextBernoulli(density)) {
        g.AddEdge(static_cast<EntityId>(u), static_cast<EntityId>(1000 + v),
                  rng.NextDouble(0.1, 100.0));
      }
    }
  }
  return g;
}

void BM_GreedyMatching(benchmark::State& state) {
  const BipartiteGraph g =
      RandomGraph(static_cast<size_t>(state.range(0)), 0.3, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyMaxWeightMatching(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_GreedyMatching)->Arg(64)->Arg(256)->Arg(1024);

void BM_HungarianMatching(benchmark::State& state) {
  const BipartiteGraph g =
      RandomGraph(static_cast<size_t>(state.range(0)), 0.3, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HungarianMaxWeightMatching(g));
  }
}
BENCHMARK(BM_HungarianMatching)->Arg(16)->Arg(64)->Arg(128);

// ------------------------------------------------------------- stats ----

void BM_GmmFit(benchmark::State& state) {
  Rng rng(10);
  std::vector<double> values;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n / 2; ++i) values.push_back(rng.NextGaussian());
  for (int i = 0; i < n / 2; ++i) {
    values.push_back(50.0 + 5.0 * rng.NextGaussian());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitGmm1D(values));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GmmFit)->Arg(256)->Arg(4096);

void BM_StopThresholdDetection(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(100 + 20 * rng.NextGaussian());
  for (int i = 0; i < 500; ++i) {
    values.push_back(3000 + 400 * rng.NextGaussian());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DetectStopThreshold(values));
  }
}
BENCHMARK(BM_StopThresholdDetection);

// ------------------------------------------------------------ end-to-end --

void BM_SlimLinkEndToEnd(benchmark::State& state) {
  const LocationDataset master = BenchCab(24);
  PairSampleOptions opt;
  opt.entities_per_side = 12;
  auto sample = SampleLinkedPair(master, opt);
  SLIM_CHECK(sample.ok());
  SlimConfig cfg;
  cfg.threads = 1;
  const SlimLinker linker(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linker.Link(sample->a, sample->b));
  }
}
BENCHMARK(BM_SlimLinkEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slim

BENCHMARK_MAIN();
