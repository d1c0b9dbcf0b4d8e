// End-to-end pipeline scaling bench — the machine-readable perf record.
//
// Runs generate -> sample -> link on the SM-style check-in workload at
// several entity counts and thread counts, prints a per-stage timing table,
// and writes BENCH_pipeline.json (schema slim-bench-pipeline-v2): wall
// seconds per stage, peak process RSS at the end of each stage, speedup vs
// 1 thread, link counts. The v2 reader (bench_util.h) still accepts v1
// documents, so pre-RSS baselines keep gating. Two gates ride along:
//
//   * Determinism: every thread count must produce bit-identical links,
//     matching, graph, and stats — a mismatch aborts with exit code 1.
//   * Regression (--baseline FILE): any stage slower than 2x its committed
//     baseline time (for the same entities x threads cell) fails with exit
//     code 1. Stages under 50 ms in the baseline are ignored as noise. A
//     cell whose links or candidate pairs differ from the baseline's is
//     refused as a stale baseline (exit code 1): its times describe other
//     work.
//
// Flags: --quick (CI-sized workload), --out FILE (default
// BENCH_pipeline.json), --baseline FILE, --entities a,b,..., --threads
// a,b,...  See docs/BENCHMARKS.md.
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.h"
#include "common/build_info.h"
#include "eval/table.h"

namespace slim {
namespace {

constexpr double kRegressionFactor = 2.0;
constexpr double kRegressionFloorSeconds = 0.05;

struct PipelineRun {
  size_t entities = 0;
  int threads = 0;
  LinkageResult result;
};

const char* const kStageNames[] = {"histories", "lsh", "scoring", "matching",
                                   "total"};

double StageOf(const LinkageResult& r, const std::string& stage) {
  if (stage == "histories") return r.seconds_histories;
  if (stage == "lsh") return r.seconds_lsh;
  if (stage == "scoring") return r.seconds_scoring;
  if (stage == "matching") return r.seconds_matching;
  return r.seconds_total;
}

uint64_t RssOf(const LinkageResult& r, const std::string& stage) {
  if (stage == "histories") return r.rss_peak_histories;
  if (stage == "lsh") return r.rss_peak_lsh;
  if (stage == "scoring") return r.rss_peak_scoring;
  if (stage == "matching") return r.rss_peak_matching;
  return r.rss_peak_total;
}

std::vector<size_t> ParseSizeList(const std::string& csv) {
  std::vector<size_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const long v = std::strtol(item.c_str(), nullptr, 10);
    SLIM_CHECK_MSG(v > 0, "list entries must be positive integers");
    out.push_back(static_cast<size_t>(v));
  }
  SLIM_CHECK_MSG(!out.empty(), "empty list flag");
  return out;
}

// Identical-output gate between two runs of the same workload.
bool SameLinkage(const LinkageResult& a, const LinkageResult& b,
                 std::string* why) {
  if (a.links != b.links) {
    *why = "links differ";
  } else if (a.matching.pairs != b.matching.pairs) {
    *why = "matching differs";
  } else if (a.graph.edges() != b.graph.edges()) {
    *why = "score graph differs";
  } else if (a.candidate_pairs != b.candidate_pairs) {
    *why = "candidate pair count differs";
  } else if (a.stats.record_comparisons != b.stats.record_comparisons ||
             a.stats.alibi_pairs != b.stats.alibi_pairs ||
             a.stats.entity_pairs != b.stats.entity_pairs) {
    *why = "similarity stats differ";
  } else {
    return true;
  }
  return false;
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_pipeline.json";
  std::string baseline_path;
  std::string entities_csv, threads_csv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      SLIM_CHECK_MSG(i + 1 < argc, "flag needs a value");
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" || arg.rfind("--out=", 0) == 0) {
      out_path = value("--out");
    } else if (arg == "--baseline" || arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value("--baseline");
    } else if (arg == "--entities" || arg.rfind("--entities=", 0) == 0) {
      entities_csv = value("--entities");
    } else if (arg == "--threads" || arg.rfind("--threads=", 0) == 0) {
      threads_csv = value("--threads");
    } else {
      std::fprintf(stderr,
                   "usage: bench_pipeline [--quick] [--out FILE] "
                   "[--baseline FILE] [--entities a,b,...] "
                   "[--threads a,b,...]\n");
      return 2;
    }
  }

  // Quick mode is sized so the big stages sit comfortably above the
  // regression gate's noise floor while the sweep stays CI-cheap (~2 s on
  // one core).
  std::vector<size_t> entity_counts =
      quick ? std::vector<size_t>{4000} : std::vector<size_t>{2500, 10000};
  std::vector<size_t> thread_list =
      quick ? std::vector<size_t>{1, 2, 4} : std::vector<size_t>{1, 2, 4, 8};
  if (!entities_csv.empty()) entity_counts = ParseSizeList(entities_csv);
  if (!threads_csv.empty()) thread_list = ParseSizeList(threads_csv);

  std::printf("==================================================\n");
  std::printf("pipeline scaling bench — generate -> link, per-stage wall "
              "time\n");
  std::printf("workload: SM-style check-ins; entities per side:");
  for (size_t e : entity_counts) std::printf(" %zu", e);
  std::printf("; threads:");
  for (size_t t : thread_list) std::printf(" %zu", t);
  std::printf("\nhardware threads: %u%s\n",
              std::thread::hardware_concurrency(),
              quick ? " (quick mode)" : "");
  std::printf("==================================================\n");

  TablePrinter table({"entities", "threads", "histories_s", "lsh_s",
                      "scoring_s", "matching_s", "total_s", "speedup",
                      "peak_rss_mb", "links"});
  std::vector<PipelineRun> runs;
  bool deterministic = true;

  // One small untimed link first: pays the allocator / code-path warmup so
  // the 1-thread reference run is not systematically penalised.
  {
    CheckinGeneratorOptions gen;
    gen.num_users = 200;
    gen.seed = 1299;
    const LocationDataset master = GenerateCheckinDataset(gen);
    PairSampleOptions sampling;
    sampling.entities_per_side = 100;
    sampling.seed = 1299;
    auto sample = SampleLinkedPair(master, sampling);
    SLIM_CHECK_MSG(sample.ok(), sample.status().ToString().c_str());
    const SlimLinker warmup((SlimConfig()));
    (void)warmup.Link(sample->a, sample->b);
  }

  for (const size_t entities : entity_counts) {
    CheckinGeneratorOptions gen;
    gen.num_users = static_cast<int>(entities * 2);
    gen.seed = 1301;
    const LocationDataset master = GenerateCheckinDataset(gen);

    PairSampleOptions sampling;
    sampling.entities_per_side = entities;
    sampling.intersection_ratio = 0.5;
    sampling.inclusion_probability = 0.5;
    sampling.seed = 1302;
    auto sample = SampleLinkedPair(master, sampling);
    SLIM_CHECK_MSG(sample.ok(), sample.status().ToString().c_str());

    size_t base_idx = runs.size();  // the first thread count's run
    for (const size_t threads : thread_list) {
      SlimConfig config;  // stock pipeline defaults, LSH on
      config.threads = static_cast<int>(threads);
      const SlimLinker linker(config);
      auto linked = linker.Link(sample->a, sample->b);
      SLIM_CHECK_MSG(linked.ok(), linked.status().ToString().c_str());

      PipelineRun run;
      run.entities = entities;
      run.threads = static_cast<int>(threads);
      run.result = std::move(linked.value());
      runs.push_back(std::move(run));
      const LinkageResult& r = runs.back().result;
      const LinkageResult& base = runs[base_idx].result;

      if (threads != thread_list.front()) {
        std::string why;
        if (!SameLinkage(base, r, &why)) {
          std::fprintf(stderr,
                       "DETERMINISM FAILURE at %zu entities, %zu threads: "
                       "%s vs the %zu-thread run\n",
                       entities, threads, why.c_str(), thread_list.front());
          deterministic = false;
        }
      }

      const double speedup =
          r.seconds_total > 0.0 ? base.seconds_total / r.seconds_total : 1.0;
      table.AddRow({std::to_string(entities), std::to_string(threads),
                    Fmt(r.seconds_histories, 3), Fmt(r.seconds_lsh, 3),
                    Fmt(r.seconds_scoring, 3), Fmt(r.seconds_matching, 3),
                    Fmt(r.seconds_total, 3), Fmt(speedup, 2),
                    Fmt(static_cast<double>(r.rss_peak_total) / (1 << 20), 1),
                    std::to_string(r.links.size())});
    }
  }
  table.Print();

  // The machine-readable record.
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("schema").Value("slim-bench-pipeline-v2");
  json.Key("build").Value(slim::BuildGitDescribe());
  json.Key("workload").Value("checkin");
  json.Key("quick").Value(quick);
  json.Key("hardware_threads")
      .Value(static_cast<int>(std::thread::hardware_concurrency()));
  json.Key("deterministic").Value(deterministic);
  json.Key("runs").BeginArray();
  for (const PipelineRun& run : runs) {
    const LinkageResult& r = run.result;
    // Reference run for the speedup columns: same entities, first thread
    // count of the sweep.
    const PipelineRun* base = nullptr;
    for (const PipelineRun& b : runs) {
      if (b.entities == run.entities) {
        base = &b;
        break;
      }
    }
    json.BeginObject();
    json.Key("entities").Value(run.entities);
    json.Key("threads").Value(run.threads);
    json.Key("links").Value(static_cast<uint64_t>(r.links.size()));
    json.Key("candidate_pairs").Value(r.candidate_pairs);
    json.Key("possible_pairs").Value(r.possible_pairs);
    json.Key("seconds").BeginObject();
    for (const char* stage : kStageNames) {
      json.Key(stage).Value(StageOf(r, stage));
    }
    json.EndObject();
    json.Key("speedup_vs_first").BeginObject();
    for (const char* stage : kStageNames) {
      const double cur = StageOf(r, stage);
      const double ref = base != nullptr ? StageOf(base->result, stage) : cur;
      json.Key(stage).Value(cur > 0.0 ? ref / cur : 1.0);
    }
    json.EndObject();
    // v2: peak process RSS at the end of each stage (monotone; the first
    // stage's value includes generator/sampler memory from the harness).
    json.Key("peak_rss_bytes").BeginObject();
    for (const char* stage : kStageNames) {
      json.Key(stage).Value(RssOf(r, stage));
    }
    json.EndObject();
    json.Key("distance_cache").BeginObject();
    json.Key("hits").Value(r.stats.cache_hits);
    json.Key("misses").Value(r.stats.cache_misses);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json.str();
  out.close();
  std::printf("wrote %s (%zu runs)\n", out_path.c_str(), runs.size());

  if (!deterministic) return 1;

  // Regression gate against a committed baseline.
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!bench::BaselineSchemaReadable(buffer.str(), baseline_path.c_str(),
                                       {{"slim-bench-pipeline", 2},
                                        {"slim-bench-sharded", 3}})) {
      return 2;
    }
    const std::vector<bench::PipelineRunRecord> baseline =
        bench::ParsePipelineRuns(buffer.str());
    SLIM_CHECK_MSG(!baseline.empty(), "baseline has no runs");
    int regressions = 0, compared = 0, stale = 0;
    for (const PipelineRun& run : runs) {
      for (const bench::PipelineRunRecord& b : baseline) {
        if (b.entities != run.entities ||
            b.threads != run.threads) {
          continue;
        }
        const auto links = static_cast<long long>(run.result.links.size());
        const auto pairs = static_cast<long long>(run.result.candidate_pairs);
        if ((b.links >= 0 && b.links != links) ||
            (b.candidate_pairs >= 0 && b.candidate_pairs != pairs)) {
          std::fprintf(stderr,
                       "stale baseline — regenerate: %zu entities, %d "
                       "threads: %lld links / %lld candidate pairs vs "
                       "baseline %lld / %lld\n",
                       run.entities, run.threads, links, pairs, b.links,
                       b.candidate_pairs);
          ++stale;
          continue;
        }
        for (const char* stage : kStageNames) {
          const double base_s = b.StageSeconds(stage);
          if (base_s < kRegressionFloorSeconds) continue;  // noise floor
          ++compared;
          const double cur_s = StageOf(run.result, stage);
          if (cur_s > kRegressionFactor * base_s) {
            std::fprintf(stderr,
                         "REGRESSION at %zu entities, %d threads, stage "
                         "%s: %.3fs vs baseline %.3fs (> %.1fx)\n",
                         run.entities, run.threads, stage, cur_s, base_s,
                         kRegressionFactor);
            ++regressions;
          }
        }
      }
    }
    std::printf("baseline gate: %d stage comparisons vs %s, %d regressions, "
                "%d stale cells\n",
                compared, baseline_path.c_str(), regressions, stale);
    if (regressions > 0 || stale > 0) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace slim

int main(int argc, char** argv) { return slim::Main(argc, argv); }
