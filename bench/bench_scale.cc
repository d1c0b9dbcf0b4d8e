// Scale bench — the 1M-entities-per-side milestone: mmap-backed SCTX
// context, two-sided (L x K) sharding, and the streaming external matcher,
// all under one stated memory budget.
//
// Like bench_sharded, every measured configuration runs in a fresh child
// process (peak RSS is a process-monotone high-water mark), but the
// context build is hoisted OUT of the measured runs: a builder child
// interns the datasets once and serializes the context to an SCTX file
// (core/sctx.h); each measured child then maps that file read-only and
// runs LinkShardedContext with the graph stage disabled (keep_graph =
// false), so its peak RSS is the thing the tentpole bounds — one L x K
// block of candidates + scoring, the external sort's run buffers, and the
// matching — not the context build or the full edge graph.
//
// The parent:
//   1. generates the SM-style workload (sm1m-shaped; --quick is CI-sized),
//      writes both sides as SBIN, and runs the builder child;
//   2. runs the measured plan matrix — quick mode fixes it to
//      {(1,1), (2,4), (4,16)} x threads {1,8}, the ISSUE-9 acceptance
//      matrix — with a run-buffer budget small enough (quick) that the
//      multi-block plans actually spill to disk and k-way merge;
//   3. in quick mode also runs the MONOLITHIC driver on the same sides and
//      requires every measured run's links hash to equal it (bit-identity
//      gate); at any scale all measured runs must agree with each other;
//   4. gates every measured run's peak RSS against the stated budget and
//      writes BENCH_scale.json (schema slim-bench-scale-v1).
//
// Budgets (docs/BENCHMARKS.md, "Scaling to 1M entities per side", derives
// them): quick 2 GiB, full 12 GiB. Registered with ctest as
// bench_scale_quick — the determinism matrix is an acceptance gate, not
// just a report.
//
// Flags: --quick, --out FILE (default BENCH_scale.json), --entities N,
// --threads a,b,..., --plans LxK,LxK,..., --budget_mb M,
// --spill_run_bytes B. Internal: --child_sctx / --child ... (one builder /
// measured run; not for direct use).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/build_info.h"
#include "eval/table.h"

namespace slim {
namespace {

// The stated peak-RSS budgets for a measured run (not the one-time
// context build, which the SCTX file exists to amortise away).
constexpr uint64_t kQuickBudgetBytes = uint64_t{2} << 30;
constexpr uint64_t kFullBudgetBytes = uint64_t{12} << 30;

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

// FNV-1a over the canonical link lines, same convention as bench_sharded:
// equal hashes across processes mean equal links at bit-level precision.
uint64_t HashLinks(const std::vector<LinkedEntityPair>& links) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  };
  for (const auto& link : links) {
    mix(std::to_string(link.u) + "," + std::to_string(link.v) + "," +
        FormatFixed(link.score, 17) + "\n");
  }
  return h;
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

// "LxK,LxK,..." -> per-plan (left_shards, shards) pairs.
std::vector<std::pair<int, int>> ParsePlanList(const std::string& csv) {
  std::vector<std::pair<int, int>> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const size_t x = item.find('x');
    SLIM_CHECK_MSG(x != std::string::npos, "plans are LxK pairs");
    const long l = std::strtol(item.c_str(), nullptr, 10);
    const long k = std::strtol(item.c_str() + x + 1, nullptr, 10);
    SLIM_CHECK_MSG(l > 0 && k > 0, "plan sides must be positive");
    out.push_back({static_cast<int>(l), static_cast<int>(k)});
  }
  SLIM_CHECK_MSG(!out.empty(), "empty plan list");
  return out;
}

// Scans `json` for `"key": <unsigned integer>` with full 64-bit precision
// (the links_hash comparison is a bit-identity gate); 0 when absent.
uint64_t FindUint(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  pos += needle.size();
  while (pos < json.size() &&
         (std::isspace(static_cast<unsigned char>(json[pos])) != 0 ||
          json[pos] == ':')) {
    ++pos;
  }
  return pos < json.size() ? std::strtoull(json.c_str() + pos, nullptr, 10)
                           : 0;
}

void WriteRunRecord(const LinkageResult& r, uint64_t entities, int threads,
                    const std::string& out_json) {
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("entities").Value(entities);
  json.Key("threads").Value(threads > 0 ? threads : DefaultThreadCount());
  json.Key("shards").Value(r.shards_used);
  json.Key("left_shards").Value(r.left_shards_used);
  json.Key("links").Value(static_cast<uint64_t>(r.links.size()));
  json.Key("links_hash").Value(HashLinks(r.links));
  json.Key("candidate_pairs").Value(r.candidate_pairs);
  json.Key("spilled_edges").Value(r.spilled_edges);
  json.Key("spill_on_disk").Value(r.spill_on_disk);
  json.Key("spill_bytes_written").Value(r.spill_bytes_written);
  json.Key("merge_passes").Value(r.merge_passes);
  json.Key("seconds").BeginObject();
  for (const char* stage : kStageNames) {
    json.Key(stage).Value(StageOf(r, stage));
  }
  json.EndObject();
  json.Key("peak_rss_bytes").BeginObject();
  for (const char* stage : kStageNames) {
    json.Key(stage).Value(RssOf(r, stage));
  }
  json.EndObject();
  json.EndObject();

  std::ofstream out(out_json);
  SLIM_CHECK_MSG(out.good(), "cannot write child record");
  out << json.str();
}

// ---- Builder child: intern once, serialize the SCTX file. ----

int SctxChildMain(const std::string& path_a, const std::string& path_b,
                  int threads, const std::string& sctx_path) {
  auto a = ReadDataset(path_a, "A");
  SLIM_CHECK_MSG(a.ok(), a.status().ToString().c_str());
  auto b = ReadDataset(path_b, "B");
  SLIM_CHECK_MSG(b.ok(), b.status().ToString().c_str());
  const SlimConfig config;  // stock history parameters
  const LinkageContext context =
      LinkageContext::Build(*a, *b, config.history, threads);
  const Status st = WriteSctx(context, sctx_path);
  SLIM_CHECK_MSG(st.ok(), st.ToString().c_str());
  return 0;
}

// ---- Measured child: map the SCTX file, run one (L, K, threads) plan
// with the streaming matcher, report the run record. ----

int ChildMain(const std::string& sctx_path, int threads, int left_shards,
              int shards, uint64_t spill_run_bytes,
              const std::string& out_json) {
  SlimConfig config;  // stock pipeline defaults, LSH on
  config.threads = threads;
  config.left_shards = left_shards;
  config.shards = shards;
  config.keep_graph = false;  // the streaming external matcher is the point
  if (spill_run_bytes > 0) config.spill_run_bytes = spill_run_bytes;

  auto context = ReadSctx(sctx_path);
  SLIM_CHECK_MSG(context.ok(), context.status().ToString().c_str());

  const SlimLinker linker(config);
  auto result = linker.LinkShardedContext(*context);
  SLIM_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  WriteRunRecord(*result, static_cast<uint64_t>(context->store_e.size()),
                 threads, out_json);
  return 0;
}

// ---- Monolithic reference child (quick mode's bit-identity anchor). ----

int MonoChildMain(const std::string& path_a, const std::string& path_b,
                  int threads, const std::string& out_json) {
  auto a = ReadDataset(path_a, "A");
  SLIM_CHECK_MSG(a.ok(), a.status().ToString().c_str());
  auto b = ReadDataset(path_b, "B");
  SLIM_CHECK_MSG(b.ok(), b.status().ToString().c_str());
  SlimConfig config;
  config.threads = threads;
  const SlimLinker linker(config);
  auto result = linker.Link(*a, *b);
  SLIM_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  WriteRunRecord(*result, static_cast<uint64_t>(a->num_entities()), threads,
                 out_json);
  return 0;
}

// ---- Parent mode. ----

struct MeasuredRun {
  bench::PipelineRunRecord record;
  uint64_t links = 0;
  uint64_t links_hash = 0;
  uint64_t candidate_pairs = 0;
  uint64_t spilled_edges = 0;
  bool spill_on_disk = false;
  uint64_t peak_rss = 0;
};

MeasuredRun ReadRunRecord(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  const std::vector<bench::PipelineRunRecord> parsed =
      bench::ParsePipelineRuns(doc);
  SLIM_CHECK_MSG(parsed.size() == 1, "child record did not parse");
  MeasuredRun run;
  run.record = parsed.front();
  run.links = FindUint(doc, "links");
  run.links_hash = FindUint(doc, "links_hash");
  run.candidate_pairs = FindUint(doc, "candidate_pairs");
  run.spilled_edges = FindUint(doc, "spilled_edges");
  run.spill_on_disk = doc.find("\"spill_on_disk\": true") != std::string::npos;
  for (const auto& [name, v] : run.record.peak_rss_bytes) {
    if (name == "total") run.peak_rss = static_cast<uint64_t>(v);
  }
  return run;
}

int RunCommand(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  SLIM_CHECK_MSG(rc == 0, "child run failed");
  return rc;
}

void EmitRun(bench::JsonWriter* json, const MeasuredRun& run) {
  json->BeginObject();
  json->Key("entities").Value(run.record.entities);
  json->Key("threads").Value(run.record.threads);
  json->Key("shards").Value(run.record.shards);
  json->Key("left_shards").Value(run.record.left_shards);
  json->Key("links").Value(run.links);
  json->Key("links_hash").Value(run.links_hash);
  json->Key("candidate_pairs").Value(run.candidate_pairs);
  json->Key("spilled_edges").Value(run.spilled_edges);
  json->Key("spill_on_disk").Value(run.spill_on_disk);
  json->Key("spill_bytes_written").Value(run.record.spill_bytes_written);
  json->Key("merge_passes").Value(run.record.merge_passes);
  json->Key("seconds").BeginObject();
  for (const auto& [name, v] : run.record.seconds) {
    json->Key(name).Value(v);
  }
  json->EndObject();
  json->Key("peak_rss_bytes").BeginObject();
  for (const auto& [name, v] : run.record.peak_rss_bytes) {
    json->Key(name).Value(static_cast<uint64_t>(v));
  }
  json->EndObject();
  json->EndObject();
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_scale.json";
  std::string entities_flag, threads_flag, plans_flag;
  uint64_t budget_bytes = 0;
  uint64_t spill_run_bytes = 0;
  // Child-mode flags.
  bool child = false, child_sctx = false, child_mono = false;
  std::string child_a, child_b, child_out, sctx_path;
  int child_threads = 0, child_left = 0, child_shards = 0;

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
    } else if (arg == "--child") {
      child = true;
    } else if (arg == "--child_sctx") {
      child_sctx = true;
    } else if (arg == "--mono") {
      child_mono = true;
    } else if (arg == "--a" || arg.rfind("--a=", 0) == 0) {
      child_a = value("--a");
    } else if (arg == "--b" || arg.rfind("--b=", 0) == 0) {
      child_b = value("--b");
    } else if (arg == "--sctx" || arg.rfind("--sctx=", 0) == 0) {
      sctx_path = value("--sctx");
    } else if (arg == "--out" || arg.rfind("--out=", 0) == 0) {
      out_path = child_out = value("--out");
    } else if (arg == "--entities" || arg.rfind("--entities=", 0) == 0) {
      entities_flag = value("--entities");
    } else if (arg == "--threads" || arg.rfind("--threads=", 0) == 0) {
      threads_flag = value("--threads");
      child_threads = static_cast<int>(
          std::strtol(threads_flag.c_str(), nullptr, 10));
    } else if (arg == "--left_shards" ||
               arg.rfind("--left_shards=", 0) == 0) {
      child_left = static_cast<int>(
          std::strtol(value("--left_shards").c_str(), nullptr, 10));
    } else if (arg == "--shards" || arg.rfind("--shards=", 0) == 0) {
      child_shards = static_cast<int>(
          std::strtol(value("--shards").c_str(), nullptr, 10));
    } else if (arg == "--plans" || arg.rfind("--plans=", 0) == 0) {
      plans_flag = value("--plans");
    } else if (arg == "--budget_mb" || arg.rfind("--budget_mb=", 0) == 0) {
      budget_bytes = static_cast<uint64_t>(std::strtoull(
                         value("--budget_mb").c_str(), nullptr, 10))
                     << 20;
    } else if (arg == "--spill_run_bytes" ||
               arg.rfind("--spill_run_bytes=", 0) == 0) {
      spill_run_bytes = std::strtoull(
          value("--spill_run_bytes").c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale [--quick] [--out FILE] "
                   "[--entities N] [--threads a,b,...] "
                   "[--plans LxK,LxK,...] [--budget_mb M] "
                   "[--spill_run_bytes B]\n");
      return 2;
    }
  }
  if (child_sctx) {
    return SctxChildMain(child_a, child_b, child_threads, sctx_path);
  }
  if (child) {
    return child_mono
               ? MonoChildMain(child_a, child_b, child_threads, child_out)
               : ChildMain(sctx_path, child_threads, child_left, child_shards,
                           spill_run_bytes, child_out);
  }

  // Full mode targets the sm1m scenario; quick mode is the CI-sized
  // acceptance matrix. The quick run-buffer budget is tiny on purpose: the
  // multi-block plans must actually spill to disk and k-way merge, or the
  // determinism gate would only exercise the in-memory path.
  size_t target = quick ? 2000 : 1000000;
  std::vector<size_t> thread_counts =
      quick ? std::vector<size_t>{1, 8}
            : std::vector<size_t>{std::max(
                  1u, std::thread::hardware_concurrency())};
  std::vector<std::pair<int, int>> plans =
      quick ? std::vector<std::pair<int, int>>{{1, 1}, {2, 4}, {4, 16}}
            : std::vector<std::pair<int, int>>{{4, 16}};
  if (!plans_flag.empty()) plans = ParsePlanList(plans_flag);
  if (budget_bytes == 0) {
    budget_bytes = quick ? kQuickBudgetBytes : kFullBudgetBytes;
  }
  if (spill_run_bytes == 0) {
    spill_run_bytes = quick ? uint64_t{64} << 10 : uint64_t{64} << 20;
  }
  if (!entities_flag.empty()) target = ParseSizeList(entities_flag).front();
  if (!threads_flag.empty()) thread_counts = ParseSizeList(threads_flag);

  std::printf("==================================================\n");
  std::printf("scale bench — mmap SCTX + L x K sharding + external matcher\n");
  std::printf("workload: SM-style check-ins; target %zu entities/side; "
              "plans:", target);
  for (const auto& [l, k] : plans) std::printf(" %dx%d", l, k);
  std::printf("; threads:");
  for (size_t t : thread_counts) std::printf(" %zu", t);
  std::printf("\nmemory budget: %llu MB per measured run; spill run "
              "buffer: %llu bytes%s\n",
              static_cast<unsigned long long>(budget_bytes >> 20),
              static_cast<unsigned long long>(spill_run_bytes),
              quick ? " (quick)" : "");
  std::printf("==================================================\n");

  std::error_code ec;
  const std::filesystem::path tmp_dir =
      std::filesystem::temp_directory_path() /
      ("slim_bench_scale_" +
       std::to_string(static_cast<long>(::getpid())));
  std::filesystem::create_directories(tmp_dir, ec);
  SLIM_CHECK_MSG(!ec, "cannot create bench temp dir");

  // Workload: the sm1m preset shape (2x-target master, both sides sampled
  // from it) at whatever scale was requested.
  CheckinGeneratorOptions gen;
  gen.num_users = static_cast<int>(target * 2);
  gen.seed = 2301;
  std::printf("generating %d-user master...\n", gen.num_users);
  const LocationDataset master = GenerateCheckinDataset(gen);
  PairSampleOptions sampling;
  sampling.entities_per_side = target;
  sampling.intersection_ratio = 0.5;
  sampling.inclusion_probability = 0.5;
  sampling.seed = 2302;
  auto sample = SampleLinkedPair(master, sampling);
  SLIM_CHECK_MSG(sample.ok(), sample.status().ToString().c_str());
  const std::string path_a = (tmp_dir / "a.sbin").string();
  const std::string path_b = (tmp_dir / "b.sbin").string();
  SLIM_CHECK(WriteDataset(sample->a, path_a, DatasetFormat::kSbin).ok());
  SLIM_CHECK(WriteDataset(sample->b, path_b, DatasetFormat::kSbin).ok());

  // Builder child: one intern + serialize, outside every measured run.
  const std::string self = argv[0];
  const std::string sctx_file = (tmp_dir / "context.sctx").string();
  std::printf("building + serializing the SCTX context...\n");
  RunCommand("\"" + self + "\" --child_sctx --a \"" + path_a + "\" --b \"" +
             path_b + "\" --sctx \"" + sctx_file + "\"");
  const uint64_t sctx_bytes =
      static_cast<uint64_t>(std::filesystem::file_size(sctx_file, ec));
  std::printf("SCTX file: %.1f MB\n",
              static_cast<double>(sctx_bytes) / (1 << 20));

  // Measured plan matrix.
  int ordinal = 0;
  TablePrinter table({"plan", "threads", "scoring_s", "matching_s",
                      "total_s", "merges", "spill_mb", "peak_mb", "links"});
  auto add_row = [&](const std::string& plan, const MeasuredRun& run) {
    table.AddRow(
        {plan, std::to_string(run.record.threads),
         Fmt(run.record.StageSeconds("scoring"), 3),
         Fmt(run.record.StageSeconds("matching"), 3),
         Fmt(run.record.StageSeconds("total"), 3),
         std::to_string(run.record.merge_passes),
         Fmt(static_cast<double>(run.record.spill_bytes_written) / (1 << 20),
             1),
         Fmt(static_cast<double>(run.peak_rss) / (1 << 20), 1),
         std::to_string(run.links)});
  };
  std::vector<MeasuredRun> runs;
  for (const auto& [l, k] : plans) {
    for (const size_t t : thread_counts) {
      std::printf("measured: plan %dx%d, %zu thread(s)...\n", l, k, t);
      const std::filesystem::path out =
          tmp_dir / ("child_" + std::to_string(ordinal++) + ".json");
      RunCommand("\"" + self + "\" --child --sctx \"" + sctx_file +
                 "\" --threads " + std::to_string(t) + " --left_shards " +
                 std::to_string(l) + " --shards " + std::to_string(k) +
                 " --spill_run_bytes " + std::to_string(spill_run_bytes) +
                 " --out \"" + out.string() + "\"");
      runs.push_back(ReadRunRecord(out));
      add_row(std::to_string(l) + "x" + std::to_string(k), runs.back());
    }
  }

  // Determinism: all measured runs agree; in quick mode they must also
  // match the monolithic driver bit for bit.
  bool deterministic = true;
  for (const MeasuredRun& run : runs) {
    if (run.links_hash != runs.front().links_hash ||
        run.links != runs.front().links) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: plan %dx%d links differ\n",
                   run.record.left_shards, run.record.shards);
      deterministic = false;
    }
  }
  bool have_mono = false;
  MeasuredRun mono;
  if (quick) {
    std::printf("reference: monolithic driver...\n");
    const std::filesystem::path out =
        tmp_dir / ("child_" + std::to_string(ordinal++) + ".json");
    RunCommand("\"" + self + "\" --child --mono --a \"" + path_a +
               "\" --b \"" + path_b + "\" --threads 1 --out \"" +
               out.string() + "\"");
    mono = ReadRunRecord(out);
    have_mono = true;
    add_row("mono", mono);
    if (mono.links_hash != runs.front().links_hash ||
        mono.links != runs.front().links) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: sharded links differ from the "
                   "monolithic driver\n");
      deterministic = false;
    }
  }
  table.Print();

  // The memory gate.
  bool under_budget = true;
  for (const MeasuredRun& run : runs) {
    if (run.peak_rss > budget_bytes) {
      std::fprintf(stderr,
                   "MEMORY GATE FAILURE: plan %dx%d threads %d peaked at "
                   "%.1f MB > %llu MB budget\n",
                   run.record.left_shards, run.record.shards,
                   run.record.threads,
                   static_cast<double>(run.peak_rss) / (1 << 20),
                   static_cast<unsigned long long>(budget_bytes >> 20));
      under_budget = false;
    }
  }

  // The machine-readable record.
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("schema").Value("slim-bench-scale-v1");
  json.Key("build").Value(slim::BuildGitDescribe());
  json.Key("workload").Value("checkin");
  json.Key("quick").Value(quick);
  json.Key("hardware_threads")
      .Value(static_cast<int>(std::thread::hardware_concurrency()));
  json.Key("target_entities").Value(static_cast<uint64_t>(target));
  json.Key("memory_budget_bytes").Value(budget_bytes);
  json.Key("sctx_bytes").Value(sctx_bytes);
  json.Key("deterministic").Value(deterministic);
  json.Key("runs").BeginArray();
  for (const MeasuredRun& run : runs) EmitRun(&json, run);
  json.EndArray();
  if (have_mono) {
    json.Key("monolithic_reference");
    EmitRun(&json, mono);
  }
  json.EndObject();

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json.str();
  out.close();
  std::printf("wrote %s (%zu measured runs)\n", out_path.c_str(),
              runs.size());

  std::filesystem::remove_all(tmp_dir, ec);
  return deterministic && under_budget ? 0 : 1;
}

}  // namespace
}  // namespace slim

int main(int argc, char** argv) { return slim::Main(argc, argv); }
