// slim_bench: the benchmark's in-process tool. It generates the workload
// inputs, and it runs the traced compositions of the linkage layers: each
// layer is called through its public entry point, and one span per call
// (name, start, end, parent) plus the layer counters are recorded from this
// file, so nothing inside src/ is instrumented. The spans stay in memory
// and are written as JSON when the run ends.
//
//   slim_bench --mode generate    --workload sm|cab --entities N
//              --side_entities M [--days D] --master_seed S0 --seed S
//              [--format csv|sbin] --out_prefix PFX
//   slim_bench --mode batch       --a A --b B --truth T --threads N
//              --links OUT.csv --spans OUT.json
//   slim_bench --mode ooc         ... --sctx PATH --spill PATH
//              [--left_shards 2 --shards 4 --spill_run_mb 4]
//   slim_bench --mode incremental --stream FILE --threads N
//              --links OUT.csv --spans OUT.json
//   slim_bench --mode service     --stream FILE --threads N
//              --links OUT.csv --spans OUT.json
//
// generate draws the master population from --master_seed and samples the
// two sides and their ground truth from it with --seed, writing the files
// slim_generate --experiment writes. batch is SlimLinker::Link's
// composition (context, candidates, scoring, seal); ooc is LinkSharded's
// with an SCTX file and the streamed seal; incremental feeds a protocol
// stream's INGEST/LINK lines to an IncrementalLinker; service replays the
// whole stream through LinkageService::Execute. Every traced mode writes
// its final links in the links CSV format, so the caller can compare them
// with slim_link's bytes. The pipeline settings are slim_link's and
// slim_serve's defaults.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/resource.h"
#include "flags.h"
#include "serve/service.h"
#include "slim.h"

namespace {

using Clock = std::chrono::steady_clock;

// Spans in start order; `parent` indexes this vector (-1 for a root).
class Tracer {
 public:
  int Begin(const std::string& name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, Now(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    SLIM_CHECK(!open_.empty() && open_.back() == id);
    open_.pop_back();
    spans_[static_cast<size_t>(id)].end_us = Now();
  }
  void Count(const std::string& name, double value) {
    counters_[name] = value;
  }
  void Add(const std::string& name, double value) {
    counters_[name] += value;
  }
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n {\"name\": \"%s\", \"parent\": %d, "
                   "\"start_us\": %.3f, \"end_us\": %.3f}",
                   i == 0 ? "" : ",", s.name.c_str(), s.parent, s.start_us,
                   s.end_us);
    }
    std::fprintf(f, "],\n\"counters\": {");
    bool first = true;
    for (const auto& [name, value] : counters_) {
      std::fprintf(f, "%s\n \"%s\": %.17g", first ? "" : ",", name.c_str(),
                   value);
      first = false;
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  const Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counters_;
};

// RAII span for the calls that cannot fail midway.
class Scoped {
 public:
  Scoped(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~Scoped() { tracer_->End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

double Mb(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

template <typename T>
T OrDie(slim::Result<T> r) {
  if (!r.ok()) slim::tools::Flags::Fail(r.status().ToString());
  return std::move(r.value());
}

void OrDie(const slim::Status& s) {
  if (!s.ok()) slim::tools::Flags::Fail(s.ToString());
}

// slim_link's and slim_serve's defaults, spelled as those tools compute
// them so every double matches bit for bit.
slim::SlimConfig DefaultConfig(int threads) {
  slim::SlimConfig config;
  config.history.window_seconds = 15 * 60;
  config.history.spatial_level = 12;
  config.similarity.b = 0.5;
  config.similarity.proximity.max_speed_mps = 120.0 / 3.6;
  config.lsh.signature_spatial_level = 10;
  config.lsh.temporal_step_windows = 8;
  config.lsh.similarity_threshold = 0.5;
  config.lsh.num_buckets = 4096;
  config.threads = threads;
  return config;
}

struct Inputs {
  slim::LocationDataset a, b;
};

Inputs ReadInputs(const slim::tools::Flags& flags, int threads,
                  Tracer* tracer) {
  const Scoped span(tracer, "data.read");
  slim::DatasetIoOptions io;
  io.io_threads = threads;
  Inputs in{OrDie(slim::ReadDataset(flags.GetString("a", ""), "A", io)),
            OrDie(slim::ReadDataset(flags.GetString("b", ""), "B", io))};
  tracer->Count("data.records",
                static_cast<double>(in.a.num_records() + in.b.num_records()));
  return in;
}

// Scores every candidate of the left range [begin, end) and appends the
// positive edges, in shard order, to `out` (SlimLinker's scoring loop).
void ScoreRange(const slim::LinkageContext& ctx,
                const slim::SimilarityEngine& engine,
                const slim::CandidateGenerator& generator,
                slim::EntityIdx left_begin, slim::EntityIdx left_end,
                int threads, std::vector<std::vector<slim::WeightedEdge>>* out,
                Tracer* tracer) {
  const Scoped span(tracer, "scoring");
  std::vector<std::vector<slim::WeightedEdge>> shard_edges(
      static_cast<size_t>(threads));
  std::vector<slim::SimilarityStats> shard_stats(static_cast<size_t>(threads));
  slim::ParallelFor(
      left_end - left_begin,
      [&](size_t begin, size_t end, int shard) {
        auto& edges = shard_edges[static_cast<size_t>(shard)];
        auto& stats = shard_stats[static_cast<size_t>(shard)];
        slim::CellDistanceCache cache;
        slim::ScoreScratch scratch;
        for (size_t k = begin; k < end; ++k) {
          const auto u_idx = left_begin + static_cast<slim::EntityIdx>(k);
          const slim::EntityId u = ctx.store_e.entity_id(u_idx);
          for (const slim::EntityIdx v_idx : generator.CandidatesFor(u_idx)) {
            const double s =
                engine.ScoreIndexed(u_idx, v_idx, &stats, &cache, &scratch);
            if (s > 0.0) edges.push_back({u, ctx.store_i.entity_id(v_idx), s});
          }
        }
      },
      threads);
  slim::SimilarityStats stats;
  uint64_t edges = 0;
  for (int shard = 0; shard < threads; ++shard) {
    stats += shard_stats[static_cast<size_t>(shard)];
    edges += shard_edges[static_cast<size_t>(shard)].size();
    out->push_back(std::move(shard_edges[static_cast<size_t>(shard)]));
  }
  tracer->Add("scoring.pairs", static_cast<double>(stats.entity_pairs));
  tracer->Add("scoring.edges", static_cast<double>(edges));
  tracer->Add("scoring.record_comparisons",
              static_cast<double>(stats.record_comparisons));
  tracer->Add("scoring.alibi_pairs", static_cast<double>(stats.alibi_pairs));
}

// Counts the truth pairs of one block, and those whose right entity is
// among the left entity's candidates.
void CountTrueRecall(const slim::LinkageContext& ctx,
                     const slim::CandidateGenerator& generator,
                     std::pair<slim::EntityIdx, slim::EntityIdx> left,
                     std::pair<slim::EntityIdx, slim::EntityIdx> right,
                     const std::vector<slim::LinkedEntityPair>& truth,
                     Tracer* tracer) {
  for (const auto& t : truth) {
    const auto u = ctx.store_e.IndexOf(t.u);
    const auto v = ctx.store_i.IndexOf(t.v);
    if (!u || !v || *u < left.first || *u >= left.second ||
        *v < right.first || *v >= right.second) {
      continue;
    }
    const auto c = generator.CandidatesFor(*u);
    tracer->Add("candidates.truth_pairs", 1);
    if (std::find(c.begin(), c.end(), *v) != c.end()) {
      tracer->Add("candidates.truth_found", 1);
    }
  }
}

// The matching + stop-threshold tail over matched pairs: the links, sorted
// by (u, v) as every linkage path emits them.
std::vector<slim::LinkedEntityPair> ThresholdLinks(
    const slim::Matching& matching, Tracer* tracer) {
  const Scoped span(tracer, "seal.threshold");
  std::vector<double> weights;
  weights.reserve(matching.pairs.size());
  for (const auto& e : matching.pairs) weights.push_back(e.weight);
  double cutoff = -std::numeric_limits<double>::infinity();
  auto decision = slim::DetectStopThreshold(weights);
  if (decision.ok()) cutoff = decision->threshold;
  std::vector<slim::LinkedEntityPair> links;
  for (const auto& e : matching.pairs) {
    if (e.weight > cutoff) links.push_back({e.u, e.v, e.weight});
  }
  std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
    return x.u != y.u ? x.u < y.u : x.v < y.v;
  });
  return links;
}

void RunBatch(const slim::tools::Flags& flags, int threads, Tracer* tracer) {
  const auto truth = OrDie(slim::ReadLinksCsv(flags.GetString("truth", "")));
  const slim::SlimConfig config = DefaultConfig(threads);
  const int root = tracer->Begin("link");
  const Inputs in = ReadInputs(flags, threads, tracer);

  int id = tracer->Begin("context.build");
  const slim::LinkageContext ctx =
      slim::LinkageContext::Build(in.a, in.b, config.history, threads);
  tracer->End(id);
  tracer->Count("context.bins", static_cast<double>(ctx.vocab.size()));
  tracer->Count("context.entries",
                static_cast<double>(ctx.store_e.bin_ids().size() +
                                    ctx.store_i.bin_ids().size()));
  tracer->Count("context.rss_mb", Mb(slim::CurrentPeakRssBytes()));

  id = tracer->Begin("candidates.build");
  const auto generator = slim::MakeCandidateGenerator(
      config.candidates, ctx, config.lsh, config.grid, threads);
  tracer->End(id);
  tracer->Count("candidates.pairs",
                static_cast<double>(generator->total_candidate_pairs()));
  tracer->Count("candidates.cross_product",
                static_cast<double>(ctx.store_e.size()) *
                    static_cast<double>(ctx.store_i.size()));
  tracer->Count("candidates.rss_mb", Mb(slim::CurrentPeakRssBytes()));

  const slim::SimilarityEngine engine(ctx, config.similarity);
  std::vector<std::vector<slim::WeightedEdge>> shard_edges;
  ScoreRange(ctx, engine, *generator, 0,
             static_cast<slim::EntityIdx>(ctx.store_e.size()), threads,
             &shard_edges, tracer);

  id = tracer->Begin("seal");
  int sub = tracer->Begin("seal.sort");
  std::vector<slim::WeightedEdge> edges;
  for (auto& part : shard_edges) {
    edges.insert(edges.end(), part.begin(), part.end());
  }
  std::sort(edges.begin(), edges.end(), slim::PairEdgeOrder);
  tracer->Count("seal.edges", static_cast<double>(edges.size()));
  const slim::BipartiteGraph graph(std::move(edges));
  tracer->End(sub);
  sub = tracer->Begin("seal.match");
  const slim::Matching matching = slim::GreedyMaxWeightMatching(graph);
  tracer->End(sub);
  auto links = ThresholdLinks(matching, tracer);
  tracer->End(id);

  id = tracer->Begin("data.write");
  OrDie(slim::WriteLinksCsv(links, flags.GetString("links", "")));
  tracer->End(id);
  tracer->End(root);
  tracer->Count("seal.links", static_cast<double>(links.size()));
  CountTrueRecall(ctx, *generator,
                  {0, static_cast<slim::EntityIdx>(ctx.store_e.size())},
                  {0, static_cast<slim::EntityIdx>(ctx.store_i.size())}, truth,
                  tracer);
}

void RunOoc(const slim::tools::Flags& flags, int threads, Tracer* tracer) {
  const auto truth = OrDie(slim::ReadLinksCsv(flags.GetString("truth", "")));
  slim::SlimConfig config = DefaultConfig(threads);
  config.left_shards = static_cast<int>(flags.GetInt("left_shards", 2));
  config.shards = static_cast<int>(flags.GetInt("shards", 4));
  const std::string sctx_path = flags.GetString("sctx", "");
  const int root = tracer->Begin("link");
  const uint64_t rss_before_context = slim::CurrentPeakRssBytes();
  slim::LinkageContext ctx;
  {
    const Inputs in = ReadInputs(flags, threads, tracer);
    int id = tracer->Begin("context.build");
    const slim::LinkageContext built =
        slim::LinkageContext::Build(in.a, in.b, config.history, threads);
    tracer->End(id);
    id = tracer->Begin("ooc.sctx_write");
    OrDie(slim::WriteSctx(built, sctx_path));
    tracer->End(id);
  }
  int id = tracer->Begin("ooc.sctx_map");
  slim::SctxReadOptions read_options;
  read_options.threads = threads;
  ctx = OrDie(slim::ReadSctx(sctx_path, read_options));
  tracer->End(id);
  tracer->Count("context.bins", static_cast<double>(ctx.vocab.size()));
  tracer->Count("context.entries",
                static_cast<double>(ctx.store_e.bin_ids().size() +
                                    ctx.store_i.bin_ids().size()));
  tracer->Count("context.rss_mb", Mb(slim::CurrentPeakRssBytes()));

  const slim::ShardPlan plan =
      slim::EstimateShardPlan(ctx, config, rss_before_context);
  const slim::SimilarityEngine engine(ctx, config.similarity);
  slim::EdgeSpillOptions spill_options;
  spill_options.to_disk = plan.left_shards * plan.shards > 1;
  spill_options.run_bytes =
      static_cast<size_t>(flags.GetInt("spill_run_mb", 4)) << 20;
  spill_options.run_order = slim::EdgeOrder::kScore;
  spill_options.spill_path = flags.GetString("spill", "");
  slim::EdgeSpill spill(spill_options);
  uint64_t pairs = 0;
  for (const auto& [left_begin, left_end] : plan.left_ranges) {
    for (const auto& [right_begin, right_end] : plan.ranges) {
      const Scoped block(tracer, "ooc.block");
      id = tracer->Begin("candidates.build");
      const auto generator = slim::MakeShardCandidateGenerator(
          config.candidates, ctx, config.lsh, config.grid, left_begin,
          left_end, right_begin, right_end, threads);
      tracer->End(id);
      pairs += generator->total_candidate_pairs();
      CountTrueRecall(ctx, *generator, {left_begin, left_end},
                      {right_begin, right_end}, truth, tracer);
      std::vector<std::vector<slim::WeightedEdge>> block_edges;
      ScoreRange(ctx, engine, *generator, left_begin, left_end, threads,
                 &block_edges, tracer);
      for (auto& part : block_edges) spill.Append(std::move(part));
    }
  }
  tracer->Count("ooc.blocks",
                static_cast<double>(plan.left_shards * plan.shards));
  tracer->Count("candidates.pairs", static_cast<double>(pairs));
  tracer->Count("candidates.cross_product",
                static_cast<double>(ctx.store_e.size()) *
                    static_cast<double>(ctx.store_i.size()));
  tracer->Count("candidates.rss_mb", Mb(slim::CurrentPeakRssBytes()));
  tracer->Count("seal.edges", static_cast<double>(spill.size()));

  id = tracer->Begin("ooc.seal_streamed");
  OrDie(spill.Seal());
  slim::StreamingGreedyMatcher matcher;
  OrDie(spill.Scan(slim::EdgeOrder::kScore,
                   [&matcher](const slim::WeightedEdge& e) {
                     matcher.Offer(e);
                   }));
  const auto links = ThresholdLinks(matcher.Take(), tracer);
  tracer->End(id);
  id = tracer->Begin("data.write");
  OrDie(slim::WriteLinksCsv(links, flags.GetString("links", "")));
  tracer->End(id);
  tracer->End(root);
  tracer->Count("ooc.spill_bytes",
                static_cast<double>(spill.spill_bytes_written()));
  tracer->Count("ooc.merge_passes", static_cast<double>(spill.merge_passes()));
  tracer->Count("seal.links", static_cast<double>(links.size()));
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) slim::tools::Flags::Fail("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void RunIncremental(const slim::tools::Flags& flags, int threads,
                    Tracer* tracer) {
  slim::IncrementalLinker linker(DefaultConfig(threads));
  for (const std::string& line : ReadLines(flags.GetString("stream", ""))) {
    const slim::ServeCommand cmd = OrDie(slim::ParseServeCommand(line));
    if (cmd.kind == slim::ServeCommandKind::kIngest) {
      linker.Ingest(cmd.side, cmd.records);
    } else if (cmd.kind == slim::ServeCommandKind::kLink) {
      const int id = tracer->Begin("incremental.epoch");
      const slim::EpochResult epoch = OrDie(linker.LinkEpoch());
      tracer->End(id);
      const slim::EpochStats& s = epoch.incremental;
      tracer->Add("incremental.epochs", 1);
      tracer->Add("incremental.pairs_scored",
                  static_cast<double>(s.pairs_scored));
      tracer->Add("incremental.pairs_reused",
                  static_cast<double>(s.pairs_reused));
      tracer->Add("incremental.signatures_reused",
                  static_cast<double>(s.signatures_reused));
      tracer->Add("incremental.signatures",
                  static_cast<double>(linker.context().store_e.size() +
                                      linker.context().store_i.size()));
      tracer->Add("incremental.rescored_all", s.rescored_all ? 1 : 0);
    }
  }
  OrDie(slim::WriteLinksCsv(linker.links(), flags.GetString("links", "")));
}

void RunService(const slim::tools::Flags& flags, int threads,
                Tracer* tracer) {
  slim::LinkageService service(DefaultConfig(threads));
  for (const std::string& line : ReadLines(flags.GetString("stream", ""))) {
    const std::string verb = line.substr(0, line.find(' '));
    const int id = tracer->Begin("serve.execute." + verb);
    const slim::ServeReply reply = service.Execute(line);
    tracer->End(id);
    if (reply.line.rfind("OK", 0) != 0) {
      slim::tools::Flags::Fail("service replied " + reply.line);
    }
    if (verb == "LINK") {
      tracer->Add("serve.event_lines",
                  static_cast<double>(reply.events.size()));
    }
  }
  const slim::ServeReply saved =
      service.Execute("SAVE " + flags.GetString("links", ""));
  if (saved.line.rfind("OK", 0) != 0) {
    slim::tools::Flags::Fail("service replied " + saved.line);
  }
}

// The master population is fixed by --master_seed; --seed only draws the
// sides, so every seed of a workload links the same city or fleet.
void Generate(const slim::tools::Flags& flags) {
  const std::string workload = flags.GetString("workload", "");
  const auto master_seed =
      static_cast<uint64_t>(flags.GetInt("master_seed", 0));
  slim::LocationDataset master;
  if (workload == "cab") {
    slim::CabGeneratorOptions opt;
    opt.num_taxis = static_cast<int>(flags.GetInt("entities", 0));
    opt.duration_days = flags.GetDouble("days", opt.duration_days);
    opt.seed = master_seed;
    master = slim::GenerateCabDataset(opt);
  } else if (workload == "sm") {
    slim::CheckinGeneratorOptions opt;
    opt.num_users = static_cast<int>(flags.GetInt("entities", 0));
    opt.duration_days = flags.GetDouble("days", opt.duration_days);
    opt.seed = master_seed;
    master = slim::GenerateCheckinDataset(opt);
  } else {
    slim::tools::Flags::Fail("unknown --workload: " + workload);
  }
  slim::PairSampleOptions opt;
  opt.entities_per_side =
      static_cast<size_t>(flags.GetInt("side_entities", 0));
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  const slim::LinkedPairSample sample =
      OrDie(slim::SampleLinkedPair(master, opt));
  const auto format =
      OrDie(slim::ParseDatasetFormat(flags.GetString("format", "csv")));
  const std::string prefix = flags.GetString("out_prefix", "");
  const char* ext = format == slim::DatasetFormat::kSbin ? ".sbin" : ".csv";
  OrDie(slim::WriteDataset(sample.a, prefix + "a" + ext, format));
  OrDie(slim::WriteDataset(sample.b, prefix + "b" + ext, format));
  std::vector<slim::LinkedEntityPair> truth;
  for (const auto& [a, b] : sample.truth.a_to_b) truth.push_back({a, b, 1.0});
  OrDie(slim::WriteLinksCsv(truth, prefix + "truth.csv"));
}

}  // namespace

int main(int argc, char** argv) {
  const slim::tools::Flags flags(argc, argv);
  const std::string mode = flags.GetString("mode", "");
  if (mode == "generate") {
    Generate(flags);
    return 0;
  }
  const int threads = static_cast<int>(flags.GetInt("threads", 1));
  const std::string spans = flags.GetString("spans", "");
  if (threads < 1 || spans.empty() || flags.GetString("links", "").empty()) {
    slim::tools::Flags::Fail("need --mode, --threads >= 1, --links, --spans");
  }
  Tracer tracer;
  if (mode == "batch") {
    RunBatch(flags, threads, &tracer);
  } else if (mode == "ooc") {
    RunOoc(flags, threads, &tracer);
  } else if (mode == "incremental") {
    RunIncremental(flags, threads, &tracer);
  } else if (mode == "service") {
    RunService(flags, threads, &tracer);
  } else {
    slim::tools::Flags::Fail("unknown --mode: " + mode);
  }
  if (!tracer.Write(spans)) slim::tools::Flags::Fail("cannot write " + spans);
  return 0;
}
