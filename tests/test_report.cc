#include "eval/report.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "data/cab_generator.h"
#include "data/sampler.h"

namespace slim {
namespace {

const LinkageResult& SampleResult() {
  static const LinkageResult result = [] {
    CabGeneratorOptions gopt;
    gopt.num_taxis = 24;
    gopt.duration_days = 1.5;
    gopt.record_interval_seconds = 300.0;
    const LocationDataset master = GenerateCabDataset(gopt);
    PairSampleOptions opt;
    opt.entities_per_side = 12;
    auto s = SampleLinkedPair(master, opt);
    SLIM_CHECK(s.ok());
    SlimConfig cfg;
    cfg.candidates = CandidateKind::kBruteForce;
    auto r = SlimLinker(cfg).Link(s->a, s->b);
    SLIM_CHECK(r.ok());
    return std::move(r.value());
  }();
  return result;
}

TEST(Report, ContainsHeadlineSections) {
  ReportOptions opt;
  opt.title = "Test run";
  opt.dataset_a = "meters";
  opt.dataset_b = "wifi";
  const std::string md = RenderLinkageReport(SampleResult(), opt);
  EXPECT_NE(md.find("# Test run"), std::string::npos);
  EXPECT_NE(md.find("`meters`"), std::string::npos);
  EXPECT_NE(md.find("`wifi`"), std::string::npos);
  EXPECT_NE(md.find("## Headline"), std::string::npos);
  EXPECT_NE(md.find("## Phase timings"), std::string::npos);
  EXPECT_NE(md.find("links produced"), std::string::npos);
}

// A run that skipped the edge graph still reports its positive-score edge
// count, from the seal's own record of it.
TEST(Report, EdgeCountWithoutGraph) {
  LinkageResult result = SampleResult();
  ASSERT_GT(result.graph.num_edges(), 0u);
  const std::string expected =
      "positive-score candidate edges:** " +
      std::to_string(result.graph.num_edges()) + "\n";
  result.graph = BipartiteGraph();
  const std::string md = RenderLinkageReport(result, ReportOptions());
  EXPECT_NE(md.find(expected), std::string::npos) << md;
}

TEST(Report, QualitySectionOnlyWhenProvided) {
  ReportOptions opt;
  const std::string without = RenderLinkageReport(SampleResult(), opt);
  EXPECT_EQ(without.find("Ground-truth quality"), std::string::npos);

  LinkageQuality q;
  q.precision = 0.9;
  q.recall = 0.8;
  q.f1 = 0.847;
  opt.quality = q;
  const std::string with = RenderLinkageReport(SampleResult(), opt);
  EXPECT_NE(with.find("Ground-truth quality"), std::string::npos);
  EXPECT_NE(with.find("0.9000"), std::string::npos);
}

TEST(Report, HistogramSectionForMultiPairResults) {
  ReportOptions opt;
  const std::string md = RenderLinkageReport(SampleResult(), opt);
  if (SampleResult().matching.pairs.size() >= 2) {
    EXPECT_NE(md.find("Matched-score distribution"), std::string::npos);
    EXPECT_NE(md.find('#'), std::string::npos);
  }
}

TEST(Report, ThresholdFailOpenIsExplained) {
  LinkageResult r;  // empty result: threshold_valid = false
  ReportOptions opt;
  const std::string md = RenderLinkageReport(r, opt);
  EXPECT_NE(md.find("not applied"), std::string::npos);
}

TEST(Report, WriteReportToFile) {
  const std::string path = "/tmp/slim_report_test.md";
  ASSERT_TRUE(WriteLinkageReport(SampleResult(), ReportOptions{}, path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(
      WriteLinkageReport(SampleResult(), ReportOptions{}, "/nope/x.md").ok());
}

}  // namespace
}  // namespace slim
