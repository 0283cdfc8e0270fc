#include "analysis/report.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "scenario/scenarios.h"
#include "tests/analysis/trace_fixtures.h"

namespace bolot::analysis {
namespace {

using testing::make_trace;

TEST(FullReportTest, ThrowsOnEmptyTrace) {
  EXPECT_THROW(full_report(make_trace(50, {})), std::invalid_argument);
}

TEST(FullReportTest, ContainsEverySectionOnRichTrace) {
  scenario::ProbePlan plan;
  plan.delta = Duration::millis(20);
  plan.duration = Duration::minutes(5);
  const auto result = scenario::run_inria_umd(plan);
  const std::string report = full_report(result.trace);

  for (const char* section :
       {"== Overview ==", "== Delay (section 4) ==",
        "== Cross-traffic workload (eq. 6) ==", "== Loss (section 5) ==",
        "== Sequencing ==", "== Models (section 3 program) =="}) {
    EXPECT_NE(report.find(section), std::string::npos) << section;
  }
  // A rich trace yields real content, not fallbacks.
  EXPECT_NE(report.find("bottleneck mu-hat:"), std::string::npos);
  EXPECT_NE(report.find("Gilbert fit"), std::string::npos);
  EXPECT_NE(report.find("AR(1)"), std::string::npos);
  EXPECT_NE(report.find("one-way queueing split"), std::string::npos);
  EXPECT_NE(report.find("phase plot"), std::string::npos);
}

TEST(FullReportTest, GracefulOnLossFreeShortTrace) {
  // A short, loss-free trace without echo stamps: sections degrade to
  // informative fallbacks instead of throwing.
  const auto trace = make_trace(
      50, {141.0, 142.0, 141.5, 143.0, 141.0, 142.5, 141.2, 142.8});
  const std::string report = full_report(trace);
  EXPECT_NE(report.find("no losses observed"), std::string::npos);
  EXPECT_NE(report.find("one-way analysis: no echo timestamps"),
            std::string::npos);
  EXPECT_NE(report.find("series too short for model fitting"),
            std::string::npos);
}

TEST(FullReportTest, AllLostTraceMentionsReachability) {
  const auto trace =
      make_trace(50, {std::nullopt, std::nullopt, std::nullopt});
  const std::string report = full_report(trace);
  EXPECT_NE(report.find("every probe lost"), std::string::npos);
}

TEST(FullReportTest, PlotsCanBeDisabled) {
  // There is no switch: the phase plot and the models section are
  // always rendered.
  scenario::ProbePlan plan;
  plan.delta = Duration::millis(50);
  plan.duration = Duration::minutes(1);
  const auto result = scenario::run_inria_umd(plan);
  const std::string report = full_report(result.trace);
  EXPECT_NE(report.find("[y: rtt_{n+1}"), std::string::npos);
  EXPECT_NE(report.find("== Models"), std::string::npos);
  EXPECT_NE(report.find("AR(1): phi = "), std::string::npos);
}

TEST(FullReportTest, RejectsNonPositiveOrNonFiniteBottleneckRate) {
  // A forced rate that is set must be usable, never silently replaced
  // by the trace's own estimate or used as NaN.
  const auto trace = make_trace(50, {100.0, 101.0, 102.0});
  for (const double mu : {0.0, -5.0, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(mu);
    ReportOptions options;
    options.bottleneck_bps = mu;
    try {
      full_report(trace, options);
      ADD_FAILURE() << "bottleneck_bps " << mu << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bottleneck_bps"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FullReportTest, ForcedBottleneckRateIsUsed) {
  scenario::ProbePlan plan;
  plan.delta = Duration::millis(20);
  plan.duration = Duration::minutes(2);
  const auto result = scenario::run_inria_umd(plan);
  ReportOptions options;
  options.bottleneck_bps = 128e3;
  const std::string report = full_report(result.trace, options);
  EXPECT_NE(report.find("inverting with mu = 128.0 kb/s"), std::string::npos);
}

}  // namespace
}  // namespace bolot::analysis
