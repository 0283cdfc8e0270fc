#include "analysis/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "tests/analysis/trace_fixtures.h"

namespace bolot::analysis {
namespace {

using testing::make_trace;

ProbeTrace sample_trace() {
  auto trace = make_trace(50, {141.2, std::nullopt, 160.75}, 72, 3.906);
  trace.records[0].echo_time = Duration::millis(70.5);
  trace.records[2].echo_time = Duration::millis(181.0);
  return trace;
}

TEST(TraceIoTest, RoundTripsAllFields) {
  const ProbeTrace original = sample_trace();
  std::stringstream buffer;
  write_trace_csv(buffer, original);
  const ProbeTrace loaded = read_trace_csv(buffer);

  EXPECT_EQ(loaded.delta, original.delta);
  EXPECT_EQ(loaded.probe_wire_bytes, original.probe_wire_bytes);
  EXPECT_EQ(loaded.clock_tick, original.clock_tick);
  ASSERT_EQ(loaded.records.size(), original.records.size());
  for (std::size_t i = 0; i < loaded.records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].seq, original.records[i].seq);
    EXPECT_EQ(loaded.records[i].send_time, original.records[i].send_time);
    EXPECT_EQ(loaded.records[i].received, original.records[i].received);
    EXPECT_EQ(loaded.records[i].rtt, original.records[i].rtt);
    EXPECT_EQ(loaded.records[i].echo_time, original.records[i].echo_time);
  }
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  const ProbeTrace original = make_trace(20, {});
  std::stringstream buffer;
  write_trace_csv(buffer, original);
  const ProbeTrace loaded = read_trace_csv(buffer);
  EXPECT_EQ(loaded.records.size(), 0u);
  EXPECT_EQ(loaded.delta, Duration::millis(20));
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/bolot_trace_test.csv";
  const ProbeTrace original = sample_trace();
  save_trace_csv(path, original);
  const ProbeTrace loaded = load_trace_csv(path);
  EXPECT_EQ(loaded.records.size(), original.records.size());
  std::remove(path.c_str());
}

TEST(TraceIoTest, LoadRejectsMissingFile) {
  EXPECT_THROW(load_trace_csv("/nonexistent/path/trace.csv"),
               std::runtime_error);
}

TEST(TraceIoTest, RejectsBadMagic) {
  std::stringstream buffer("# something else\n");
  EXPECT_THROW(read_trace_csv(buffer), std::runtime_error);
}

TEST(TraceIoTest, RejectsWrongFieldCount) {
  std::stringstream buffer(
      "# bolot-trace v1\n"
      "# delta_ns=50000000 probe_wire_bytes=72 clock_tick_ns=0\n"
      "seq,send_ns,received,rtt_ns,echo_ns\n"
      "0,0,1\n");
  EXPECT_THROW(read_trace_csv(buffer), std::runtime_error);
}

TEST(TraceIoTest, RejectsNonNumericCell) {
  std::stringstream buffer(
      "# bolot-trace v1\n"
      "# delta_ns=50000000 probe_wire_bytes=72 clock_tick_ns=0\n"
      "seq,send_ns,received,rtt_ns,echo_ns\n"
      "0,zero,1,1000,0\n");
  EXPECT_THROW(read_trace_csv(buffer), std::runtime_error);
}

TEST(TraceIoTest, RejectsNonDenseSequenceNumbers) {
  std::stringstream buffer(
      "# bolot-trace v1\n"
      "# delta_ns=50000000 probe_wire_bytes=72 clock_tick_ns=0\n"
      "seq,send_ns,received,rtt_ns,echo_ns\n"
      "1,0,1,1000,0\n");
  EXPECT_THROW(read_trace_csv(buffer), std::runtime_error);
}

TEST(TraceIoTest, RejectsMissingHeaderField) {
  std::stringstream buffer(
      "# bolot-trace v1\n"
      "# delta_ns=50000000 probe_wire_bytes=72\n"
      "seq,send_ns,received,rtt_ns,echo_ns\n");
  EXPECT_THROW(read_trace_csv(buffer), std::runtime_error);
}

/// Parses a one-row trace and returns the rejection message ("" when the
/// row is accepted).
std::string row_error(const std::string& row) {
  std::stringstream buffer(
      "# bolot-trace v1\n"
      "# delta_ns=50000000 probe_wire_bytes=72 clock_tick_ns=0\n"
      "seq,send_ns,received,rtt_ns,echo_ns\n"
      "0,0,1,141000000,0\n" +
      row + "\n");
  try {
    read_trace_csv(buffer);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(TraceIoTest, RejectsReceivedOtherThanZeroOrOne) {
  EXPECT_EQ(row_error("1,50000000,2,141000000,0"),
            "trace csv: received must be 0 or 1, got 2 at seq 1");
  EXPECT_EQ(row_error("1,50000000,-1,0,0"),
            "trace csv: received must be 0 or 1, got -1 at seq 1");
}

TEST(TraceIoTest, RejectsNegativeRtt) {
  EXPECT_EQ(row_error("1,50000000,1,-5,0"),
            "trace csv: negative rtt_ns -5 at seq 1");
}

TEST(TraceIoTest, RejectsLostProbeCarryingRtt) {
  EXPECT_EQ(row_error("1,50000000,0,141000000,0"),
            "trace csv: lost probe carries rtt_ns 141000000 at seq 1");
  // The boundary rows every writer produces still load.
  EXPECT_EQ(row_error("1,50000000,0,0,0"), "");
  EXPECT_EQ(row_error("1,50000000,1,0,0"), "");
}

TEST(TraceIoTest, AnalysisWorksOnReloadedTrace) {
  // The round trip preserves enough for every analysis entry point.
  std::vector<std::optional<double>> rtts;
  for (int i = 0; i < 100; ++i) {
    rtts.push_back(i % 7 == 0 ? std::nullopt
                              : std::optional<double>(140.0 + i % 5));
  }
  const ProbeTrace original = make_trace(50, rtts);
  std::stringstream buffer;
  write_trace_csv(buffer, original);
  const ProbeTrace loaded = read_trace_csv(buffer);
  EXPECT_EQ(loaded.lost_count(), original.lost_count());
  EXPECT_EQ(loaded.rtt_ms_received(), original.rtt_ms_received());
}

}  // namespace
}  // namespace bolot::analysis
