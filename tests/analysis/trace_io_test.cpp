#include "analysis/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tests/analysis/trace_fixtures.h"
#include "util/rng.h"

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

/// Parses an empty trace whose metadata line is `header` and returns the
/// rejection message ("" when the header is accepted).
std::string header_error(const std::string& header) {
  std::stringstream buffer("# bolot-trace v1\n" + header +
                           "\nseq,send_ns,received,rtt_ns,echo_ns\n");
  try {
    read_trace_csv(buffer);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(TraceIoTest, RejectsNonPositiveDelta) {
  EXPECT_EQ(header_error("# delta_ns=0 probe_wire_bytes=72 clock_tick_ns=0"),
            "trace csv: delta_ns must be positive, got 0");
  EXPECT_EQ(
      header_error("# delta_ns=-50000000 probe_wire_bytes=72 clock_tick_ns=0"),
      "trace csv: delta_ns must be positive, got -50000000");
  EXPECT_EQ(header_error("# delta_ns=1 probe_wire_bytes=72 clock_tick_ns=0"),
            "");
}

TEST(TraceIoTest, RejectsNonPositiveProbeWireBytes) {
  EXPECT_EQ(
      header_error("# delta_ns=50000000 probe_wire_bytes=0 clock_tick_ns=0"),
      "trace csv: probe_wire_bytes must be positive, got 0");
  EXPECT_EQ(
      header_error("# delta_ns=50000000 probe_wire_bytes=-72 clock_tick_ns=0"),
      "trace csv: probe_wire_bytes must be positive, got -72");
  EXPECT_EQ(
      header_error("# delta_ns=50000000 probe_wire_bytes=1 clock_tick_ns=0"),
      "");
}

TEST(TraceIoTest, RejectsNegativeClockTick) {
  EXPECT_EQ(
      header_error("# delta_ns=50000000 probe_wire_bytes=72 clock_tick_ns=-3"),
      "trace csv: clock_tick_ns must not be negative, got -3");
  // Zero is the exact clock.
  EXPECT_EQ(
      header_error("# delta_ns=50000000 probe_wire_bytes=72 clock_tick_ns=0"),
      "");
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

/// read_trace_csv's contract on `text`: it throws std::runtime_error and
/// nothing else, or it returns a trace that meets every documented
/// invariant and reads back unchanged from its own write_trace_csv.
/// `accepted` says which.
::testing::AssertionResult reads_per_contract(const std::string& text,
                                              bool& accepted) {
  ProbeTrace trace;
  try {
    std::istringstream in(text);
    trace = read_trace_csv(in);
  } catch (const std::runtime_error&) {
    accepted = false;
    return ::testing::AssertionSuccess();
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure()
           << "threw something other than std::runtime_error: " << e.what();
  } catch (...) {
    return ::testing::AssertionFailure() << "threw a non-std exception";
  }
  accepted = true;
  if (trace.delta <= Duration::zero()) {
    return ::testing::AssertionFailure() << "accepted delta_ns "
                                         << trace.delta.count_nanos();
  }
  if (trace.probe_wire_bytes <= 0) {
    return ::testing::AssertionFailure() << "accepted probe_wire_bytes "
                                         << trace.probe_wire_bytes;
  }
  if (trace.clock_tick.is_negative()) {
    return ::testing::AssertionFailure() << "accepted clock_tick_ns "
                                         << trace.clock_tick.count_nanos();
  }
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const ProbeRecord& r = trace.records[i];
    if (r.seq != i) {
      return ::testing::AssertionFailure() << "seq " << r.seq << " at " << i;
    }
    if (r.rtt.is_negative() || (!r.received && !r.rtt.is_zero())) {
      return ::testing::AssertionFailure()
             << "accepted rtt_ns " << r.rtt.count_nanos() << " (received "
             << r.received << ") at seq " << i;
    }
  }
  std::stringstream buffer;
  write_trace_csv(buffer, trace);
  const ProbeTrace again = read_trace_csv(buffer);
  bool same = again.delta == trace.delta &&
              again.probe_wire_bytes == trace.probe_wire_bytes &&
              again.clock_tick == trace.clock_tick &&
              again.records.size() == trace.records.size();
  for (std::size_t i = 0; same && i < trace.records.size(); ++i) {
    const ProbeRecord& a = again.records[i];
    const ProbeRecord& b = trace.records[i];
    same = a.seq == b.seq && a.send_time == b.send_time &&
           a.received == b.received && a.rtt == b.rtt &&
           a.echo_time == b.echo_time;
  }
  if (!same) return ::testing::AssertionFailure() << "round trip changed it";
  return ::testing::AssertionSuccess();
}

TEST(TraceIoTest, ReadAcceptsExactlyTheWellFormedUnderMutation) {
  std::vector<std::optional<double>> rtts;
  for (int i = 0; i < 40; ++i) {
    rtts.push_back(i % 6 == 0 ? std::nullopt
                              : std::optional<double>(140.0 + 3.906 * (i % 9)));
  }
  ProbeTrace original = make_trace(50, rtts, 72, 3.906);
  for (ProbeRecord& r : original.records) {
    if (r.received) r.echo_time = r.send_time + r.rtt / 2;
  }
  std::stringstream written;
  write_trace_csv(written, original);
  const std::string base = written.str();
  bool accepted = false;
  ASSERT_TRUE(reads_per_contract(base, accepted));
  ASSERT_TRUE(accepted);

  // Every truncation, so each header field and row is cut at each byte.
  for (std::size_t length = 0; length <= base.size(); ++length) {
    ASSERT_TRUE(reads_per_contract(base.substr(0, length), accepted))
        << "length " << length;
  }

  // Seeded random edits: one to three of a byte rewrite, a digit change,
  // a sign or space inserted, a line deleted or duplicated, a truncation.
  Rng rng(0x7472616365ULL);
  std::size_t accepted_count = 0;
  constexpr int kMutations = 10'000;
  for (int i = 0; i < kMutations; ++i) {
    std::string text = base;
    const std::uint64_t edits = 1 + rng.uniform_int(3);
    for (std::uint64_t k = 0; k < edits && !text.empty(); ++k) {
      const std::size_t at = rng.uniform_int(text.size());
      const std::size_t line_start =
          at == 0 ? 0 : text.rfind('\n', at - 1) + 1;
      std::size_t line_end = text.find('\n', at);
      line_end = line_end == std::string::npos ? text.size() : line_end + 1;
      switch (rng.uniform_int(6)) {
        case 0:
          text[at] = static_cast<char>(rng.uniform_int(256));
          break;
        case 1:
          if (text[at] >= '0' && text[at] <= '9') {
            text[at] = static_cast<char>('0' + rng.uniform_int(10));
          }
          break;
        case 2:
          text.insert(at, 1, "-+ "[rng.uniform_int(3)]);
          break;
        case 3:
          text.erase(line_start, line_end - line_start);
          break;
        case 4:
          text.insert(line_start,
                      text.substr(line_start, line_end - line_start));
          break;
        default:
          text.resize(at);
          break;
      }
    }
    ASSERT_TRUE(reads_per_contract(text, accepted)) << "mutation " << i;
    if (accepted) ++accepted_count;
  }
  // Both outcomes are well represented, so neither side is vacuous.
  EXPECT_GT(accepted_count, 500u);
  EXPECT_LT(accepted_count, 9000u);
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
