#include "obs/metrics_io.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "obs/metrics.h"

namespace bolot::obs {
namespace {

TEST(MetricsIoTest, DocumentLayoutIsPinned) {
  MetricsRegistry registry;
  registry.probe_counter("link.drops", [] { return 3.0; });
  registry.probe_gauge("link.util", [] { return 0.25; });
  EXPECT_EQ(metrics_to_json(registry.snapshot(Duration::millis(2))),
            "{\n"
            "  \"at_ns\": 2000000,\n"
            "  \"metrics\": [\n"
            "    {\"name\": \"link.drops\", \"kind\": \"counter\", "
            "\"value\": 3},\n"
            "    {\"name\": \"link.util\", \"kind\": \"gauge\", "
            "\"value\": 0.25}\n"
            "  ],\n"
            "  \"series\": []\n"
            "}\n");
}

TEST(MetricsIoTest, ControlBytesInNamesAreEscaped) {
  MetricsRegistry registry;
  registry.probe_counter("a\tb\r\x01\\c\nd", [] { return 0.0; });
  const std::string json = metrics_to_json(registry.snapshot(SimTime()));
  EXPECT_NE(json.find(R"("name": "a\tb\r\u0001\\c\nd")"),
            std::string::npos)
      << json;
}

TEST(MetricsIoTest, NonFiniteGaugeIsNull) {
  MetricsRegistry registry;
  registry.probe_gauge(
      "gap", [] { return std::numeric_limits<double>::quiet_NaN(); });
  const std::string json = metrics_to_json(registry.snapshot(SimTime()));
  EXPECT_NE(json.find(R"({"name": "gap", "kind": "gauge", "value": null})"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace bolot::obs
