// One malformed FluidBackgroundConfig per validated field, shared by the
// run_topology and run_tomography rejection tests: both entry points build
// their background through one helper, which must refuse each of these
// with a std::invalid_argument naming the field.
#pragma once

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "scenario/scenarios.h"

namespace bolot::scenario {

/// Calls `run(config)` once per malformed variant of `base` and expects
/// each call to throw std::invalid_argument whose message names the field.
template <class Run>
void expect_malformed_fluid_configs_rejected(const FluidBackgroundConfig& base,
                                             Run run) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [&](const char* field, const auto& corrupt) {
    SCOPED_TRACE(field);
    FluidBackgroundConfig config = base;
    corrupt(config);
    try {
      run(config);
      ADD_FAILURE() << "malformed " << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  using Config = FluidBackgroundConfig;
  expect_rejected("duty", [&](Config& c) { c.duty = nan; });
  expect_rejected("duty", [](Config& c) { c.duty = 1.5; });
  expect_rejected("max_link_load", [](Config& c) { c.max_link_load = 0.0; });
  expect_rejected("max_link_load", [](Config& c) { c.max_link_load = 1.5; });
  expect_rejected("max_link_load", [&](Config& c) { c.max_link_load = nan; });
  // Fluid rates fold at float precision: a peak calibrated past FLT_MAX
  // from a tiny duty must not fold as infinity.
  expect_rejected("duty", [](Config& c) { c.duty = 1e-40; });
  expect_rejected("envelope_states", [](Config& c) {
    c.envelope_states = 1;
  });
}

}  // namespace bolot::scenario
