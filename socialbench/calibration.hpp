#pragma once

#include <string>
#include <vector>

namespace socialbench {

struct Pin {
  std::string name;
  double expected_ms = 0;
  double measured_ms = 0;
  bool ok = false;
};

// Measure every paper-calibration pin on its own small universe.
std::vector<Pin> measurePins();

}  // namespace socialbench
