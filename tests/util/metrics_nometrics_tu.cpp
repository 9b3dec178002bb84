// Compiled with -DCCVC_NO_METRICS (see tests/CMakeLists.txt) while the
// rest of the binary is not: proves the macro no-op variants compile,
// "use" their arguments (no -Werror=unused fallout), and leave the
// registry untouched.  metrics_test.cpp calls the probe and asserts
// nothing under "test.nometrics." was registered.
#include "util/metrics.hpp"
#include "util/trace.hpp"

#if !defined(CCVC_NO_METRICS)
#error "this TU must be compiled with CCVC_NO_METRICS"
#endif

namespace ccvc::util {

void metrics_nometrics_probe() {
  const int depth = 3;
  CCVC_METRIC_COUNT("test.nometrics.counter", 1);
  CCVC_METRIC_GAUGE_SET("test.nometrics.gauge", depth);
  CCVC_METRIC_HIST("test.nometrics.hist", depth);
  CCVC_METRIC_TALLY(sizes, "test.nometrics.tally");
  for (int i = 0; i < depth; ++i) sizes.add(static_cast<std::uint64_t>(i));
  sizes.record();
  CCVC_TRACE(trace::EventType::kChannelSend, 0.0, 0, 0, 0);
}

}  // namespace ccvc::util
