/**
 * @file
 * The validation behind tools/metrics_check, callable from tests.
 */

#ifndef DARKSIDE_TOOLS_METRICS_VALIDATE_HH
#define DARKSIDE_TOOLS_METRICS_VALIDATE_HH

#include <string>
#include <vector>

namespace darkside {

/**
 * Problems of one darkside-metrics-v1 document, one message each;
 * empty when it is valid. Checks the schema and section shapes, the
 * catalog rule (telemetry::checkCatalog) and the fault.injected.<probe>
 * family against the probe registry. With `expect_faults`, a document
 * whose fault.injected.* total is zero (or absent) is a problem.
 */
std::vector<std::string> validateMetricsJson(const std::string &text,
                                             bool expect_faults);

} // namespace darkside

#endif // DARKSIDE_TOOLS_METRICS_VALIDATE_HH
