// Per-layer metrics of a traced run, derived from its spans alone, and the
// per-layer self-time summary.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {

/// Every per-layer metric, in a fixed order, on every workload. A metric
/// whose layer does no work on the workload reads 0.
std::vector<Metric> PerLayerMetrics(const Trace& trace);

/// Prints each layer's self time (span time not covered by child spans)
/// to stderr.
void PrintLayerSelfTimes(const Trace& trace);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
