// The three workloads. Each sets up its inputs, runs whole timed passes
// for Config::seconds, checks every output, and fills the end-to-end
// metrics into the Outcome (the traced run's per-layer metrics are
// derived from the spans afterwards, in layers.cc).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Continual release held in memory: fixed-window and cumulative at 5M
/// users, categorical at 1M, T = 24; no disk.
void RunRelease(const Config& cfg, Outcome* out);

/// The durable curator at 1M users: WAL + snapshot cuts, a crash after
/// round 22, recovery, and the seal into one .ldpa archive.
void RunDurable(const Config& cfg, Outcome* out);

/// The analyst: open a sealed archive and serve a fixed query battery.
void RunServe(const Config& cfg, Outcome* out);

/// The metrics every workload prints, in order, for end-to-end runs.
void AddEndToEnd(double setup_s, const std::vector<double>& pass_s,
                 double fixed_window_per_s, double cumulative_per_s,
                 double categorical_per_s, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
