// Benchmark entry point.
//
//   perfbench --workload <release_5m|durable_1m|serve_archive> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//             [--trace-out <file>] [--small] [--fault <name>]
//
// Prints a human-readable report on stderr and, as the last line of
// stdout, one JSON object: correct, attempted, failed, and the end-to-end
// metrics (--trace 0) or the per-layer metrics derived from the spans
// (--trace 1). --small and --fault exist for the benchmark's self-tests.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "layers.h"
#include "trace.h"
#include "util/simd/simd.h"
#include "workloads.h"

namespace perfbench {

void AddEndToEnd(double setup_s, const std::vector<double>& pass_s,
                 double fixed_window_per_s, double cumulative_per_s,
                 double categorical_per_s, Outcome* out) {
  out->Add("setup_s", "s", setup_s);
  out->Add("peak_rss_mb", "MB", out->peak_rss_mb());
  out->Add("pass_s", "s", Median(pass_s));
  out->Add("fixed_window.per_s", "1/s", fixed_window_per_s);
  out->Add("cumulative.per_s", "1/s", cumulative_per_s);
  out->Add("categorical.per_s", "1/s", categorical_per_s);
}

namespace {

int Usage(const char* why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <release_5m|durable_1m|"
               "serve_archive> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--trace-out <file>] [--small] "
               "[--fault flip_release_bin|flip_panel_bit|wal_mismatch]\n";
  return 2;
}

void PrintJson(const Outcome& out, const std::vector<Metric>& metrics,
               bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(out.attempted()),
              static_cast<long long>(out.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Report(const char* title, const std::vector<Metric>& metrics) {
  std::cerr << title << "\n";
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::string trace_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--small") {
      cfg.small = true;
      continue;
    }
    if ((v = next()) == nullptr) return Usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::string(v) == "1";
    } else if (arg == "--work-dir") {
      cfg.work_dir = v;
    } else if (arg == "--trace-out") {
      trace_out = v;
    } else if (arg == "--fault") {
      const std::string f = v;
      if (f == "flip_release_bin") {
        cfg.fault = Fault::kFlipReleaseBin;
      } else if (f == "flip_panel_bit") {
        cfg.fault = Fault::kFlipPanelBit;
      } else if (f == "wal_mismatch") {
        cfg.fault = Fault::kWalMismatch;
      } else {
        return Usage("unknown fault");
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");
  if (cfg.work_dir.empty()) return Usage("--work-dir is required");
  if (!(cfg.seconds > 0.0)) return Usage("--seconds must be > 0");
  if (!ResetDir(cfg.work_dir)) return Usage("cannot create --work-dir");

  Trace::Get().set_enabled(cfg.trace);
  std::cerr << "perfbench " << cfg.workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace
            << " simd=" << longdp::util::simd::IsaLevelName(
                               longdp::util::simd::ActiveIsaLevel())
            << (cfg.small ? " small" : "") << "\n";

  Outcome out;
  if (cfg.workload == "release_5m") {
    RunRelease(cfg, &out);
  } else if (cfg.workload == "durable_1m") {
    RunDurable(cfg, &out);
  } else if (cfg.workload == "serve_archive") {
    RunServe(cfg, &out);
  } else {
    return Usage("unknown workload");
  }
  ResetDir(cfg.work_dir);
  std::error_code ec;
  std::filesystem::remove(cfg.work_dir, ec);

  bool correct = out.correct();
  std::vector<Metric> printed = out.metrics();
  Report("end-to-end:", out.metrics());
  if (cfg.trace) {
    printed = PerLayerMetrics(Trace::Get());
    Report("per-layer (traced run):", printed);
    PrintLayerSelfTimes(Trace::Get());
    if (!trace_out.empty() && !Trace::Get().Write(trace_out)) {
      std::cerr << "cannot write trace to " << trace_out << "\n";
      correct = false;
    }
  }
  for (Metric& m : printed) {
    if (!std::isfinite(m.value)) {
      std::cerr << "metric " << m.name << " is not finite\n";
      m.value = 0.0;
      correct = false;
    }
  }
  std::cerr << "attempted=" << out.attempted() << " failed=" << out.failed()
            << " correct=" << (correct ? "true" : "false") << "\n";
  PrintJson(out, printed, correct);
  return correct ? 0 : 1;
}
