// Shared pieces of the three workloads: run configuration, the outcome a
// run reports (operations, checks, metrics), the seeded input panel, and
// the benchmark's own reference computations over raw bits.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/release_log.h"
#include "data/longitudinal_dataset.h"
#include "data/round_view.h"
#include "util/status.h"

namespace perfbench {

// The shared input model (ROADMAP's measured starting point uses the same
// parameters): a two-state Markov panel over a 24-round horizon.
inline constexpr int64_t kHorizon = 24;
inline constexpr double kRho = 0.005;
inline constexpr int kWindowK = 3;
inline constexpr int kCatK = 2;
inline constexpr int kCatAlphabet = 4;
inline constexpr double kInitialRate = 0.10;
inline constexpr double kEntryProb = 0.03;
inline constexpr double kExitProb = 0.25;

/// Fault a self-test injects to prove a check fires (empty = none).
enum class Fault { kNone, kFlipReleaseBin, kFlipPanelBit, kWalMismatch };

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: populations shrink ~100x so a run takes seconds.
  bool small = false;
  Fault fault = Fault::kNone;
  /// Scratch directory for sessions and archives (inside the checkout).
  std::string work_dir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a run reports: operations attempted and failed, failed checks,
/// and metrics in print order.
class Outcome {
 public:
  /// Counts one operation; returns st.ok(). A failure is logged.
  bool Op(const longdp::Status& st, const char* what);
  template <typename T>
  bool Op(const longdp::Result<T>& r, const char* what) {
    if (!r.ok()) return Op(r.status(), what);
    ++attempted_;
    return true;
  }
  /// Records a correctness check; a false `ok` marks the run incorrect.
  void Check(bool ok, const std::string& what);
  void Add(const std::string& name, const std::string& unit, double value);

  /// Peak resident set at the end of the first pass (set by RunPasses):
  /// later passes add no new state, only allocator retention, and how many
  /// passes fit depends on the machine's speed.
  void set_peak_rss_mb(double mb) { peak_rss_mb_ = mb; }
  double peak_rss_mb() const { return peak_rss_mb_; }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return check_failures_ == 0; }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t check_failures_ = 0;
  double peak_rss_mb_ = 0.0;
  std::vector<Metric> metrics_;
};

double Seconds(int64_t start_ns);
double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
/// Process high-water resident set, MB.
double PeakRssMb();
/// Current resident set, MB.
double CurrentRssMb();
/// Total bytes of regular files under `path` (recursive).
int64_t DiskBytes(const std::string& path);
/// Recreates `path` as an empty directory.
bool ResetDir(const std::string& path);
/// SplitMix64 of (seed, salt): independent seeds per input stream.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Runs `setup` `reps` times and returns the median wall time; the state
/// the last call leaves behind is the one the workload uses.
double TimeSetup(int reps, const std::function<longdp::Status()>& setup,
                 Outcome* out);

/// Runs `pass` once, then again while another pass is predicted to end
/// within `seconds` of the first pass's start. Every run therefore
/// attempts whole passes. Returns the per-pass wall times, and records
/// the peak resident set after the first pass in `out`.
std::vector<double> RunPasses(double seconds,
                              const std::function<longdp::Status()>& pass,
                              Outcome* out);

/// A bit-packed panel, rounds-major: the bit of user i at round t is
/// words[(t-1) * wpr + i/64] >> (i%64) & 1, trailing bits zero.
struct Panel {
  int64_t n = 0;
  int64_t horizon = 0;
  size_t wpr = 0;
  std::vector<uint64_t> words;

  longdp::data::RoundView Round(int64_t t) const {
    return longdp::data::RoundView(
        words.data() + static_cast<size_t>(t - 1) * wpr, n);
  }
  int Bit(int64_t i, int64_t t) const {
    return static_cast<int>(
        (words[static_cast<size_t>(t - 1) * wpr + static_cast<size_t>(i >> 6)] >>
         (i & 63)) & 1);
  }
};

/// Keyed two-state Markov panel of `n` users (kInitialRate, kEntryProb,
/// kExitProb). Users are generated by data::TwoStateMarkov in blocks of
/// 10^6 users, block b keyed by MixSeed(seed, b), so the generator's
/// per-round weight table (4 bytes per user per round) never holds more
/// than one block and set-up does not set the run's memory high-water.
longdp::Result<Panel> MakeMarkovPanel(int64_t n, int64_t horizon,
                                      uint64_t seed);

/// The packed rounds of a materialized (synthetic) dataset.
Panel PackDataset(const longdp::data::LongitudinalDataset& ds);

/// Categorical rounds over the first `m` users of `panel`: the symbol of
/// user i at round t is x^t_i + 2 x^{t-1}_i (0 out, 1 entered, 2 left,
/// 3 stayed in), with x^0 = 0.
std::vector<std::vector<uint8_t>> CategoricalRounds(const Panel& panel,
                                                    int64_t m);

/// Round t of `panel` as one byte per user.
std::vector<uint8_t> RoundBytes(const Panel& panel, int64_t t);

/// True width-k window histogram at time t (t >= k), counted from the raw
/// bits; bin index is oldest-bit-first (newest bit least significant).
std::vector<int64_t> TrueWindowHistogram(const Panel& panel, int64_t t, int k);

/// True cumulative thresholds: result[t-1][b] = #{i : weight_i(t) >= b}.
std::vector<std::vector<int64_t>> TrueThresholds(const Panel& panel);

/// Theorem 3.2 bound on max_{s,t} |p^t_s - (C^t_s + n_pad)|.
double FixedWindowBound(int64_t horizon, int k, double rho, double beta);
/// Corollary B.1 bound on max_{t,b} |Shat^t_b - S^t_b| in counts (alpha*
/// times n): sqrt(sum_b L_b^3 / rho * log(1/beta)).
double CumulativeCountBound(int64_t horizon, double rho, double beta);

/// The CSV serialization of `log` (ReleaseLog::WriteCsv through `path`),
/// for byte-for-byte comparisons.
longdp::Result<std::string> LogCsv(const longdp::core::ReleaseLog& log,
                                   const std::string& path);

/// Sliding-window consistency (Algorithm 1, and its base-A form) between
/// consecutive histograms over base-`alphabet` width-k patterns.
bool WindowConsistent(const std::vector<int64_t>& prev,
                      const std::vector<int64_t>& cur, int alphabet, int k);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
