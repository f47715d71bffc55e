// release_5m: the three synthesizers' continual release held in memory.
//
// Stage 2 (cohort extension and promotion) is most of a round at this
// size, so core/dp/stream/util::simd work shows here while persist and
// archive do none. Every pass runs with no worker pool: stage 2 is serial
// and extra lanes only widened the spread in sizing runs.
#include <cmath>
#include <string>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "core/release_log.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using longdp::Status;
using longdp::core::CategoricalWindowSynthesizer;
using longdp::core::CumulativeSynthesizer;
using longdp::core::FixedWindowSynthesizer;
using longdp::core::ReleaseLog;
using longdp::core::WindowRelease;

// A failure probability small enough that a correct program fails a
// bound check less than once in 10^6 runs (see the cumulative note).
constexpr double kFixedWindowBeta = 1e-7;
// Corollary B.1 sizes L_b = ceil(log2(T-b+1)) levels, while a tree over
// 2^j leaves has j+1: for those counters the noise variance is up to 2x
// the corollary's, which turns its per-(t,b) tail beta into 2*sqrt(beta).
// 1e-20 keeps the union over all T^2 (t,b) pairs below 1e-7.
constexpr double kCumulativeBeta = 1e-20;

// What the checks need from one synthesizer pass (the synthesizer itself
// is freed inside the pass, as a curator's would be at the horizon).
struct Facts {
  double seconds = 0.0;  // Create through the last ObserveRound
  double spent = 0.0;
  double total = 0.0;
  double sigma2 = 0.0;
  int64_t npad = 0;
  ReleaseLog log;
};

struct PassResult {
  Facts fw, cu, cat;
};

bool SameRho(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::fabs(b);
}

template <typename Synth>
void Account(const Synth& synth, Facts* facts) {
  facts->spent = synth.accountant().spent();
  facts->total = synth.accountant().total();
}

Status FixedWindowPass(const Panel& panel, uint64_t seed, Facts* facts) {
  ScopedSpan pass("core.fixed_window.pass");
  const double rss0 = CurrentRssMb();
  const int64_t start = NowNs();
  FixedWindowSynthesizer::Options opt;
  opt.horizon = kHorizon;
  opt.window_k = kWindowK;
  opt.rho = kRho;
  opt.seed = seed;
  LONGDP_ASSIGN_OR_RETURN(auto synth, FixedWindowSynthesizer::Create(opt));
  for (int64_t t = 1; t <= kHorizon; ++t) {
    ScopedSpan round(t < kWindowK    ? "core.fixed_window.buffer_round"
                     : t == kWindowK ? "core.fixed_window.first_release"
                                     : "core.fixed_window.round");
    LONGDP_RETURN_NOT_OK(synth->ObserveRound(panel.Round(t)));
    round.Close();
    LONGDP_RETURN_NOT_OK(facts->log.Capture(*synth));
  }
  facts->seconds = Seconds(start);
  pass.Attr("state_mb", CurrentRssMb() - rss0);
  pass.Attr("negative_clamps", static_cast<double>(synth->stats().negative_clamps));
  pass.Attr("rounding_draws", static_cast<double>(synth->stats().rounding_draws));
  Account(*synth, facts);
  facts->sigma2 = synth->sigma2();
  facts->npad = synth->npad();
  return Status::OK();
}

Status CumulativePass(const Panel& panel, uint64_t seed, Facts* facts) {
  ScopedSpan pass("core.cumulative.pass");
  const double rss0 = CurrentRssMb();
  const int64_t start = NowNs();
  CumulativeSynthesizer::Options opt;
  opt.horizon = kHorizon;
  opt.rho = kRho;
  opt.seed = seed;
  LONGDP_ASSIGN_OR_RETURN(auto synth, CumulativeSynthesizer::Create(opt));
  for (int64_t t = 1; t <= kHorizon; ++t) {
    ScopedSpan round(t == 1 ? "core.cumulative.first_release"
                            : "core.cumulative.round");
    LONGDP_RETURN_NOT_OK(synth->ObserveRound(panel.Round(t)));
    round.Close();
    LONGDP_RETURN_NOT_OK(facts->log.Capture(*synth));
  }
  facts->seconds = Seconds(start);
  pass.Attr("state_mb", CurrentRssMb() - rss0);
  Account(*synth, facts);
  return Status::OK();
}

Status CategoricalPass(const std::vector<std::vector<uint8_t>>& rounds,
                       uint64_t seed, Facts* facts) {
  ScopedSpan pass("core.categorical.pass");
  const double rss0 = CurrentRssMb();
  const int64_t start = NowNs();
  CategoricalWindowSynthesizer::Options opt;
  opt.horizon = kHorizon;
  opt.window_k = kCatK;
  opt.alphabet = kCatAlphabet;
  opt.rho = kRho;
  opt.seed = seed;
  LONGDP_ASSIGN_OR_RETURN(auto synth,
                          CategoricalWindowSynthesizer::Create(opt));
  for (int64_t t = 1; t <= kHorizon; ++t) {
    ScopedSpan round(t < kCatK    ? "core.categorical.buffer_round"
                     : t == kCatK ? "core.categorical.first_release"
                                  : "core.categorical.round");
    LONGDP_RETURN_NOT_OK(
        synth->ObserveRound(rounds[static_cast<size_t>(t - 1)]));
    round.Close();
    LONGDP_RETURN_NOT_OK(facts->log.Capture(*synth));
  }
  facts->seconds = Seconds(start);
  pass.Attr("state_mb", CurrentRssMb() - rss0);
  pass.Attr("negative_clamps", static_cast<double>(synth->stats().negative_clamps));
  pass.Attr("remainder_draws", static_cast<double>(synth->stats().remainder_draws));
  Account(*synth, facts);
  facts->sigma2 = synth->sigma2();
  facts->npad = synth->npad();
  return Status::OK();
}

// Ledger, sigma, Algorithm 1's consistency and n*, and Theorem 3.2.
void CheckFixedWindow(const Facts& f, const std::vector<WindowRelease>& rel,
                      const std::vector<std::vector<int64_t>>& truth,
                      Outcome* out) {
  const int64_t steps = kHorizon - kWindowK + 1;
  out->Check(SameRho(f.spent, kRho) && SameRho(f.total, kRho),
             "fixed_window: accountant spent " + std::to_string(f.spent) +
                 " != rho");
  out->Check(SameRho(f.sigma2, static_cast<double>(steps) / (2.0 * kRho)),
             "fixed_window: sigma^2 != (T-k+1)/(2 rho)");
  out->Check(static_cast<int64_t>(rel.size()) == steps,
             "fixed_window: release count != T-k+1");
  if (static_cast<int64_t>(rel.size()) != steps) return;
  const double bound = FixedWindowBound(kHorizon, kWindowK, kRho, kFixedWindowBeta);
  int64_t n_star = 0;
  for (int64_t v : rel[0].histogram) n_star += v;
  double worst = 0.0;
  for (size_t r = 0; r < rel.size(); ++r) {
    const WindowRelease& cur = rel[r];
    const auto& c = truth[static_cast<size_t>(cur.t - 1)];
    int64_t total = 0;
    for (size_t s = 0; s < cur.histogram.size(); ++s) {
      total += cur.histogram[s];
      out->Check(cur.histogram[s] >= 0, "fixed_window: negative bin");
      worst = std::max(worst, std::fabs(static_cast<double>(
                                  cur.histogram[s] - (c[s] + f.npad))));
    }
    out->Check(total == n_star, "fixed_window: n* changed at t=" +
                                    std::to_string(cur.t));
    if (r > 0) {
      out->Check(WindowConsistent(rel[r - 1].histogram, cur.histogram, 2,
                                  kWindowK),
                 "fixed_window: sliding-window constraint broken at t=" +
                     std::to_string(cur.t));
    }
  }
  out->Check(worst <= bound, "fixed_window: max bin error " +
                                 std::to_string(worst) + " > Theorem 3.2 bound " +
                                 std::to_string(bound));
}

// Ledger, threshold monotonicity, and Corollary B.1.
void CheckCumulative(const Facts& f, int64_t n,
                     const std::vector<std::vector<int64_t>>& truth,
                     Outcome* out) {
  const auto& rel = f.log.cumulative_releases();
  out->Check(SameRho(f.spent, kRho) && SameRho(f.total, kRho),
             "cumulative: accountant spent != rho");
  out->Check(static_cast<int64_t>(rel.size()) == kHorizon,
             "cumulative: release count != T");
  if (static_cast<int64_t>(rel.size()) != kHorizon) return;
  const double bound = CumulativeCountBound(kHorizon, kRho, kCumulativeBeta);
  double worst = 0.0;
  for (size_t r = 0; r < rel.size(); ++r) {
    const auto& row = rel[r].thresholds;
    const auto& s = truth[r];
    out->Check(row.size() == s.size() && row[0] == n,
               "cumulative: malformed threshold row");
    if (row.size() != s.size()) return;
    for (size_t b = 1; b < row.size(); ++b) {
      out->Check(row[b] <= row[b - 1], "cumulative: thresholds not monotone");
      if (r > 0) {
        const auto& prev = rel[r - 1].thresholds;
        out->Check(prev[b] <= row[b] && row[b] <= prev[b - 1],
                   "cumulative: release not monotone in t");
      }
      worst = std::max(worst, std::fabs(static_cast<double>(row[b] - s[b])));
    }
  }
  out->Check(worst <= bound, "cumulative: max threshold error " +
                                 std::to_string(worst) + " > Corollary B.1 bound " +
                                 std::to_string(bound));
}

// Ledger, sigma, the base-A consistency constraint and a constant n*.
void CheckCategorical(const Facts& f, Outcome* out) {
  const auto& rel = f.log.categorical_releases();
  const int64_t steps = kHorizon - kCatK + 1;
  out->Check(SameRho(f.spent, kRho) && SameRho(f.total, kRho),
             "categorical: accountant spent != rho");
  out->Check(SameRho(f.sigma2, static_cast<double>(steps) / (2.0 * kRho)),
             "categorical: sigma^2 != (T-k+1)/(2 rho)");
  out->Check(static_cast<int64_t>(rel.size()) == steps,
             "categorical: release count != T-k+1");
  if (rel.empty()) return;
  int64_t n_star = 0;
  for (int64_t v : rel[0].histogram) n_star += v;
  for (size_t r = 0; r < rel.size(); ++r) {
    int64_t total = 0;
    for (int64_t v : rel[r].histogram) {
      total += v;
      out->Check(v >= 0, "categorical: negative bin");
    }
    out->Check(total == n_star, "categorical: n* changed");
    if (r > 0) {
      out->Check(WindowConsistent(rel[r - 1].histogram, rel[r].histogram,
                                  kCatAlphabet, kCatK),
                 "categorical: base-A window constraint broken at t=" +
                     std::to_string(rel[r].t));
    }
  }
}

}  // namespace

void RunRelease(const Config& cfg, Outcome* out) {
  const int64_t n = cfg.small ? 50000 : 5000000;
  const int64_t m_cat = cfg.small ? 20000 : 1000000;
  Panel panel;
  std::vector<std::vector<uint8_t>> cat_rounds;

  const double setup_s = TimeSetup(
      3,
      [&]() -> Status {
        ScopedSpan span("data.generate");
        LONGDP_ASSIGN_OR_RETURN(panel,
                                MakeMarkovPanel(n, kHorizon, MixSeed(cfg.seed, 1)));
        cat_rounds = CategoricalRounds(panel, m_cat);
        return Status::OK();
      },
      out);
  if (out->failed() > 0) return;

  std::vector<PassResult> results;
  const std::vector<double> pass_s = RunPasses(
      cfg.seconds,
      [&]() -> Status {
        PassResult r;
        LONGDP_RETURN_NOT_OK(FixedWindowPass(panel, MixSeed(cfg.seed, 2), &r.fw));
        LONGDP_RETURN_NOT_OK(CumulativePass(panel, MixSeed(cfg.seed, 3), &r.cu));
        LONGDP_RETURN_NOT_OK(
            CategoricalPass(cat_rounds, MixSeed(cfg.seed, 4), &r.cat));
        results.push_back(std::move(r));
        return Status::OK();
      },
      out);

  // Checks, against counts the benchmark takes from the raw bits itself.
  std::vector<std::vector<int64_t>> window_truth(static_cast<size_t>(kHorizon));
  for (int64_t t = kWindowK; t <= kHorizon; ++t) {
    window_truth[static_cast<size_t>(t - 1)] =
        TrueWindowHistogram(panel, t, kWindowK);
  }
  const auto thresholds = TrueThresholds(panel);
  std::vector<double> fw_rate, cu_rate, cat_rate;
  for (PassResult& r : results) {
    std::vector<WindowRelease> fw = r.fw.log.window_releases();
    if (cfg.fault == Fault::kFlipReleaseBin && fw.size() > 8) {
      fw[8].histogram[1] += 1;
    }
    CheckFixedWindow(r.fw, fw, window_truth, out);
    CheckCumulative(r.cu, n, thresholds, out);
    CheckCategorical(r.cat, out);
    const double user_rounds = static_cast<double>(n * kHorizon);
    fw_rate.push_back(user_rounds / r.fw.seconds);
    cu_rate.push_back(user_rounds / r.cu.seconds);
    cat_rate.push_back(static_cast<double>(m_cat * kHorizon) / r.cat.seconds);
  }
  out->Check(!results.empty(), "release_5m: no pass completed");
  AddEndToEnd(setup_s, pass_s, Median(fw_rate), Median(cu_rate),
              Median(cat_rate), out);
}

}  // namespace perfbench
