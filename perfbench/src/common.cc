#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "data/generators.h"
#include "trace.h"

namespace perfbench {

using longdp::Result;
using longdp::Status;

bool Outcome::Op(const Status& st, const char* what) {
  ++attempted_;
  if (st.ok()) return true;
  ++failed_;
  std::cerr << "operation failed: " << what << ": " << st.ToString() << "\n";
  return false;
}

void Outcome::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++check_failures_;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

void Outcome::Add(const std::string& name, const std::string& unit,
                  double value) {
  metrics_.push_back({name, unit, value});
}

double Seconds(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int64_t DiskBytes(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  int64_t total = 0;
  if (fs::is_regular_file(path, ec)) {
    return static_cast<int64_t>(fs::file_size(path, ec));
  }
  for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

bool ResetDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return std::filesystem::create_directories(path, ec);
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double TimeSetup(int reps, const std::function<Status()>& setup,
                 Outcome* out) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span("bench.setup");
    const int64_t start = NowNs();
    if (!out->Op(setup(), "setup")) break;
    times.push_back(Seconds(start));
  }
  return Median(times);
}

std::vector<double> RunPasses(double seconds,
                              const std::function<Status()>& pass,
                              Outcome* out) {
  std::vector<double> times;
  const int64_t start = NowNs();
  for (;;) {
    ScopedSpan span("bench.pass");
    const int64_t pass_start = NowNs();
    if (!out->Op(pass(), "pass")) break;
    times.push_back(Seconds(pass_start));
    span.Close();
    if (times.size() == 1) out->set_peak_rss_mb(PeakRssMb());
    if (Seconds(start) + Median(times) > seconds) break;
  }
  return times;
}

Result<Panel> MakeMarkovPanel(int64_t n, int64_t horizon, uint64_t seed) {
  // Blocks of 10^6 users: a multiple of 64, so every block starts on a
  // word boundary, and the first 10^6 users of any panel with the same
  // seed are the same users.
  constexpr int64_t kBlock = 1000000;
  Panel panel;
  panel.n = n;
  panel.horizon = horizon;
  panel.wpr = static_cast<size_t>((n + 63) >> 6);
  panel.words.assign(panel.wpr * static_cast<size_t>(horizon), 0);
  longdp::data::MarkovParams params;
  params.initial_rate = kInitialRate;
  params.entry_prob = kEntryProb;
  params.exit_prob = kExitProb;
  for (int64_t base = 0, b = 0; base < n; base += kBlock, ++b) {
    const int64_t m = std::min(kBlock, n - base);
    ScopedSpan span("data.generate_block");
    LONGDP_ASSIGN_OR_RETURN(
        auto ds, longdp::data::TwoStateMarkov(
                     m, horizon, params, MixSeed(seed, static_cast<uint64_t>(b))));
    const size_t word0 = static_cast<size_t>(base >> 6);
    for (int64_t t = 1; t <= horizon; ++t) {
      const longdp::data::RoundView r = ds.Round(t);
      std::copy(r.words(), r.words() + r.num_words(),
                panel.words.begin() +
                    static_cast<ptrdiff_t>(static_cast<size_t>(t - 1) *
                                               panel.wpr +
                                           word0));
    }
  }
  return panel;
}

Panel PackDataset(const longdp::data::LongitudinalDataset& ds) {
  Panel p;
  p.n = ds.num_users();
  p.horizon = ds.rounds();
  p.wpr = static_cast<size_t>((p.n + 63) >> 6);
  for (int64_t t = 1; t <= p.horizon; ++t) {
    const longdp::data::RoundView r = ds.Round(t);
    p.words.insert(p.words.end(), r.words(), r.words() + r.num_words());
  }
  return p;
}

std::vector<std::vector<uint8_t>> CategoricalRounds(const Panel& panel,
                                                    int64_t m) {
  std::vector<std::vector<uint8_t>> rounds(
      static_cast<size_t>(panel.horizon),
      std::vector<uint8_t>(static_cast<size_t>(m)));
  for (int64_t t = 1; t <= panel.horizon; ++t) {
    auto& sym = rounds[static_cast<size_t>(t - 1)];
    for (int64_t i = 0; i < m; ++i) {
      const int prev = t > 1 ? panel.Bit(i, t - 1) : 0;
      sym[static_cast<size_t>(i)] =
          static_cast<uint8_t>(panel.Bit(i, t) + 2 * prev);
    }
  }
  return rounds;
}

std::vector<uint8_t> RoundBytes(const Panel& panel, int64_t t) {
  std::vector<uint8_t> bytes(static_cast<size_t>(panel.n));
  for (int64_t i = 0; i < panel.n; ++i) {
    bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(panel.Bit(i, t));
  }
  return bytes;
}

std::vector<int64_t> TrueWindowHistogram(const Panel& panel, int64_t t,
                                         int k) {
  // For every pattern s, AND together each round's word or its
  // complement, then popcount; lanes past n are masked off.
  std::vector<int64_t> hist(size_t{1} << k, 0);
  for (size_t w = 0; w < panel.wpr; ++w) {
    const int64_t lanes = std::min<int64_t>(64, panel.n - static_cast<int64_t>(w) * 64);
    const uint64_t valid = lanes == 64 ? ~uint64_t{0} : (uint64_t{1} << lanes) - 1;
    uint64_t bits[16];
    for (int j = 0; j < k; ++j) {  // j = age: 0 is round t
      const int64_t tt = t - j;
      bits[j] = tt >= 1 ? panel.words[static_cast<size_t>(tt - 1) * panel.wpr + w] : 0;
    }
    for (size_t s = 0; s < hist.size(); ++s) {
      uint64_t match = valid;
      for (int j = 0; j < k; ++j) {
        match &= ((s >> j) & 1) ? bits[j] : ~bits[j];
      }
      hist[s] += std::popcount(match);
    }
  }
  return hist;
}

std::vector<std::vector<int64_t>> TrueThresholds(const Panel& panel) {
  std::vector<uint8_t> weight(static_cast<size_t>(panel.n), 0);
  std::vector<std::vector<int64_t>> out;
  for (int64_t t = 1; t <= panel.horizon; ++t) {
    std::vector<int64_t> at(static_cast<size_t>(panel.horizon + 1), 0);
    for (int64_t i = 0; i < panel.n; ++i) {
      uint8_t& w = weight[static_cast<size_t>(i)];
      w = static_cast<uint8_t>(w + panel.Bit(i, t));
      ++at[w];
    }
    // at[w] = users of weight exactly w; thresholds are suffix sums.
    std::vector<int64_t> s(at.size(), 0);
    int64_t acc = 0;
    for (size_t b = at.size(); b-- > 0;) {
      acc += at[b];
      s[b] = acc;
    }
    out.push_back(std::move(s));
  }
  return out;
}

double FixedWindowBound(int64_t horizon, int k, double rho, double beta) {
  const double steps = static_cast<double>(horizon - k + 1);
  return (std::sqrt(steps / rho) + 1.0 / std::sqrt(2.0)) *
         std::sqrt(std::log(std::ldexp(steps, k) / beta));
}

double CumulativeCountBound(int64_t horizon, double rho, double beta) {
  double sum_l3 = 0.0;
  for (int64_t b = 1; b <= horizon; ++b) {
    const double len = static_cast<double>(horizon - b + 1);
    const double l = std::max(std::ceil(std::log2(len)), 1.0);
    sum_l3 += l * l * l;
  }
  return std::sqrt(sum_l3 / rho * std::log(1.0 / beta));
}

Result<std::string> LogCsv(const longdp::core::ReleaseLog& log,
                          const std::string& path) {
  LONGDP_RETURN_NOT_OK(log.WriteCsv(path));
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read back " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool WindowConsistent(const std::vector<int64_t>& prev,
                      const std::vector<int64_t>& cur, int alphabet, int k) {
  const uint64_t a = static_cast<uint64_t>(alphabet);
  uint64_t overlaps = 1;
  for (int j = 0; j < k - 1; ++j) overlaps *= a;
  if (prev.size() != overlaps * a || cur.size() != overlaps * a) return false;
  for (uint64_t z = 0; z < overlaps; ++z) {
    int64_t now = 0;
    int64_t before = 0;
    for (uint64_t s = 0; s < a; ++s) {
      now += cur[z * a + s];            // records whose older symbols are z
      before += prev[s * overlaps + z];  // records whose newer symbols are z
    }
    if (now != before) return false;
  }
  return true;
}

}  // namespace perfbench
