// serve_archive: the analyst.
//
// Set-up seals over a thousand releases from seeded fixed-window,
// cumulative and categorical runs at the SIPP population (n = 23,374),
// plus one 1M-user x 24-round synthetic panel, into one .ldpa archive.
// One client then runs a closed loop: open the archive (mmap + full CRC
// verification) and serve a fixed battery. No synthesizer and no WAL run
// here; only archive, query and util::simd work. Release lookups (~0.1 us)
// stress the entry index, and the panel scans stress the word kernels.
#include <bit>
#include <functional>
#include <string>

#include "archive/exec.h"
#include "archive/reader.h"
#include "archive/writer.h"
#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "query/window_query.h"
#include "trace.h"
#include "util/simd/simd.h"
#include "workloads.h"

namespace perfbench {
namespace {

using longdp::Status;
using longdp::archive::ArchiveEntry;
using longdp::archive::EntryKind;
using longdp::archive::Exec;
using longdp::core::ReleaseLog;

constexpr int64_t kSippN = 23374;
constexpr int kSpellMinLen = 6;
constexpr int kOngoingMinLen = 3;

// A window predicate from the library, and the benchmark's own reading of
// which width-k patterns it matches.
struct Predicate {
  longdp::query::WindowPredicatePtr lib;
  std::function<bool(unsigned)> matches;
};

std::vector<Predicate> Predicates() {
  namespace q = longdp::query;
  std::vector<Predicate> p;
  for (int m = 1; m <= kWindowK; ++m) {
    p.push_back({q::MakeAtLeastOnes(kWindowK, m),
                 [m](unsigned s) { return std::popcount(s) >= m; }});
  }
  p.push_back({q::MakeConsecutiveOnes(kWindowK, 2),
               [](unsigned s) { return (s & (s >> 1)) != 0; }});
  p.push_back({q::MakeAllOnes(kWindowK),
               [](unsigned s) { return s == (1u << kWindowK) - 1; }});
  for (unsigned s0 = 0; s0 < (1u << kWindowK); ++s0) {
    p.push_back({q::MakePatternEquals(s0, kWindowK),
                 [s0](unsigned s) { return s == s0; }});
  }
  return p;
}

struct Stream {
  std::string label;
  EntryKind kind;
  ReleaseLog log;
};

struct Serving {
  std::vector<Stream> streams;
  Panel panel;  // the synthetic panel as the synthesizer produced it
  std::string path;
};

// Appends `log` with one histogram bin of its first window release
// flipped (the fault the answer and read-back checks must catch).
ReleaseLog FlipFirstBin(const ReleaseLog& log) {
  ReleaseLog out;
  bool first = true;
  for (auto r : log.window_releases()) {
    if (first) r.histogram[2] += 1;
    first = false;
    (void)out.Append(std::move(r));
  }
  return out;
}

Status Setup(const Config& cfg, Serving* s) {
  const int64_t n_panel = cfg.small ? 20000 : 1000000;
  const int runs = cfg.small ? 3 : 15;
  Panel sipp;
  Panel big;
  {
    ScopedSpan span("data.generate");
    LONGDP_ASSIGN_OR_RETURN(sipp, MakeMarkovPanel(kSippN, kHorizon, MixSeed(cfg.seed, 10)));
    LONGDP_ASSIGN_OR_RETURN(big, MakeMarkovPanel(n_panel, kHorizon, MixSeed(cfg.seed, 1)));
  }
  const auto symbols = CategoricalRounds(sipp, kSippN);
  s->streams.clear();
  for (int r = 0; r < runs; ++r) {
    const uint64_t seed = MixSeed(cfg.seed, 100 + static_cast<uint64_t>(r));
    longdp::core::FixedWindowSynthesizer::Options fw;
    fw.horizon = kHorizon;
    fw.window_k = kWindowK;
    fw.rho = kRho;
    fw.seed = seed;
    LONGDP_ASSIGN_OR_RETURN(auto fws, longdp::core::FixedWindowSynthesizer::Create(fw));
    longdp::core::CumulativeSynthesizer::Options cu;
    cu.horizon = kHorizon;
    cu.rho = kRho;
    cu.seed = seed + 1;
    LONGDP_ASSIGN_OR_RETURN(auto cus, longdp::core::CumulativeSynthesizer::Create(cu));
    longdp::core::CategoricalWindowSynthesizer::Options ca;
    ca.horizon = kHorizon;
    ca.window_k = kCatK;
    ca.alphabet = kCatAlphabet;
    ca.rho = kRho;
    ca.seed = seed + 2;
    LONGDP_ASSIGN_OR_RETURN(auto cas,
                            longdp::core::CategoricalWindowSynthesizer::Create(ca));
    Stream sf{"fixed_window/" + std::to_string(r), EntryKind::kWindow, {}};
    Stream sc{"cumulative/" + std::to_string(r), EntryKind::kCumulative, {}};
    Stream sa{"categorical/" + std::to_string(r), EntryKind::kCategorical, {}};
    for (int64_t t = 1; t <= kHorizon; ++t) {
      LONGDP_RETURN_NOT_OK(fws->ObserveRound(sipp.Round(t)));
      LONGDP_RETURN_NOT_OK(sf.log.Capture(*fws));
      LONGDP_RETURN_NOT_OK(cus->ObserveRound(sipp.Round(t)));
      LONGDP_RETURN_NOT_OK(sc.log.Capture(*cus));
      LONGDP_RETURN_NOT_OK(cas->ObserveRound(symbols[static_cast<size_t>(t - 1)]));
      LONGDP_RETURN_NOT_OK(sa.log.Capture(*cas));
    }
    s->streams.push_back(std::move(sf));
    s->streams.push_back(std::move(sc));
    s->streams.push_back(std::move(sa));
  }

  longdp::core::FixedWindowSynthesizer::Options fw;
  fw.horizon = kHorizon;
  fw.window_k = kWindowK;
  fw.rho = kRho;
  fw.seed = MixSeed(cfg.seed, 2);
  LONGDP_ASSIGN_OR_RETURN(auto synth, longdp::core::FixedWindowSynthesizer::Create(fw));
  for (int64_t t = 1; t <= kHorizon; ++t) {
    LONGDP_RETURN_NOT_OK(synth->ObserveRound(big.Round(t)));
  }
  LONGDP_ASSIGN_OR_RETURN(auto ds, synth->cohort().ToDataset(kHorizon));
  s->panel = PackDataset(ds);

  LONGDP_ASSIGN_OR_RETURN(auto writer, longdp::archive::ArchiveWriter::Create(s->path));
  for (size_t i = 0; i < s->streams.size(); ++i) {
    const Stream& st = s->streams[i];
    const bool flip = cfg.fault == Fault::kFlipReleaseBin && i == 0;
    LONGDP_RETURN_NOT_OK(
        writer.AppendReleaseLog(st.label, flip ? FlipFirstBin(st.log) : st.log));
  }
  if (cfg.fault == Fault::kFlipPanelBit) {
    LONGDP_ASSIGN_OR_RETURN(auto flipped,
                            longdp::data::LongitudinalDataset::Create(
                                s->panel.n, kHorizon));
    for (int64_t t = 1; t <= kHorizon; ++t) {
      std::vector<uint8_t> bits = RoundBytes(s->panel, t);
      if (t == kHorizon / 2) bits[bits.size() / 2] ^= 1;
      LONGDP_RETURN_NOT_OK(flipped.AppendRound(bits));
    }
    LONGDP_RETURN_NOT_OK(writer.AppendCohort("panel", flipped));
  } else {
    LONGDP_RETURN_NOT_OK(writer.AppendCohort("panel", ds));
  }
  return writer.Finish();
}

struct PassAnswers {
  std::vector<double> values;
  double family_s[3] = {0, 0, 0};
  int64_t family_queries[3] = {0, 0, 0};
};

int FamilyIndex(EntryKind kind) {
  return kind == EntryKind::kWindow ? 0 : kind == EntryKind::kCumulative ? 1 : 2;
}

const char* FamilySpan(int f) {
  return f == 0 ? "query.releases.fixed_window"
         : f == 1 ? "query.releases.cumulative"
                  : "query.releases.categorical";
}

Status Battery(const Serving& s, const std::vector<Predicate>& preds,
               Outcome* out, PassAnswers* a) {
  ScopedSpan open_span("archive.open");
  auto reader = longdp::archive::ArchiveReader::Open(s.path);
  open_span.Close();
  if (!out->Op(reader.status(), "archive open")) return reader.status();
  if (Trace::Get().enabled()) {
    open_span.Attr("mb", static_cast<double>(DiskBytes(s.path)) / 1e6);
  }
  const Exec exec(*reader);
  auto& v = a->values;

  for (int f = 0; f < 3; ++f) {
    const int64_t start = NowNs();
    ScopedSpan batch(FamilySpan(f));
    int64_t queries = 0;
    for (const Stream& st : s.streams) {
      if (FamilyIndex(st.kind) != f) continue;
      Exec::Filter filter;
      filter.kind = st.kind;
      std::vector<const ArchiveEntry*> entries;
      {
        ScopedSpan select("archive.select");
        auto id = reader->FindLabel(st.label);
        if (!out->Op(id, "find label")) continue;
        filter.label_id = *id;
        entries = exec.Select(filter);
      }
      for (size_t e = 0; e < entries.size(); ++e) {
        const ArchiveEntry& entry = *entries[e];
        if (f == 0) {
          for (const Predicate& p : preds) {
            auto d = exec.DebiasedWindowFraction(entry, *p.lib);
            auto b = exec.BiasedWindowFraction(entry, *p.lib);
            v.push_back(out->Op(d, "debiased fraction") ? *d : -1.0);
            v.push_back(out->Op(b, "biased fraction") ? *b : -1.0);
            queries += 2;
          }
        } else if (f == 1) {
          for (int64_t bb = 0; bb <= kHorizon; ++bb) {
            auto c = exec.CumulativeFraction(entry, bb);
            v.push_back(out->Op(c, "cumulative fraction") ? *c : -1.0);
            ++queries;
          }
          if (e > 0) {
            for (int64_t bb = 1; bb <= kHorizon; ++bb) {
              auto c = exec.CountOccExact(*entries[e - 1], entry, bb);
              v.push_back(out->Op(c, "count occ") ? static_cast<double>(*c) : -1.0);
              ++queries;
            }
          }
        } else {
          const uint64_t bins = uint64_t{1} << (2 * kCatK);  // A = 4
          for (uint64_t code = 0; code < bins; ++code) {
            auto c = exec.CategoricalBinFraction(entry, code);
            v.push_back(out->Op(c, "bin fraction") ? *c : -1.0);
            ++queries;
          }
        }
      }
    }
    batch.Attr("queries", static_cast<double>(queries));
    batch.Close();
    a->family_s[f] += Seconds(start);
    a->family_queries[f] += queries;
  }

  auto id = reader->FindLabel("panel");
  if (!out->Op(id, "find panel")) return id.status();
  Exec::Filter filter;
  filter.label_id = *id;
  const auto panel_entries = exec.Select(filter);
  if (panel_entries.size() != 1) return Status::Internal("panel entry missing");
  const ArchiveEntry& panel = *panel_entries[0];
  const double wpr = static_cast<double>((panel.count + 63) >> 6);
  for (int64_t t = kWindowK; t <= kHorizon; ++t) {
    ScopedSpan span("query.histogram");
    auto h = exec.CohortWindowHistogram(panel, t, kWindowK);
    span.Attr("words", wpr * kWindowK);
    span.Close();
    if (!out->Op(h, "window histogram")) continue;
    for (int64_t c : *h) v.push_back(static_cast<double>(c));
  }
  const double spell_words = wpr * static_cast<double>(kHorizon);
  {
    ScopedSpan span("query.spell.ever");
    auto r = exec.CohortEverHadSpell(panel, kHorizon, kSpellMinLen);
    span.Attr("words", spell_words);
    span.Close();
    v.push_back(out->Op(r, "ever had spell") ? *r : -1.0);
  }
  {
    ScopedSpan span("query.spell.ongoing");
    auto r = exec.CohortOngoingSpellAtLeast(panel, kHorizon, kOngoingMinLen);
    span.Attr("words", spell_words);
    span.Close();
    v.push_back(out->Op(r, "ongoing spell") ? *r : -1.0);
  }
  {
    ScopedSpan span("query.spell.mean_length");
    auto r = exec.CohortMeanSpellLength(panel, kHorizon);
    span.Attr("words", spell_words);
    span.Close();
    v.push_back(out->Op(r, "mean spell length") ? *r : -1.0);
  }
  {
    ScopedSpan span("query.spell.length_histogram");
    auto r = exec.CohortSpellLengthHistogram(panel, kHorizon);
    span.Attr("words", spell_words);
    span.Close();
    if (out->Op(r, "spell length histogram")) {
      for (int64_t c : *r) v.push_back(static_cast<double>(c));
    }
  }
  return Status::OK();
}

// The answers the battery must give, computed by the benchmark itself:
// the debias formula on the stored releases, and bit scans of the panel.
std::vector<double> Expected(const Serving& s,
                             const std::vector<Predicate>& preds) {
  std::vector<double> v;
  for (int f = 0; f < 3; ++f) {
    for (const Stream& st : s.streams) {
      if (FamilyIndex(st.kind) != f) continue;
      if (f == 0) {
        for (const auto& r : st.log.window_releases()) {
          int64_t population = 0;
          for (int64_t c : r.histogram) population += c;
          for (const Predicate& p : preds) {
            int64_t count = 0;
            int64_t matching = 0;
            for (unsigned pat = 0; pat < r.histogram.size(); ++pat) {
              if (!p.matches(pat)) continue;
              count += r.histogram[pat];
              ++matching;
            }
            v.push_back(static_cast<double>(count - r.npad * matching) /
                        static_cast<double>(r.true_n));
            v.push_back(static_cast<double>(count) /
                        static_cast<double>(population));
          }
        }
      } else if (f == 1) {
        const auto& rel = st.log.cumulative_releases();
        for (size_t e = 0; e < rel.size(); ++e) {
          const auto& row = rel[e].thresholds;
          for (int64_t b = 0; b <= kHorizon; ++b) {
            v.push_back(static_cast<double>(row[static_cast<size_t>(b)]) /
                        static_cast<double>(row[0]));
          }
          if (e > 0) {
            // CountOcc_{=b}(t1, t2) = Shat^{t2}_b - Shat^{t1}_{b-1}.
            for (int64_t b = 1; b <= kHorizon; ++b) {
              v.push_back(static_cast<double>(
                  row[static_cast<size_t>(b)] -
                  rel[e - 1].thresholds[static_cast<size_t>(b - 1)]));
            }
          }
        }
      } else {
        for (const auto& r : st.log.categorical_releases()) {
          for (int64_t c : r.histogram) {
            v.push_back(static_cast<double>(c - r.npad) /
                        static_cast<double>(r.true_n));
          }
        }
      }
    }
  }
  const Panel& p = s.panel;
  for (int64_t t = kWindowK; t <= kHorizon; ++t) {
    for (int64_t c : TrueWindowHistogram(p, t, kWindowK)) {
      v.push_back(static_cast<double>(c));
    }
  }
  // Spells: one scan of every user's bits.
  int64_t ever = 0, ongoing = 0, spells = 0, total_len = 0;
  std::vector<int64_t> lengths(static_cast<size_t>(kHorizon + 1), 0);
  for (int64_t i = 0; i < p.n; ++i) {
    int64_t run = 0;
    bool had = false;
    for (int64_t t = 1; t <= kHorizon; ++t) {
      if (p.Bit(i, t)) {
        ++run;
        if (run >= kSpellMinLen) had = true;
      }
      if (run > 0 && (!p.Bit(i, t) || t == kHorizon)) {
        ++spells;
        total_len += run;
        ++lengths[static_cast<size_t>(run)];
        if (t == kHorizon && p.Bit(i, t) && run >= kOngoingMinLen) ++ongoing;
        run = 0;
      }
    }
    ever += had;
  }
  v.push_back(static_cast<double>(ever) / static_cast<double>(p.n));
  v.push_back(static_cast<double>(ongoing) / static_cast<double>(p.n));
  v.push_back(spells == 0 ? 0.0
                          : static_cast<double>(total_len) /
                                static_cast<double>(spells));
  for (int64_t c : lengths) v.push_back(static_cast<double>(c));
  return v;
}

}  // namespace

void RunServe(const Config& cfg, Outcome* out) {
  Serving s;
  s.path = cfg.work_dir + "/serve.ldpa";
  const double setup_s =
      TimeSetup(5, [&]() -> Status { return Setup(cfg, &s); }, out);
  if (out->failed() > 0) return;
  const std::vector<Predicate> preds = Predicates();

  std::vector<PassAnswers> passes;
  const std::vector<double> pass_s = RunPasses(
      cfg.seconds,
      [&]() -> Status {
        PassAnswers a;
        LONGDP_RETURN_NOT_OK(Battery(s, preds, out, &a));
        passes.push_back(std::move(a));
        return Status::OK();
      },
      out);
  out->Check(!passes.empty(), "serve_archive: no pass completed");
  if (passes.empty()) return;

  const std::vector<double> expected = Expected(s, preds);
  for (const PassAnswers& a : passes) {
    out->Check(a.values == expected,
               "serve_archive: a served answer differs from the benchmark's "
               "own computation");
  }

  // Read-back, and the bit-plane kernel called directly on the mapped
  // planes (simd.plane_histogram_us; its gap to query.histogram_us is the
  // executor's own cost).
  auto reader = longdp::archive::ArchiveReader::Open(s.path);
  if (out->Op(reader.status(), "archive open for read-back")) {
    for (const Stream& st : s.streams) {
      auto id = reader->FindLabel(st.label);
      auto back = id.ok() ? reader->ToReleaseLog(*id)
                          : longdp::Result<ReleaseLog>(id.status());
      bool equal = back.ok();
      if (equal) {
        auto a = LogCsv(*back, cfg.work_dir + "/a.csv");
        auto b = LogCsv(st.log, cfg.work_dir + "/b.csv");
        equal = a.ok() && b.ok() && *a == *b;
      }
      out->Check(equal, "archive: stream '" + st.label + "' does not read back equal");
    }
    auto id = reader->FindLabel("panel");
    for (const ArchiveEntry& e : reader->entries()) {
      if (!id.ok() || e.label_id != *id) continue;
      bool equal = e.count == s.panel.n && e.rounds == kHorizon;
      for (int64_t t = 1; equal && t <= kHorizon; ++t) {
        const auto r = reader->CohortRound(e, t);
        equal = std::equal(r.words(), r.words() + r.num_words(),
                           s.panel.Round(t).words());
      }
      out->Check(equal, "archive: panel does not read back bit for bit");
      for (int64_t t = kWindowK; equal && t <= kHorizon; ++t) {
        const uint64_t* planes[kWindowK];
        for (int j = 0; j < kWindowK; ++j) planes[j] = reader->CohortRound(e, t - j).words();
        std::vector<int64_t> hist(size_t{1} << kWindowK, 0);
        ScopedSpan span("simd.plane_histogram");
        longdp::util::simd::PlaneHistogram(planes, kWindowK, nullptr, s.panel.wpr,
                                           hist.data());
        span.Close();
        hist[0] -= static_cast<int64_t>(s.panel.wpr) * 64 - s.panel.n;
        out->Check(hist == TrueWindowHistogram(s.panel, t, kWindowK),
                   "simd: PlaneHistogram differs from the bit scan");
      }
    }
  }

  std::vector<double> rate[3];
  for (const PassAnswers& a : passes) {
    for (int f = 0; f < 3; ++f) {
      rate[f].push_back(static_cast<double>(a.family_queries[f]) / a.family_s[f]);
    }
  }
  AddEndToEnd(setup_s, pass_s, Median(rate[0]), Median(rate[1]), Median(rate[2]), out);
}

}  // namespace perfbench
