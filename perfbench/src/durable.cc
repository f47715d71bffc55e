// durable_1m: the curator as deployed.
//
// Each synthesizer runs through persist::DurableRun: every round fsyncs one
// WAL frame, and DurableSession::Checkpoint() cuts a snapshot every 8th
// round (automatic snapshots are off so cuts are timed apart from rounds).
// After round 22 the run object is dropped without shutdown; the curator
// reopens, re-feeds the replay region, finishes the horizon, and seals the
// three release logs and the two binary synthetic panels into one archive.
// Snapshot cuts dominate here; stage 2 is a small share.
#include <algorithm>
#include <filesystem>
#include <string>

#include "archive/reader.h"
#include "archive/writer.h"
#include "persist/bindings.h"
#include "persist/wal.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using longdp::Result;
using longdp::Status;
using longdp::core::ReleaseLog;

constexpr int64_t kSnapshotEvery = 8;
constexpr int64_t kCrashAfter = 22;

struct FamilyResult {
  double durable_s = 0.0;  // observe + WAL + cuts, recovery excluded
  double recover_s = 0.0;  // reopen + replay
  int64_t snapshot_round = 0;
  int64_t replay_rounds = 0;
  ReleaseLog log;  // t <= snapshot round from before the crash, then after
  ReleaseLog pre_crash;
};

// Appends the releases of `src` with t <= last to `dst`.
Status AppendThrough(const ReleaseLog& src, int64_t last, ReleaseLog* dst) {
  for (const auto& r : src.window_releases()) {
    if (r.t <= last) LONGDP_RETURN_NOT_OK(dst->Append(r));
  }
  for (const auto& r : src.cumulative_releases()) {
    if (r.t <= last) LONGDP_RETURN_NOT_OK(dst->Append(r));
  }
  for (const auto& r : src.categorical_releases()) {
    if (r.t <= last) LONGDP_RETURN_NOT_OK(dst->Append(r));
  }
  return Status::OK();
}

// Replaces the WAL frame of round `t` by one with the same length prefix
// and a valid checksum but different bytes: a log that disagrees with
// what replay re-derives.
Status CorruptWalFrame(const std::string& dir, int64_t t) {
  const std::string path = longdp::persist::DurableSession::WalPath(dir);
  LONGDP_ASSIGN_OR_RETURN(
      auto wal,
      longdp::persist::ReadWal(path, longdp::persist::WalReadMode::kStrict));
  std::string& rec = wal.records[static_cast<size_t>(t - 1)];
  rec.back() = rec.back() == '1' ? '2' : '1';
  std::filesystem::remove(path);
  LONGDP_ASSIGN_OR_RETURN(auto writer, longdp::persist::WalWriter::Open(path));
  for (const std::string& r : wal.records) {
    LONGDP_RETURN_NOT_OK(writer->Append(r));
  }
  return Status::OK();
}

template <typename Run, typename Input>
Status DurableFamily(const std::string& name, const std::string& dir,
                     const typename Run::Synth::Options& sopt,
                     const std::vector<Input>& rounds, Fault fault,
                     std::unique_ptr<Run>* kept, FamilyResult* res) {
  const std::string round_span = "persist." + name + ".round";
  const std::string cut_span = "persist." + name + ".snapshot";
  ScopedSpan session(("persist." + name + ".session").c_str());
  if (!ResetDir(dir)) return Status::IOError("cannot reset " + dir);
  longdp::persist::DurableSession::Options dopts;
  dopts.dir = dir;
  dopts.snapshot_every = 0;

  auto durable_round = [&](Run& run, int64_t t, ReleaseLog* log) -> Status {
    {
      ScopedSpan span(round_span.c_str());
      LONGDP_RETURN_NOT_OK(run.ObserveRound(rounds[static_cast<size_t>(t - 1)]));
    }
    LONGDP_RETURN_NOT_OK(log->Capture(run.synth()));
    if (t % kSnapshotEvery == 0) {
      ScopedSpan span(cut_span.c_str());
      LONGDP_RETURN_NOT_OK(run.session().Checkpoint());
      span.Attr("bytes", static_cast<double>(DiskBytes(
                             longdp::persist::DurableSession::SnapshotPath(dir))));
    }
    return Status::OK();
  };

  int64_t start = NowNs();
  {
    LONGDP_ASSIGN_OR_RETURN(auto run, Run::Open(dopts, sopt));
    for (int64_t t = 1; t <= kCrashAfter; ++t) {
      LONGDP_RETURN_NOT_OK(durable_round(*run, t, &res->pre_crash));
    }
  }  // the crash: the run is dropped without any shutdown step
  res->durable_s = Seconds(start);
  if (fault == Fault::kWalMismatch) {
    LONGDP_RETURN_NOT_OK(CorruptWalFrame(dir, kCrashAfter - 3));
  }

  start = NowNs();
  ScopedSpan reopen("persist.reopen");
  LONGDP_ASSIGN_OR_RETURN(auto run, Run::Open(dopts, sopt));
  reopen.Close();
  res->snapshot_round = run->session().recovery().snapshot_round;
  res->replay_rounds = run->session().replay_remaining();
  ReleaseLog after;
  {
    ScopedSpan replay("persist.replay");
    replay.Attr("rounds", static_cast<double>(res->replay_rounds));
    for (int64_t t = res->snapshot_round + 1; t <= kCrashAfter; ++t) {
      LONGDP_RETURN_NOT_OK(run->ObserveRound(rounds[static_cast<size_t>(t - 1)]));
      LONGDP_RETURN_NOT_OK(after.Capture(run->synth()));
    }
  }
  res->recover_s = Seconds(start);

  start = NowNs();
  for (int64_t t = kCrashAfter + 1; t <= kHorizon; ++t) {
    LONGDP_RETURN_NOT_OK(durable_round(*run, t, &after));
  }
  res->durable_s += Seconds(start);
  session.Attr("durable_s", res->durable_s);
  session.Attr("recover_s", res->recover_s);

  // The curator's log: what it held up to the snapshot, then what the
  // recovered run released.
  LONGDP_RETURN_NOT_OK(AppendThrough(res->pre_crash, res->snapshot_round, &res->log));
  LONGDP_RETURN_NOT_OK(AppendThrough(after, kHorizon, &res->log));
  *kept = std::move(run);
  return Status::OK();
}

// The plain in-memory run the durable one must reproduce: its release log
// and every round's WAL record, and the base time of persist.overhead_x.
struct Reference {
  ReleaseLog log;
  ReleaseLog pre_crash;  // releases with t <= kCrashAfter
  std::vector<std::string> records;
  double seconds = 0.0;
};

template <typename Traits, typename Input>
Status RunReference(const std::string& name,
                    const typename Traits::Synth::Options& sopt,
                    const std::vector<Input>& rounds, Reference* ref) {
  ScopedSpan span(("core." + name + ".base_pass").c_str());
  double observe_s = 0.0;
  LONGDP_ASSIGN_OR_RETURN(auto synth, Traits::Synth::Create(sopt));
  for (int64_t t = 1; t <= kHorizon; ++t) {
    const int64_t round_start = NowNs();
    LONGDP_RETURN_NOT_OK(synth->ObserveRound(rounds[static_cast<size_t>(t - 1)]));
    observe_s += Seconds(round_start);
    ref->records.push_back(Traits::ReleaseRecord(*synth));
    LONGDP_RETURN_NOT_OK(ref->log.Capture(*synth));
  }
  LONGDP_RETURN_NOT_OK(AppendThrough(ref->log, kCrashAfter, &ref->pre_crash));
  ref->seconds = observe_s;
  span.Attr("base_s", observe_s);
  return Status::OK();
}

}  // namespace

void RunDurable(const Config& cfg, Outcome* out) {
  using longdp::persist::CategoricalTraits;
  using longdp::persist::CumulativeTraits;
  using longdp::persist::DurableCategorical;
  using longdp::persist::DurableCumulative;
  using longdp::persist::DurableFixedWindow;
  using longdp::persist::FixedWindowTraits;

  const int64_t n = cfg.small ? 20000 : 1000000;
  Panel panel;
  std::vector<std::vector<uint8_t>> bits;
  std::vector<std::vector<uint8_t>> symbols;
  const double setup_s = TimeSetup(
      5,
      [&]() -> Status {
        ScopedSpan span("data.generate");
        LONGDP_ASSIGN_OR_RETURN(panel,
                                MakeMarkovPanel(n, kHorizon, MixSeed(cfg.seed, 1)));
        bits.clear();
        for (int64_t t = 1; t <= kHorizon; ++t) bits.push_back(RoundBytes(panel, t));
        symbols = CategoricalRounds(panel, n);
        return Status::OK();
      },
      out);
  if (out->failed() > 0) return;

  longdp::core::FixedWindowSynthesizer::Options fw_opt;
  fw_opt.horizon = kHorizon;
  fw_opt.window_k = kWindowK;
  fw_opt.rho = kRho;
  fw_opt.seed = MixSeed(cfg.seed, 2);
  longdp::core::CumulativeSynthesizer::Options cu_opt;
  cu_opt.horizon = kHorizon;
  cu_opt.rho = kRho;
  cu_opt.seed = MixSeed(cfg.seed, 3);
  longdp::core::CategoricalWindowSynthesizer::Options cat_opt;
  cat_opt.horizon = kHorizon;
  cat_opt.window_k = kCatK;
  cat_opt.alphabet = kCatAlphabet;
  cat_opt.rho = kRho;
  cat_opt.seed = MixSeed(cfg.seed, 4);

  const std::string dir = cfg.work_dir;
  const std::string archive_path = dir + "/releases.ldpa";
  struct PassResult {
    FamilyResult fw, cu, cat;
    Panel fw_panel, cu_panel;
  };
  std::vector<PassResult> results;

  const std::vector<double> pass_s = RunPasses(
      cfg.seconds,
      [&]() -> Status {
        PassResult r;
        std::unique_ptr<DurableFixedWindow> fw;
        std::unique_ptr<DurableCumulative> cu;
        std::unique_ptr<DurableCategorical> cat;
        LONGDP_RETURN_NOT_OK((DurableFamily<DurableFixedWindow>(
            "fixed_window", dir + "/fixed_window", fw_opt, bits, cfg.fault,
            &fw, &r.fw)));
        LONGDP_RETURN_NOT_OK((DurableFamily<DurableCumulative>(
            "cumulative", dir + "/cumulative", cu_opt, bits, Fault::kNone, &cu,
            &r.cu)));
        LONGDP_RETURN_NOT_OK((DurableFamily<DurableCategorical>(
            "categorical", dir + "/categorical", cat_opt, symbols,
            Fault::kNone, &cat, &r.cat)));

        ScopedSpan seal("archive.seal");
        LONGDP_ASSIGN_OR_RETURN(auto writer,
                                longdp::archive::ArchiveWriter::Create(archive_path));
        for (const auto& [label, log] :
             {std::pair<const char*, const ReleaseLog*>{"fixed_window", &r.fw.log},
              {"cumulative", &r.cu.log},
              {"categorical", &r.cat.log}}) {
          ScopedSpan append("archive.append");
          LONGDP_RETURN_NOT_OK(writer.AppendReleaseLog(label, *log));
        }
        {
          ScopedSpan to_ds("core.to_dataset");
          LONGDP_ASSIGN_OR_RETURN(auto ds, fw->synth().cohort().ToDataset(kHorizon));
          to_ds.Close();
          ScopedSpan append("archive.append");
          LONGDP_RETURN_NOT_OK(writer.AppendCohort("fixed_window.panel", ds));
          append.Close();
          r.fw_panel = PackDataset(ds);
        }
        {
          ScopedSpan to_ds("core.to_dataset");
          LONGDP_ASSIGN_OR_RETURN(auto ds, cu->synth().ToDataset());
          to_ds.Close();
          ScopedSpan append("archive.append");
          LONGDP_RETURN_NOT_OK(writer.AppendCohort("cumulative.panel", ds));
          append.Close();
          r.cu_panel = PackDataset(ds);
        }
        {
          ScopedSpan finish("archive.finish");
          LONGDP_RETURN_NOT_OK(writer.Finish());
        }
        seal.Attr("archive_mb", static_cast<double>(DiskBytes(archive_path)) / 1e6);
        seal.Attr("disk_mb", static_cast<double>(DiskBytes(dir)) / 1e6);
        seal.Attr("wal_kb",
                  static_cast<double>(
                      DiskBytes(longdp::persist::DurableSession::WalPath(dir + "/fixed_window")) +
                      DiskBytes(longdp::persist::DurableSession::WalPath(dir + "/cumulative")) +
                      DiskBytes(longdp::persist::DurableSession::WalPath(dir + "/categorical"))) /
                      1e3);
        seal.Close();
        results.push_back(std::move(r));
        return Status::OK();
      },
      out);
  out->Check(!results.empty(), "durable_1m: no pass completed");
  if (results.empty()) return;

  // Checks. The plain in-memory runs at the same seed are the reference.
  Reference fw_ref, cu_ref, cat_ref;
  out->Op(RunReference<FixedWindowTraits>("fixed_window", fw_opt, bits, &fw_ref),
          "reference fixed_window");
  out->Op(RunReference<CumulativeTraits>("cumulative", cu_opt, bits, &cu_ref),
          "reference cumulative");
  out->Op(RunReference<CategoricalTraits>("categorical", cat_opt, symbols, &cat_ref),
          "reference categorical");

  const std::string csv = dir + "/compare.csv";
  auto csv_of = [&](const ReleaseLog& log) {
    auto s = LogCsv(log, csv);
    out->Op(s.status(), "write release csv");
    return s.ok() ? *s : std::string();
  };
  struct Family {
    const char* name;
    const Reference* ref;
    FamilyResult PassResult::*res;
  };
  const Family families[] = {{"fixed_window", &fw_ref, &PassResult::fw},
                             {"cumulative", &cu_ref, &PassResult::cu},
                             {"categorical", &cat_ref, &PassResult::cat}};
  std::vector<double> rate[3];
  for (size_t f = 0; f < 3; ++f) {
    const Family& fam = families[f];
    const std::string ref_csv = csv_of(fam.ref->log);
    const std::string ref_pre_csv = csv_of(fam.ref->pre_crash);
    for (const PassResult& pr : results) {
      const FamilyResult& res = pr.*(fam.res);
      out->Check(res.snapshot_round == 16 && res.replay_rounds == kCrashAfter - 16,
                 std::string(fam.name) + ": recovery did not restore round 16 "
                 "with a 6-round replay region");
      out->Check(csv_of(res.pre_crash) == ref_pre_csv,
                 std::string(fam.name) + ": pre-crash release log differs from "
                 "the in-memory run");
      out->Check(csv_of(res.log) == ref_csv,
                 std::string(fam.name) + ": recovered release log differs from "
                 "the in-memory run");
      rate[f].push_back(static_cast<double>(n * kHorizon) / res.durable_s);
    }
    // The WAL of the last pass reads back strictly with T frames, each the
    // in-memory run's release record.
    auto wal = longdp::persist::ReadWal(
        longdp::persist::DurableSession::WalPath(dir + "/" + fam.name),
        longdp::persist::WalReadMode::kStrict);
    out->Check(wal.ok() && wal->records == fam.ref->records,
               std::string(fam.name) + ": WAL does not read back strictly as "
               "the T release records");
  }

  // Archive read-back: every release and every panel bit.
  const PassResult& last = results.back();
  auto reader = longdp::archive::ArchiveReader::Open(archive_path);
  if (out->Op(reader.status(), "open sealed archive")) {
    for (const auto& [label, log] :
         {std::pair<const char*, const ReleaseLog*>{"fixed_window", &last.fw.log},
          {"cumulative", &last.cu.log},
          {"categorical", &last.cat.log}}) {
      auto id = reader->FindLabel(label);
      auto back = id.ok() ? reader->ToReleaseLog(*id)
                          : Result<ReleaseLog>(id.status());
      out->Check(back.ok() && csv_of(*back) == csv_of(*log),
                 std::string("archive: release log '") + label +
                     "' does not read back equal");
    }
    for (const auto& [label, p] :
         {std::pair<const char*, const Panel*>{"fixed_window.panel", &last.fw_panel},
          {"cumulative.panel", &last.cu_panel}}) {
      auto id = reader->FindLabel(label);
      bool equal = id.ok();
      for (const auto& e : reader->entries()) {
        if (!id.ok() || e.label_id != *id) continue;
        equal = equal && e.count == p->n && e.rounds == p->horizon;
        for (int64_t t = 1; equal && t <= p->horizon; ++t) {
          const auto v = reader->CohortRound(e, t);
          equal = std::equal(v.words(), v.words() + v.num_words(),
                             p->Round(t).words());
        }
      }
      out->Check(equal, std::string("archive: panel '") + label +
                            "' does not read back bit for bit");
    }
  }
  // data.pack_ms: packing one byte-per-user round, the step every durable
  // round starts with; the packed words must be the panel's.
  for (int64_t t = 1; t <= kHorizon; ++t) {
    longdp::data::PackedRound packed;
    ScopedSpan span("data.pack");
    const Status st = packed.Assign(bits[static_cast<size_t>(t - 1)]);
    span.Close();
    const auto v = packed.view();
    out->Check(out->Op(st, "pack round") &&
                   std::equal(v.words(), v.words() + v.num_words(),
                              panel.Round(t).words()),
               "data: packed round differs from the panel");
  }
  AddEndToEnd(setup_s, pass_s, Median(rate[0]), Median(rate[1]), Median(rate[2]),
              out);
}

}  // namespace perfbench
