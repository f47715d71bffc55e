#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>

namespace perfbench {
namespace {

const char* const kFamilies[] = {"fixed_window", "cumulative", "categorical"};

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

}  // namespace

std::vector<Metric> PerLayerMetrics(const Trace& tr) {
  std::vector<Metric> m;
  const double passes =
      std::max<double>(1.0, static_cast<double>(tr.DurationsMs("bench.pass").size()));
  auto med_ms = [&](const std::string& span) {
    return Median(tr.DurationsMs(span));
  };
  auto per_pass_ms = [&](const std::string& span) {
    return Sum(tr.DurationsMs(span)) / passes;
  };
  auto med_attr = [&](const std::string& span, const char* key) {
    return Median(tr.AttrValues(span, key));
  };
  const auto self = tr.LayerSelfSeconds();
  auto self_s = [&](const char* layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };

  // data
  m.push_back({"data.generate_s", "s", med_ms("data.generate") / 1e3});
  m.push_back({"data.pack_ms", "ms", med_ms("data.pack")});
  m.push_back({"data.self_s", "s", self_s("data")});

  // core
  for (const char* f : kFamilies) {
    const std::string c = std::string("core.") + f;
    m.push_back({c + ".first_release_ms", "ms", med_ms(c + ".first_release")});
    m.push_back({c + ".round_ms.p50", "ms", med_ms(c + ".round")});
    m.push_back({c + ".state_mb", "MB", med_attr(c + ".pass", "state_mb")});
  }
  m.push_back({"core.fixed_window.negative_clamps", "count",
               med_attr("core.fixed_window.pass", "negative_clamps")});
  m.push_back({"core.fixed_window.rounding_draws", "count",
               med_attr("core.fixed_window.pass", "rounding_draws")});
  m.push_back({"core.categorical.negative_clamps", "count",
               med_attr("core.categorical.pass", "negative_clamps")});
  m.push_back({"core.categorical.remainder_draws", "count",
               med_attr("core.categorical.pass", "remainder_draws")});
  m.push_back({"core.to_dataset_ms", "ms", per_pass_ms("core.to_dataset")});
  m.push_back({"core.self_s", "s", self_s("core")});

  // persist
  double durable_s = 0.0, base_s = 0.0, recover_s = 0.0;
  for (const char* f : kFamilies) {
    const std::string p = std::string("persist.") + f;
    m.push_back({p + ".round_ms.p50", "ms", med_ms(p + ".round")});
    m.push_back({p + ".snapshot_ms.p50", "ms", med_ms(p + ".snapshot")});
    m.push_back({p + ".snapshot_mb", "MB", med_attr(p + ".snapshot", "bytes") / 1e6});
    durable_s += med_attr(p + ".session", "durable_s");
    recover_s += med_attr(p + ".session", "recover_s");
    base_s += med_attr(std::string("core.") + f + ".base_pass", "base_s");
  }
  m.push_back({"persist.overhead_x", "x", base_s > 0.0 ? durable_s / base_s : 0.0});
  m.push_back({"persist.base_s", "s", base_s});
  m.push_back({"persist.recover_s", "s", recover_s});
  m.push_back({"persist.reopen_ms", "ms", per_pass_ms("persist.reopen")});
  m.push_back({"persist.replay_ms", "ms", per_pass_ms("persist.replay")});
  m.push_back({"persist.replay_rounds", "count",
               Sum(tr.AttrValues("persist.replay", "rounds")) / passes});
  m.push_back({"persist.wal_kb", "KB", med_attr("archive.seal", "wal_kb")});
  m.push_back({"persist.disk_mb", "MB", med_attr("archive.seal", "disk_mb")});
  m.push_back({"persist.self_s", "s", self_s("persist")});

  // archive
  m.push_back({"archive.seal_s", "s", med_ms("archive.seal") / 1e3});
  m.push_back({"archive.append_ms", "ms", per_pass_ms("archive.append")});
  m.push_back({"archive.finish_ms", "ms", med_ms("archive.finish")});
  m.push_back({"archive.mb", "MB",
               std::max(med_attr("archive.seal", "archive_mb"),
                        med_attr("archive.open", "mb"))});
  m.push_back({"archive.open_ms", "ms", med_ms("archive.open")});
  m.push_back({"archive.select_us", "us", med_ms("archive.select") * 1e3});
  m.push_back({"archive.self_s", "s", self_s("archive")});

  // query
  double lookup_ms = 0.0, lookups = 0.0;
  for (const char* f : kFamilies) {
    const std::string q = std::string("query.releases.") + f;
    lookup_ms += Sum(tr.DurationsMs(q));
    lookups += Sum(tr.AttrValues(q, "queries"));
  }
  m.push_back({"query.release_ns", "ns", lookups > 0.0 ? lookup_ms * 1e6 / lookups : 0.0});
  m.push_back({"query.histogram_us", "us", med_ms("query.histogram") * 1e3});
  std::vector<double> spells;
  for (const char* s : {"ever", "ongoing", "mean_length", "length_histogram"}) {
    const std::string name = std::string("query.spell.") + s;
    const auto d = tr.DurationsMs(name);
    spells.insert(spells.end(), d.begin(), d.end());
    m.push_back({std::string("query.spell_ms.") + s, "ms", Median(d)});
  }
  m.push_back({"query.spell_ms.p50", "ms", Quantile(spells, 0.5)});
  m.push_back({"query.spell_ms.p90", "ms", Quantile(spells, 0.9)});
  double words = 0.0;
  for (const char* s : {"query.histogram", "query.spell.ever", "query.spell.ongoing",
                        "query.spell.mean_length", "query.spell.length_histogram"}) {
    words += Sum(tr.AttrValues(s, "words"));
  }
  m.push_back({"query.words_scanned", "count", words / passes});
  m.push_back({"query.self_s", "s", self_s("query")});

  // util::simd, called directly on the mapped planes
  m.push_back({"simd.plane_histogram_us", "us", med_ms("simd.plane_histogram") * 1e3});
  m.push_back({"simd.self_s", "s", self_s("simd")});
  return m;
}

void PrintLayerSelfTimes(const Trace& tr) {
  std::fprintf(stderr, "self time by layer (s):\n");
  for (const auto& [layer, s] : tr.LayerSelfSeconds()) {
    std::fprintf(stderr, "  %-10s %12.6f\n", layer.c_str(), s);
  }
}

}  // namespace perfbench
