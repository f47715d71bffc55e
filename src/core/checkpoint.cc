// Binary checkpoints of the three synthesizers and the synthetic cohort.
//
// Every format is a text magic line ("longdp-<family>-checkpoint-v<N>\n",
// so `head -1` still identifies the file), then little-endian sections
// written by util::ByteWriter, then a format-specific end sentinel that
// must be the last bytes of the input. Each array section is a u64 element
// count plus a verbatim dump of the in-memory array it restores (one
// memcpy each way); scalars are i64/u64, and doubles are their bit
// patterns, so rho, beta and the spent budget round-trip exactly.
//
//   fixed-window v5: i64 horizon, i64 k, f64 rho, i64 npad, f64 beta,
//     u64 seed | i64 t, i64 n, i64 releases, i64 negative_clamps,
//     i64 rounding_draws, f64 spent | if n >= 0: the k window planes in bit
//     order (plane 0 = the newest round), u64 words each | i64 cohort
//     rounds (0 before the first release) | if rounds > 0: u8 cohort
//     history (column-major), i64 overlap-group member order
//   cumulative v5: i64 horizon, f64 rho, str split, str counter, u64 seed
//     | i64 t, i64 n | if n >= 0: the bit_width(T) true-weight planes
//     (u64 words each) | i64 released row | u8 history (column-major) |
//     per weight b = 0..T: u64 spent head, i64 members | str counter-bank
//     state (CounterBank::SaveState text)
//   categorical v2: i64 horizon, i64 k, i64 A, f64 rho, i64 npad, f64
//     beta, u64 seed | i64 t, i64 n, i64 initialized, i64 num_records,
//     i64 releases, i64 negative_clamps, i64 remainder_draws, f64 spent |
//     if n >= 0: u64 per-user windows | if initialized: i64 histogram, u8
//     symbol history (column-major), i64 overlap-group sizes, i64 members
//
// Decoding is total: every read is bounds-checked before it allocates,
// and every semantic invariant the synthesizers rely on is re-checked in
// word or byte form (codes in range, 0/1 history bytes, zero plane tails,
// group orders that are permutations consistent with the histories,
// histograms and thresholds that match the records, a finite non-negative
// spent budget), so any byte string yields a Status. An array is allocated
// only once the input holds its bytes; what the options alone size (2^k or
// A^k histogram bins, a counter bank over the horizon) is bounded by the
// caps Create applies to a live run too, checked before any section is
// read. Text checkpoints of the previous versions get an explicit
// version-skew error.

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "core/synthetic_cohort.h"
#include "stream/counter_factory.h"
#include "stream/state_io.h"
#include "util/byte_io.h"

namespace longdp {
namespace core {

namespace {

// v5 (fixed-window, cumulative) and v2 (categorical) are the first binary
// formats; v4/v1 were text with the same magic prefixes.
constexpr std::string_view kFixedWindowMagic =
    "longdp-fixed-window-checkpoint-v5";
constexpr std::string_view kFixedWindowEnd =
    "end-longdp-fixed-window-checkpoint-v5";
constexpr std::string_view kCumulativeMagic =
    "longdp-cumulative-checkpoint-v5";
constexpr std::string_view kCumulativeEnd =
    "end-longdp-cumulative-checkpoint-v5";
constexpr std::string_view kCategoricalMagic =
    "longdp-categorical-checkpoint-v2";
constexpr std::string_view kCategoricalEnd =
    "end-longdp-categorical-checkpoint-v2";

void WriteMagic(std::string_view magic, util::ByteWriter* w) {
  w->Raw(magic.data(), magic.size());
  w->Raw("\n", 1);
}

// Checks the magic line and returns a reader over the sections after it.
// A line with the family's prefix but another version is a real checkpoint
// this build cannot restore, and says so; anything else is not one.
// `what` names the format in errors ("fixed-window checkpoint").
Result<util::ByteReader> OpenCheckpoint(std::string_view bytes,
                                        std::string_view magic,
                                        const char* what) {
  const std::string_view prefix = magic.substr(0, magic.rfind('v'));
  const size_t eol = bytes.substr(0, magic.size() + 16).find('\n');
  const std::string_view line = bytes.substr(0, eol);
  if (eol != std::string_view::npos && line == magic) {
    return util::ByteReader(bytes.substr(eol + 1),
                            StatusCode::kInvalidArgument, what);
  }
  if (eol != std::string_view::npos && line.starts_with(prefix)) {
    return Status::InvalidArgument("unsupported " + std::string(what) +
                                   " version '" + std::string(line) +
                                   "'; this build reads " +
                                   std::string(magic));
  }
  return Status::InvalidArgument("not a " + std::string(what));
}

// The end sentinel must be present and be the last bytes of the input.
Status ExpectEnd(util::ByteReader* r, std::string_view sentinel) {
  std::string_view got;
  LONGDP_RETURN_NOT_OK(r->ReadView(sentinel.size(), &got));
  if (got != sentinel) return r->Error("missing end sentinel");
  if (!r->AtEnd()) {
    return r->Error(std::to_string(r->remaining()) +
                    " trailing bytes after the end sentinel");
  }
  return Status::OK();
}

// Re-charges a restored spent budget. A NaN, infinite or negative value
// must never restore as "nothing spent".
Status ChargeRestored(double spent, const util::ByteReader& r,
                      dp::ZCdpAccountant* accountant) {
  if (!std::isfinite(spent) || spent < 0.0) {
    return r.Error("spent budget must be finite and >= 0");
  }
  if (spent > 0.0) return accountant->Charge(spent, "restored-checkpoint");
  return Status::OK();
}

// Reads an i64 that becomes an int-typed option; range-checked first so
// the narrowing cast cannot wrap a forged value into a valid one.
Status ReadSmallInt(util::ByteReader* r, int64_t lo, int64_t hi, int* out) {
  int64_t v = 0;
  LONGDP_RETURN_NOT_OK(r->ReadI64(&v));
  if (v < lo || v > hi) return r->Error("option out of range");
  *out = static_cast<int>(v);
  return Status::OK();
}

uint8_t MaxByte(std::span<const uint8_t> bytes) {
  uint8_t m = 0;
  for (uint8_t b : bytes) m = std::max(m, b);
  return m;
}

// Unsigned, so a forged n near INT64_MAX cannot overflow.
size_t WordsFor(int64_t n) {
  return static_cast<size_t>((static_cast<uint64_t>(n) + 63) >> 6);
}

// A plane of n lanes: the right word count and no set bit past lane n.
bool ValidPlane(const std::vector<uint64_t>& plane, int64_t n) {
  if (plane.size() != WordsFor(n)) return false;
  return n % 64 == 0 || (plane.back() >> (n % 64)) == 0;
}

bool AllZero(const std::vector<uint64_t>& words) {
  uint64_t acc = 0;
  for (uint64_t w : words) acc |= w;
  return acc == 0;
}

// a * b as int64, or false on overflow / negative inputs.
bool CheckedProduct(int64_t a, int64_t b, int64_t* out) {
  return a >= 0 && b >= 0 && !__builtin_mul_overflow(a, b, out);
}

template <typename Synth>
Result<std::unique_ptr<Synth>> LoadFromStream(std::istream& in) {
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  return Synth::LoadCheckpoint(bytes);
}

template <typename Synth>
Status SaveToStream(const Synth& synth, std::ostream& out) {
  std::string bytes;
  LONGDP_RETURN_NOT_OK(synth.SaveCheckpoint(&bytes));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good() ? Status::OK()
                    : Status::IOError("checkpoint write failed");
}

}  // namespace

// ---------------------------------------------------------------------------
// SyntheticCohort
// ---------------------------------------------------------------------------

Result<SyntheticCohort> SyntheticCohort::Restore(
    int window_k, int64_t rounds, std::vector<uint8_t> history_bits,
    const std::vector<int64_t>& group_order) {
  LONGDP_RETURN_NOT_OK(util::ValidateWindow(window_k));
  if (rounds < window_k) {
    return Status::InvalidArgument(
        "restored histories must span at least k rounds");
  }
  const size_t m = group_order.size();
  if (history_bits.size() / static_cast<uint64_t>(rounds) != m ||
      history_bits.size() % static_cast<uint64_t>(rounds) != 0) {
    return Status::InvalidArgument(
        "restored history is not rounds x records bytes");
  }
  if (MaxByte(history_bits) > 1) {
    return Status::InvalidArgument("history bits must be 0 or 1");
  }
  SyntheticCohort cohort;
  cohort.k_ = window_k;
  cohort.num_records_ = static_cast<int64_t>(m);
  cohort.rounds_ = rounds;
  // Each record's width-k suffix pattern, one column at a time.
  std::vector<uint32_t> suffix(m, 0);
  for (int64_t t = rounds - window_k; t < rounds; ++t) {
    const uint8_t* col = history_bits.data() + static_cast<size_t>(t) * m;
    for (size_t r = 0; r < m; ++r) suffix[r] = (suffix[r] << 1) | col[r];
  }
  cohort.pattern_count_.assign(util::NumPatterns(window_k), 0);
  for (uint32_t p : suffix) ++cohort.pattern_count_[p];
  // The order lists each overlap group's members contiguously; every
  // member must be a distinct record whose current overlap is that group.
  const size_t num_overlaps = util::NumPatterns(window_k - 1);
  cohort.groups_.Reset(num_overlaps);
  for (util::Pattern p = 0; p < cohort.pattern_count_.size(); ++p) {
    cohort.groups_.AddCount(util::Overlap(p, window_k),
                            cohort.pattern_count_[p]);
  }
  cohort.groups_.BuildOffsets();
  std::vector<uint8_t> seen(m, 0);
  size_t pos = 0;
  for (size_t z = 0; z < num_overlaps; ++z) {
    const size_t size = static_cast<size_t>(cohort.groups_.size(z));
    for (size_t i = pos; i < pos + size; ++i) {
      const int64_t rec = group_order[i];
      if (rec < 0 || static_cast<size_t>(rec) >= m ||
          seen[static_cast<size_t>(rec)] ||
          util::Overlap(suffix[static_cast<size_t>(rec)], window_k) != z) {
        return Status::InvalidArgument(
            "group order is not a permutation consistent with the "
            "histories");
      }
      seen[static_cast<size_t>(rec)] = 1;
    }
    cohort.groups_.PlaceRange(z, group_order.data() + pos,
                              static_cast<int64_t>(size));
    pos += size;
  }
  cohort.groups_next_.Reset(num_overlaps);
  cohort.history_bits_ = std::move(history_bits);
  return cohort;
}

// ---------------------------------------------------------------------------
// FixedWindowSynthesizer
// ---------------------------------------------------------------------------

Status FixedWindowSynthesizer::SaveCheckpoint(std::string* out) const {
  const int k = options_.window_k;
  const size_t plane_bytes =
      window_planes_.empty() ? 0 : window_planes_[0].size() * 8 + 8;
  const size_t cohort_bytes =
      cohort_.has_value()
          ? cohort_->history_bits().size_bytes() +
                cohort_->group_order().size_bytes() + 16
          : 0;
  out->reserve(out->size() + 256 + static_cast<size_t>(k) * plane_bytes +
               cohort_bytes);
  util::ByteWriter w(out);
  WriteMagic(kFixedWindowMagic, &w);
  w.I64(options_.horizon);
  w.I64(k);
  w.F64(options_.rho);
  w.I64(npad_);
  w.F64(options_.beta_target);
  w.U64(options_.seed);
  w.I64(t_);
  w.I64(n_);
  w.I64(stats_.releases);
  w.I64(stats_.negative_clamps);
  w.I64(stats_.rounding_draws);
  w.F64(accountant_.spent());
  if (n_ >= 0) {
    // Bit order, not ring order: the ring head is an in-memory detail.
    for (int j = 0; j < k; ++j) {
      w.Array(window_planes_[static_cast<size_t>((plane_head_ + j) % k)]);
    }
  }
  w.I64(cohort_.has_value() ? cohort_->rounds() : 0);
  if (cohort_.has_value()) {
    w.Array(cohort_->history_bits());
    w.Array(cohort_->group_order());
  }
  w.Raw(kFixedWindowEnd.data(), kFixedWindowEnd.size());
  return Status::OK();
}

Result<std::unique_ptr<FixedWindowSynthesizer>>
FixedWindowSynthesizer::LoadCheckpoint(std::string_view bytes) {
  LONGDP_ASSIGN_OR_RETURN(
      util::ByteReader r,
      OpenCheckpoint(bytes, kFixedWindowMagic, "fixed-window checkpoint"));
  Options options;
  LONGDP_RETURN_NOT_OK(r.ReadI64(&options.horizon));
  LONGDP_RETURN_NOT_OK(
      ReadSmallInt(&r, 1, util::kMaxWindow, &options.window_k));
  LONGDP_RETURN_NOT_OK(r.ReadF64(&options.rho));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&options.npad));
  LONGDP_RETURN_NOT_OK(r.ReadF64(&options.beta_target));
  LONGDP_RETURN_NOT_OK(r.ReadU64(&options.seed));
  // rho, beta and k go through the same validation as a fresh run.
  LONGDP_ASSIGN_OR_RETURN(auto synth, Create(options));
  const int k = options.window_k;

  int64_t t = 0, n = 0;
  Stats stats;
  double spent = 0.0;
  LONGDP_RETURN_NOT_OK(r.ReadI64(&t));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&n));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&stats.releases));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&stats.negative_clamps));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&stats.rounding_draws));
  LONGDP_RETURN_NOT_OK(r.ReadF64(&spent));
  if (t < 0 || t > options.horizon || n < -1 || (n >= 0) != (t > 0)) {
    return r.Error("time or population out of range");
  }
  LONGDP_RETURN_NOT_OK(ChargeRestored(spent, r, &synth->accountant_));
  if (n >= 0) {
    synth->window_planes_.resize(static_cast<size_t>(k));
    for (int j = 0; j < k; ++j) {
      std::vector<uint64_t>& plane =
          synth->window_planes_[static_cast<size_t>(j)];
      LONGDP_RETURN_NOT_OK(r.ReadArray(&plane));
      if (!ValidPlane(plane, n)) {
        return r.Error("window plane has the wrong size or bits past n");
      }
      // Plane j holds the bit from j rounds ago; before round j + 1 it
      // was never written.
      if (j >= t && !AllZero(plane)) {
        return r.Error("window plane set before its round");
      }
    }
    synth->plane_head_ = 0;
  }
  int64_t rounds = 0;
  LONGDP_RETURN_NOT_OK(r.ReadI64(&rounds));
  if (rounds != (t >= k ? t : 0)) {
    return r.Error("cohort rounds inconsistent with time t");
  }
  if (rounds > 0) {
    std::vector<uint8_t> history;
    std::vector<int64_t> order;
    LONGDP_RETURN_NOT_OK(r.ReadArray(&history));
    LONGDP_RETURN_NOT_OK(r.ReadArray(&order));
    LONGDP_ASSIGN_OR_RETURN(
        auto cohort,
        SyntheticCohort::Restore(k, rounds, std::move(history), order));
    synth->cohort_.emplace(std::move(cohort));
  }
  LONGDP_RETURN_NOT_OK(ExpectEnd(&r, kFixedWindowEnd));
  synth->t_ = t;
  synth->n_ = n;
  synth->stats_ = stats;
  return synth;
}

Status FixedWindowSynthesizer::SaveCheckpoint(std::ostream& out) const {
  return SaveToStream(*this, out);
}

Result<std::unique_ptr<FixedWindowSynthesizer>>
FixedWindowSynthesizer::LoadCheckpoint(std::istream& in) {
  return LoadFromStream<FixedWindowSynthesizer>(in);
}

// ---------------------------------------------------------------------------
// CumulativeSynthesizer
// ---------------------------------------------------------------------------

Status CumulativeSynthesizer::SaveCheckpoint(std::string* out) const {
  std::string bank_state;
  if (n_ >= 0) {
    std::ostringstream bank;
    LONGDP_RETURN_NOT_OK(bank_->SaveState(bank));
    bank_state = bank.str();
  }
  size_t total = 256 + bank_state.size() + history_bits_.size() +
                 released_.size() * 8;
  for (const auto& plane : weight_planes_) total += 8 + plane.size() * 8;
  for (const auto& group : weight_groups_) total += 16 + group.size() * 8;
  out->reserve(out->size() + total);

  util::ByteWriter w(out);
  WriteMagic(kCumulativeMagic, &w);
  w.I64(options_.horizon);
  w.F64(options_.rho);
  w.String(stream::BudgetSplitName(options_.split));
  w.String(options_.counter_factory ? options_.counter_factory->name()
                                    : std::string("tree"));
  w.U64(options_.seed);
  w.I64(t_);
  w.I64(n_);
  if (n_ >= 0) {
    for (const auto& plane : weight_planes_) w.Array(plane);
    w.Array(released_);
    w.Array(history_bits_);
    // Member order and spent heads exactly as the promotion shuffles left
    // them: rebuilding in record order would promote different records.
    for (size_t b = 0; b < weight_groups_.size(); ++b) {
      w.U64(group_head_[b]);
      w.Array(weight_groups_[b]);
    }
    w.String(bank_state);
  }
  w.Raw(kCumulativeEnd.data(), kCumulativeEnd.size());
  return Status::OK();
}

Result<std::unique_ptr<CumulativeSynthesizer>>
CumulativeSynthesizer::LoadCheckpoint(std::string_view bytes) {
  LONGDP_ASSIGN_OR_RETURN(
      util::ByteReader r,
      OpenCheckpoint(bytes, kCumulativeMagic, "cumulative checkpoint"));
  Options options;
  std::string_view split_name, counter_name;
  LONGDP_RETURN_NOT_OK(r.ReadI64(&options.horizon));
  LONGDP_RETURN_NOT_OK(r.ReadF64(&options.rho));
  LONGDP_RETURN_NOT_OK(r.ReadString(&split_name));
  LONGDP_RETURN_NOT_OK(r.ReadString(&counter_name));
  LONGDP_RETURN_NOT_OK(r.ReadU64(&options.seed));
  LONGDP_ASSIGN_OR_RETURN(options.split,
                          stream::BudgetSplitFromName(std::string(split_name)));
  LONGDP_ASSIGN_OR_RETURN(
      options.counter_factory,
      stream::MakeCounterFactory(std::string(counter_name)));
  LONGDP_ASSIGN_OR_RETURN(auto synth, Create(options));
  CumulativeSynthesizer& s = *synth;

  int64_t t = 0, n = 0;
  LONGDP_RETURN_NOT_OK(r.ReadI64(&t));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&n));
  if (t < 0 || t > options.horizon || n < -1 || (n >= 0) != (t > 0)) {
    return r.Error("time or population out of range");
  }
  if (n >= 0) {
    // The bit-plane representation InitializeForPopulation picks (Create
    // caps the horizon well below the 2^16 where it would fall back to
    // scalar weights), filled from the sections instead of zeroed; every
    // array is bounded by the input before it is allocated.
    s.num_weight_planes_ =
        std::bit_width(static_cast<uint64_t>(options.horizon));
    s.weight_planes_.resize(static_cast<size_t>(s.num_weight_planes_));
    for (auto& plane : s.weight_planes_) {
      LONGDP_RETURN_NOT_OK(r.ReadArray(&plane));
      if (!ValidPlane(plane, n)) {
        return r.Error("weight plane has the wrong size or bits past n");
      }
    }
    // Bit-sliced compare: no lane's weight may exceed t.
    for (size_t i = 0; i < WordsFor(n); ++i) {
      uint64_t greater = 0, equal = ~uint64_t{0};
      for (int j = s.num_weight_planes_ - 1; j >= 0; --j) {
        const uint64_t bits = s.weight_planes_[static_cast<size_t>(j)][i];
        if ((t >> j) & 1) {
          equal &= bits;
        } else {
          greater |= equal & bits;
          equal &= ~bits;
        }
      }
      if (greater != 0) return r.Error("true weight exceeds t");
    }
    s.plane_hist_.assign(size_t{1} << s.num_weight_planes_, 0);
    LONGDP_RETURN_NOT_OK(r.ReadArray(&s.released_));
    const size_t row = static_cast<size_t>(options.horizon) + 1;
    if (s.released_.size() != row) {
      return r.Error("released row has the wrong length");
    }
    s.prev_released_ = s.released_;
    LONGDP_RETURN_NOT_OK(r.ReadArray(&s.history_bits_));
    int64_t cells = 0;
    if (!CheckedProduct(n, t, &cells) ||
        s.history_bits_.size() != static_cast<uint64_t>(cells)) {
      return r.Error("history is not n x t bytes");
    }
    if (MaxByte(s.history_bits_) > 1) {
      return r.Error("history bits must be 0 or 1");
    }
    const size_t m = static_cast<size_t>(n);
    std::vector<int32_t> weight(m, 0);
    for (int64_t j = 0; j < t; ++j) {
      const uint8_t* col = s.history_bits_.data() + static_cast<size_t>(j) * m;
      for (size_t rec = 0; rec < m; ++rec) weight[rec] += col[rec];
    }
    // Live members (past each spent head) must partition the records, each
    // in the group of its synthetic weight; the spent prefix is inert.
    s.weight_groups_.resize(row);
    s.group_head_.assign(row, 0);
    std::vector<uint8_t> live(m, 0);
    for (size_t b = 0; b < row; ++b) {
      uint64_t head = 0;
      LONGDP_RETURN_NOT_OK(r.ReadU64(&head));
      std::vector<int64_t>& group = s.weight_groups_[b];
      LONGDP_RETURN_NOT_OK(r.ReadArray(&group));
      if (head > group.size()) return r.Error("group head past its end");
      for (size_t i = 0; i < group.size(); ++i) {
        const int64_t rec = group[i];
        if (rec < 0 || rec >= n) return r.Error("group member out of range");
        if (i < head) continue;
        const size_t ri = static_cast<size_t>(rec);
        if (live[ri] || weight[ri] != static_cast<int64_t>(b)) {
          return r.Error("groups inconsistent with histories");
        }
        live[ri] = 1;
      }
      s.group_head_[b] = static_cast<size_t>(head);
    }
    if (std::find(live.begin(), live.end(), 0) != live.end()) {
      return r.Error("groups missing a live record");
    }
    s.n_ = n;
    s.t_ = t;
    if (s.SyntheticThresholdCounts() != s.released_) {
      return r.Error("histories inconsistent with released thresholds");
    }
    // The bank is created (charging the full budget, as the original run
    // did at its first round) only once everything it is sized by has
    // been read from the input.
    std::string_view bank_state;
    LONGDP_RETURN_NOT_OK(r.ReadString(&bank_state));
    stream::CounterBank::Options bank_options;
    bank_options.horizon = options.horizon;
    bank_options.population = n;
    bank_options.total_rho = options.rho;
    bank_options.split = options.split;
    bank_options.factory = options.counter_factory;
    bank_options.seed = options.seed;
    LONGDP_ASSIGN_OR_RETURN(
        s.bank_, stream::CounterBank::Create(bank_options, &s.accountant_));
    std::istringstream bank(std::string{bank_state});
    LONGDP_RETURN_NOT_OK(s.bank_->RestoreState(bank));
    LONGDP_RETURN_NOT_OK(
        stream::state_io::ExpectExhausted(bank, "counter bank state"));
    s.z_.assign(static_cast<size_t>(options.horizon), 0);
    // A live run reserves n x horizon history bytes at its first round, so
    // the per-round column append never reallocates. Match that capacity,
    // but reserve at most twice the history the input held.
    s.history_bits_.reserve(
        m * static_cast<size_t>(std::min(options.horizon, 2 * t)));
  }
  LONGDP_RETURN_NOT_OK(ExpectEnd(&r, kCumulativeEnd));
  s.t_ = t;
  return synth;
}

Status CumulativeSynthesizer::SaveCheckpoint(std::ostream& out) const {
  return SaveToStream(*this, out);
}

Result<std::unique_ptr<CumulativeSynthesizer>>
CumulativeSynthesizer::LoadCheckpoint(std::istream& in) {
  return LoadFromStream<CumulativeSynthesizer>(in);
}

// ---------------------------------------------------------------------------
// CategoricalWindowSynthesizer
// ---------------------------------------------------------------------------

Status CategoricalWindowSynthesizer::SaveCheckpoint(std::string* out) const {
  std::vector<int64_t> sizes;
  if (initialized_) {
    sizes.resize(static_cast<size_t>(num_overlaps_));
    for (size_t z = 0; z < sizes.size(); ++z) sizes[z] = groups_.size(z);
  }
  out->reserve(out->size() + 256 + user_window_.size() * 8 +
               counts_.size() * 8 + history_symbols_.size() +
               sizes.size() * 8 + static_cast<size_t>(num_records_) * 8);
  util::ByteWriter w(out);
  WriteMagic(kCategoricalMagic, &w);
  w.I64(options_.horizon);
  w.I64(options_.window_k);
  w.I64(options_.alphabet);
  w.F64(options_.rho);
  w.I64(npad_);
  w.F64(options_.beta_target);
  w.U64(options_.seed);
  w.I64(t_);
  w.I64(n_);
  w.I64(initialized_ ? 1 : 0);
  w.I64(num_records_);
  w.I64(stats_.releases);
  w.I64(stats_.negative_clamps);
  w.I64(stats_.remainder_draws);
  w.F64(accountant_.spent());
  if (n_ >= 0) w.Array(user_window_);
  if (initialized_) {
    w.Array(counts_);
    w.Array(history_symbols_);
    // The overlap groups' exact member ORDER is load-bearing: the slide's
    // partial shuffles permute it, so a resumed run must see the same
    // member sequence the uninterrupted run would.
    w.Array(sizes);
    w.Array(std::span<const int64_t>(groups_.group_data(0),
                                     static_cast<size_t>(groups_.total())));
  }
  w.Raw(kCategoricalEnd.data(), kCategoricalEnd.size());
  return Status::OK();
}

Result<std::unique_ptr<CategoricalWindowSynthesizer>>
CategoricalWindowSynthesizer::LoadCheckpoint(std::string_view bytes) {
  LONGDP_ASSIGN_OR_RETURN(
      util::ByteReader r,
      OpenCheckpoint(bytes, kCategoricalMagic, "categorical checkpoint"));
  Options options;
  LONGDP_RETURN_NOT_OK(r.ReadI64(&options.horizon));
  LONGDP_RETURN_NOT_OK(ReadSmallInt(&r, 1, 64, &options.window_k));
  LONGDP_RETURN_NOT_OK(
      ReadSmallInt(&r, 2, int64_t{1} << 24, &options.alphabet));
  LONGDP_RETURN_NOT_OK(r.ReadF64(&options.rho));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&options.npad));
  LONGDP_RETURN_NOT_OK(r.ReadF64(&options.beta_target));
  LONGDP_RETURN_NOT_OK(r.ReadU64(&options.seed));
  if (options.npad < 0) {
    return r.Error("the checkpoint must store the resolved npad");
  }
  LONGDP_ASSIGN_OR_RETURN(auto synth, Create(options));
  CategoricalWindowSynthesizer& s = *synth;

  int64_t t = 0, n = 0, initialized = 0, num_records = 0;
  Stats stats;
  double spent = 0.0;
  LONGDP_RETURN_NOT_OK(r.ReadI64(&t));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&n));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&initialized));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&num_records));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&stats.releases));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&stats.negative_clamps));
  LONGDP_RETURN_NOT_OK(r.ReadI64(&stats.remainder_draws));
  LONGDP_RETURN_NOT_OK(r.ReadF64(&spent));
  if (t < 0 || t > options.horizon || n < -1 || (n >= 0) != (t > 0) ||
      (initialized != 0 && initialized != 1) || num_records < 0) {
    return r.Error("state out of range");
  }
  const bool inited = initialized == 1;
  if (inited != (t >= options.window_k)) {
    return r.Error("initialized flag inconsistent with t");
  }
  if (!inited && num_records != 0) {
    return r.Error("records before the first release");
  }
  LONGDP_RETURN_NOT_OK(ChargeRestored(spent, r, &s.accountant_));
  if (n >= 0) {
    LONGDP_RETURN_NOT_OK(r.ReadArray(&s.user_window_));
    if (s.user_window_.size() != static_cast<size_t>(n)) {
      return r.Error("window section has the wrong length");
    }
    for (uint64_t w : s.user_window_) {
      if (w >= s.num_bins_) return r.Error("window pattern out of range");
    }
  }
  if (inited) {
    const size_t m = static_cast<size_t>(num_records);
    LONGDP_RETURN_NOT_OK(r.ReadArray(&s.counts_));
    if (s.counts_.size() != s.num_bins_) {
      return r.Error("histogram has the wrong length");
    }
    LONGDP_RETURN_NOT_OK(r.ReadArray(&s.history_symbols_));
    int64_t cells = 0;
    if (!CheckedProduct(num_records, t, &cells) ||
        s.history_symbols_.size() != static_cast<uint64_t>(cells)) {
      return r.Error("history is not records x t symbols");
    }
    if (m > 0 && MaxByte(s.history_symbols_) >= options.alphabet) {
      return r.Error("history symbol out of range");
    }
    // The histogram must be exactly the records' width-k suffix codes.
    const uint64_t a = static_cast<uint64_t>(options.alphabet);
    std::vector<uint64_t> suffix(m, 0);
    for (int64_t j = t - options.window_k; j < t; ++j) {
      const uint8_t* col =
          s.history_symbols_.data() + static_cast<size_t>(j) * m;
      for (size_t rec = 0; rec < m; ++rec) {
        suffix[rec] = suffix[rec] * a + col[rec];
      }
    }
    std::vector<int64_t> recount(s.num_bins_, 0);
    for (uint64_t code : suffix) ++recount[code];
    if (recount != s.counts_) {
      return r.Error("histogram does not match the record histories");
    }
    std::vector<int64_t> sizes, members;
    LONGDP_RETURN_NOT_OK(r.ReadArray(&sizes));
    LONGDP_RETURN_NOT_OK(r.ReadArray(&members));
    if (sizes.size() != s.num_overlaps_ || members.size() != m) {
      return r.Error("overlap groups have the wrong shape");
    }
    // Walking the sizes over the members: each group's members must be
    // distinct records whose current overlap is that group.
    std::vector<uint8_t> seen(m, 0);
    size_t pos = 0;
    for (size_t z = 0; z < sizes.size(); ++z) {
      if (sizes[z] < 0 || static_cast<uint64_t>(sizes[z]) > m - pos) {
        return r.Error("overlap group sizes do not cover the records");
      }
      for (size_t i = pos; i < pos + static_cast<size_t>(sizes[z]); ++i) {
        const int64_t rec = members[i];
        if (rec < 0 || rec >= num_records || seen[static_cast<size_t>(rec)] ||
            suffix[static_cast<size_t>(rec)] % s.num_overlaps_ != z) {
          return r.Error(
              "overlap group members are not a permutation consistent with "
              "the histories");
        }
        seen[static_cast<size_t>(rec)] = 1;
      }
      pos += static_cast<size_t>(sizes[z]);
    }
    if (pos != m) {
      return r.Error("overlap group sizes do not cover the records");
    }
    s.groups_.Reset(sizes.size());
    for (size_t z = 0; z < sizes.size(); ++z) s.groups_.AddCount(z, sizes[z]);
    s.groups_.BuildOffsets();
    pos = 0;
    for (size_t z = 0; z < sizes.size(); ++z) {
      s.groups_.PlaceRange(z, members.data() + pos, sizes[z]);
      pos += static_cast<size_t>(sizes[z]);
    }
    // Re-arm the per-round scratch exactly as InitialRelease would; the
    // next SlideRelease assumes these are sized.
    s.groups_next_.Reset(sizes.size());
    // As in the cumulative loader: the live run's n x horizon capacity,
    // at most twice the history the input held.
    s.history_symbols_.reserve(
        m * static_cast<size_t>(std::min(options.horizon, 2 * t)));
    s.counts_scratch_.assign(s.num_bins_, 0);
    s.targets_.assign(static_cast<size_t>(options.alphabet), 0);
    s.child_order_.assign(static_cast<size_t>(options.alphabet), 0);
    s.initialized_ = true;
  }
  LONGDP_RETURN_NOT_OK(ExpectEnd(&r, kCategoricalEnd));
  s.t_ = t;
  s.n_ = n;
  s.num_records_ = num_records;
  s.stats_ = stats;
  return synth;
}

}  // namespace core
}  // namespace longdp
