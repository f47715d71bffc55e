#include "core/categorical_synthesizer.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/observe_shard.h"
#include "util/batch_sampler.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {

namespace {
// Floor division for possibly-negative numerators.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b) != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}
}  // namespace

Result<uint64_t> CategoricalWindowSynthesizer::NumBins(int window_k,
                                                       int alphabet) {
  if (window_k < 1) {
    return Status::InvalidArgument("window k must be >= 1");
  }
  if (alphabet < 2) {
    return Status::InvalidArgument("alphabet size must be >= 2");
  }
  uint64_t bins = 1;
  for (int j = 0; j < window_k; ++j) {
    bins *= static_cast<uint64_t>(alphabet);
    if (bins > (uint64_t{1} << 24)) {
      return Status::InvalidArgument(
          "A^k exceeds 2^24 bins; reduce k or the alphabet");
    }
  }
  return bins;
}

CategoricalWindowSynthesizer::CategoricalWindowSynthesizer(
    const Options& options, int64_t npad, double sigma2, double rho_per_step)
    : options_(options),
      npad_(npad),
      sigma2_(sigma2),
      rho_per_step_(rho_per_step),
      accountant_(options.rho),
      noise_root_(options.seed, util::substream::kHistogramNoise),
      selection_root_(options.seed, util::substream::kSelection),
      noise_sampler_(dp::NoiseSampler::Gaussian(sigma2)) {}

Result<std::unique_ptr<CategoricalWindowSynthesizer>>
CategoricalWindowSynthesizer::Create(const Options& options) {
  LONGDP_ASSIGN_OR_RETURN(uint64_t bins,
                          NumBins(options.window_k, options.alphabet));
  if (options.horizon < options.window_k) {
    return Status::InvalidArgument("horizon T must be >= window k");
  }
  if (!(options.rho > 0.0)) {
    return Status::InvalidArgument("rho must be > 0");
  }
  double steps = static_cast<double>(options.horizon - options.window_k + 1);
  double sigma2 = std::isinf(options.rho) ? 0.0 : steps / (2.0 * options.rho);
  int64_t npad = options.npad;
  if (npad < 0) {
    if (!(options.beta_target > 0.0) || options.beta_target >= 1.0) {
      return Status::InvalidArgument("beta_target must be in (0,1)");
    }
    if (std::isinf(options.rho)) {
      npad = 0;
    } else {
      // Generalized Theorem 3.2 padding: 2^k -> A^k inside the log.
      double lead = std::sqrt(steps / options.rho) + 1.0 / std::sqrt(2.0);
      double bound = lead * std::sqrt(std::log(static_cast<double>(bins) *
                                               steps /
                                               options.beta_target));
      npad = static_cast<int64_t>(std::ceil(bound));
    }
  }
  double rho_per_step = std::isinf(options.rho) ? 0.0 : options.rho / steps;
  auto synth = std::unique_ptr<CategoricalWindowSynthesizer>(
      new CategoricalWindowSynthesizer(options, npad, sigma2, rho_per_step));
  synth->num_bins_ = bins;
  synth->num_overlaps_ = bins / static_cast<uint64_t>(options.alphabet);
  return synth;
}

Status CategoricalWindowSynthesizer::ObserveRound(
    const std::vector<uint8_t>& symbols) {
  if (t_ >= options_.horizon) {
    return Status::OutOfRange("synthesizer past its horizon");
  }
  if (n_ < 0) {
    n_ = static_cast<int64_t>(symbols.size());
    user_window_.assign(symbols.size(), 0);
  } else if (symbols.size() != static_cast<size_t>(n_)) {
    return Status::InvalidArgument("round size changed");
  }
  // Validate before mutating: a rejected round must not slide any window.
  for (uint8_t s : symbols) {
    if (s >= options_.alphabet) {
      return Status::InvalidArgument("symbol out of alphabet range");
    }
  }
  // Stage 1, fused per-user base-A slide + histogram count (RNG-free and
  // index-disjoint; see core/observe_shard.h for the sharding branches and
  // the thread-count-invariance argument — the per-shard histogram gate
  // matters here because A^k bins can dwarf a small population).
  const uint64_t a = static_cast<uint64_t>(options_.alphabet);
  const bool releasing = (t_ + 1 >= options_.window_k);
  ShardedSlideAndCount(
      options_.pool, n_, releasing, num_bins_, &window_hist_, &shard_hist_,
      [&](int64_t i) {
        const size_t ii = static_cast<size_t>(i);
        const uint64_t w = (user_window_[ii] * a + symbols[ii]) % num_bins_;
        user_window_[ii] = w;
        return w;
      },
      [&](int64_t i) { return user_window_[static_cast<size_t>(i)]; });
  ++t_;
  if (t_ < options_.window_k) return Status::OK();
  if (t_ == options_.window_k) return InitialRelease();
  return SlideRelease();
}

std::vector<int64_t>& CategoricalWindowSynthesizer::NoisyPaddedHistogram() {
  // The exact histogram was counted by the fused observe pass; pad and
  // noise it here. Bin s of round t draws from the keyed substream
  // (seed, kHistogramNoise, t, s), so the per-bin draws shard freely and
  // the noise vector is identical at any shard or thread count.
  noisy_scratch_ = window_hist_;
  noise_scratch_.resize(noisy_scratch_.size());
  const util::SubstreamRng round_noise =
      noise_root_.Derive(static_cast<uint64_t>(t_));
  noise_sampler_.FillLeaves(round_noise, noise_scratch_.size(),
                            noise_scratch_.data(), options_.pool);
  for (size_t s = 0; s < noisy_scratch_.size(); ++s) {
    noisy_scratch_[s] += npad_ + noise_scratch_[s];
  }
  return noisy_scratch_;
}

Status CategoricalWindowSynthesizer::InitialRelease() {
  LONGDP_RETURN_NOT_OK(accountant_.Charge(
      rho_per_step_, "categorical histogram t=" + std::to_string(t_)));
  std::vector<int64_t>& noisy = NoisyPaddedHistogram();
  ++stats_.releases;
  for (auto& c : noisy) {
    if (c < 0) {
      c = 0;
      ++stats_.negative_clamps;
    }
  }
  counts_ = noisy;
  // Counting-sort build of the flat overlap groups: per-overlap totals are
  // one pass over the noisy census, then records scatter into place.
  groups_.Reset(num_overlaps_);
  for (uint64_t s = 0; s < num_bins_; ++s) {
    groups_.AddCount(s % num_overlaps_, noisy[s]);
  }
  groups_.BuildOffsets();
  groups_next_.Reset(num_overlaps_);
  counts_scratch_.assign(num_bins_, 0);
  targets_.assign(static_cast<size_t>(options_.alphabet), 0);
  child_order_.assign(static_cast<size_t>(options_.alphabet), 0);
  num_records_ = 0;
  for (int64_t c : noisy) num_records_ += c;
  const int k = options_.window_k;
  const uint64_t a = static_cast<uint64_t>(options_.alphabet);
  const size_t m = static_cast<size_t>(num_records_);
  history_symbols_.clear();
  history_symbols_.reserve(m * static_cast<size_t>(options_.horizon));
  history_symbols_.resize(m * static_cast<size_t>(k), 0);
  int64_t next_record = 0;
  std::vector<uint8_t> digits(static_cast<size_t>(k));
  for (uint64_t s = 0; s < num_bins_; ++s) {
    uint64_t code = s;
    for (int j = k - 1; j >= 0; --j) {
      digits[static_cast<size_t>(j)] = static_cast<uint8_t>(code % a);
      code /= a;
    }
    uint64_t overlap = s % num_overlaps_;
    for (int64_t c = 0; c < noisy[s]; ++c) {
      const size_t rec = static_cast<size_t>(next_record++);
      groups_.Place(overlap, static_cast<int64_t>(rec));
      for (int j = 0; j < k; ++j) {
        history_symbols_[static_cast<size_t>(j) * m + rec] =
            digits[static_cast<size_t>(j)];
      }
    }
  }
  initialized_ = true;
  return Status::OK();
}

Status CategoricalWindowSynthesizer::SlideRelease() {
  LONGDP_RETURN_NOT_OK(accountant_.Charge(
      rho_per_step_, "categorical histogram t=" + std::to_string(t_)));
  std::vector<int64_t>& noisy = NoisyPaddedHistogram();
  ++stats_.releases;

  const int64_t a = options_.alphabet;
  std::vector<int64_t>& new_counts = counts_scratch_;
  new_counts.assign(num_bins_, 0);
  std::vector<int64_t>& targets = targets_;
  std::vector<size_t>& child_order = child_order_;
  // All stage-2 draws of round t (remainder children, promotion subsets)
  // come from the round's keyed selection substream, in overlap order.
  util::SubstreamRng selection =
      selection_root_.Derive(static_cast<uint64_t>(t_));
  util::BatchSampler sampler(&selection);

  // Pass 1 — targets: the per-child assignment counts for every overlap
  // depend only on the noisy census and the current group sizes, not on
  // which record goes where. Computing them all up front makes the next-
  // round histogram (and so every next-round overlap group size) known
  // before a single record moves, which is what lets the regroup below be
  // a counting sort. Remainder draws stay serial, in overlap order.
  for (uint64_t z = 0; z < num_overlaps_; ++z) {
    const int64_t group = groups_.size(z);
    // Children bins of overlap z: codes z*A + a'.
    int64_t noisy_sum = 0;
    for (int64_t c = 0; c < a; ++c) {
      noisy_sum += noisy[z * static_cast<uint64_t>(a) +
                         static_cast<uint64_t>(c)];
    }
    int64_t num = group - noisy_sum;  // A * Delta_z
    int64_t base = FloorDiv(num, a);
    int64_t rem = num - base * a;  // in [0, A)
    for (int64_t c = 0; c < a; ++c) {
      targets[static_cast<size_t>(c)] =
          noisy[z * static_cast<uint64_t>(a) + static_cast<uint64_t>(c)] +
          base;
    }
    if (rem != 0) {
      ++stats_.remainder_draws;
      // Give +1 to `rem` uniformly chosen distinct children.
      for (size_t c = 0; c < child_order.size(); ++c) child_order[c] = c;
      sampler.Shuffle(&child_order);
      for (int64_t r = 0; r < rem; ++r) {
        ++targets[child_order[static_cast<size_t>(r)]];
      }
    }
    // Water-fill any negatives back from the positive targets, preserving
    // the group sum (the categorical analogue of the pairwise clamp).
    // Afterwards the targets sum to the group size exactly: base/rem
    // construction makes the raw sum equal to `group`, and the fill moves
    // mass without creating or destroying it.
    for (size_t c = 0; c < targets.size(); ++c) {
      if (targets[c] < 0) {
        int64_t deficit = -targets[c];
        targets[c] = 0;
        ++stats_.negative_clamps;
        for (size_t d = 0; d < targets.size() && deficit > 0; ++d) {
          if (targets[d] > 0) {
            int64_t take = std::min(targets[d], deficit);
            targets[d] -= take;
            deficit -= take;
          }
        }
      }
    }
    for (int64_t c = 0; c < a; ++c) {
      new_counts[z * static_cast<uint64_t>(a) + static_cast<uint64_t>(c)] =
          targets[static_cast<size_t>(c)];
    }
  }

  // Pass 2 — counting-sort regroup plan: next-round overlap sizes are the
  // column sums of the target matrix (children with the same low k-1
  // digits share an overlap), prefix-summed into flat offsets.
  groups_next_.Reset(num_overlaps_);
  for (uint64_t child = 0; child < num_bins_; ++child) {
    groups_next_.AddCount(child % num_overlaps_, new_counts[child]);
  }
  groups_next_.BuildOffsets();

  // Pass 3 — assign and scatter. One zero-filled column append for round
  // t_; promoted symbols are written record-by-record. Instead of a full
  // shuffle per overlap group, each child takes a uniformly chosen subset
  // of the records still unassigned (a batched partial shuffle of the
  // remaining span); the final child absorbs the rest without a draw.
  const size_t m = static_cast<size_t>(num_records_);
  const size_t col_base = static_cast<size_t>(t_ - 1) * m;
  history_symbols_.resize(col_base + m, 0);
  uint8_t* col = history_symbols_.data() + col_base;

  for (uint64_t z = 0; z < num_overlaps_; ++z) {
    int64_t* members = groups_.group_data(z);
    const int64_t group = groups_.size(z);
    if (group == 0) continue;
    int64_t idx = 0;
    for (int64_t c = 0; c < a; ++c) {
      const uint64_t child =
          z * static_cast<uint64_t>(a) + static_cast<uint64_t>(c);
      const int64_t take = new_counts[child];
      const int64_t remaining = group - idx;
      if (take > remaining) {
        return Status::Internal(
            "categorical slide target overruns overlap group " +
            std::to_string(z));
      }
      if (take > 0 && take < remaining) {
        sampler.PartialShuffle(members + idx, remaining, take);
      }
      for (int64_t j = 0; j < take; ++j) {
        const int64_t rec = members[idx + j];
        col[rec] = static_cast<uint8_t>(c);
        groups_next_.Place(child % num_overlaps_, rec);
      }
      idx += take;
    }
    if (idx != group) {
      return Status::Internal(
          "categorical slide targets do not cover overlap group " +
          std::to_string(z) + ": assigned " + std::to_string(idx) + " of " +
          std::to_string(group));
    }
  }
  groups_.swap(groups_next_);
  counts_.swap(new_counts);
  return Status::OK();
}

Result<double> CategoricalWindowSynthesizer::DebiasedBinFraction(
    uint64_t s) const {
  if (!initialized_) {
    return Status::FailedPrecondition("no release yet");
  }
  if (s >= num_bins_) {
    return Status::OutOfRange("pattern code out of range");
  }
  return static_cast<double>(counts_[s] - npad_) / static_cast<double>(n_);
}

}  // namespace core
}  // namespace longdp
