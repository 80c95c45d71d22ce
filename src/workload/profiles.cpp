#include "workload/profiles.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace nagano::workload {

const std::array<double, kGamesDays>& HitsByDayMillions() {
  // Calibrated to §5: sums to 634.7, peaks at Day 7 (56.8), stays above the
  // 17M 1996 peak on every day, with secondary peaks on Days 10 and 14.
  static const std::array<double, kGamesDays> kDays = {
      22.0, 28.0, 33.0, 38.0, 44.0, 50.0, 56.8, 52.0,
      48.0, 50.0, 42.0, 40.0, 38.0, 46.0, 28.0, 18.9,
  };
  return kDays;
}

double TotalHitsMillions() {
  const auto& d = HitsByDayMillions();
  return std::accumulate(d.begin(), d.end(), 0.0);
}

const std::array<double, 24>& HourlyWeights() {
  static const std::array<double, 24> kWeights = [] {
    // Fig. 18 shape: overnight trough, steep morning ramp, midday plateau,
    // evening peak around 20:00-21:00 local.
    std::array<double, 24> w = {
        1.6, 1.2, 1.0, 0.9, 1.0, 1.4, 2.2, 3.5, 5.2, 6.4, 7.0, 7.2,
        7.4, 7.0, 6.6, 6.2, 5.8, 5.6, 5.8, 6.4, 6.8, 5.6, 4.0, 2.6,
    };
    const double total = std::accumulate(w.begin(), w.end(), 0.0);
    for (double& x : w) x /= total;
    return w;
  }();
  return kWeights;
}

int SampleHour(Rng& rng) {
  const auto& w = HourlyWeights();
  double u = rng.NextDouble();
  for (int h = 0; h < 24; ++h) {
    u -= w[h];
    if (u <= 0.0) return h;
  }
  return 23;
}

const std::vector<Region>& Regions() {
  // Fig. 23 calibration. The paper prints a pie chart without numbers; the
  // shares below reflect its visual proportions (North America dominant,
  // Japan second — Tokyo alone absorbed 72k of a 98k rpm peak during
  // Japan's daytime) and are flagged as estimates in EXPERIMENTS.md.
  static const std::vector<Region> kRegions = {
      {"United States", 0.42, -6, "Schaumburg"},
      {"Japan", 0.28, +9, "Tokyo"},
      {"Europe", 0.17, +1, "Bethesda"},
      {"Asia-Pacific", 0.08, +10, "Tokyo"},
      {"Other Americas", 0.05, -5, "Columbus"},
  };
  return kRegions;
}

size_t SampleRegion(Rng& rng) {
  const auto& regions = Regions();
  double u = rng.NextDouble();
  for (size_t i = 0; i < regions.size(); ++i) {
    u -= regions[i].share;
    if (u <= 0.0) return i;
  }
  return regions.size() - 1;
}

size_t SampleTransferBytes(Rng& rng, bool is_home_page) {
  const TransferModel model;
  const double mean = is_home_page ? model.home_page_bytes : model.mean_bytes;
  // Lognormal with sigma 0.5 around the mean: right-skewed like real
  // transfer-size distributions, never negative.
  const double sigma = 0.5;
  const double mu = std::log(mean) - sigma * sigma / 2.0;
  const double sample = std::exp(rng.NextGaussian(mu, sigma));
  return static_cast<size_t>(std::max(256.0, sample));
}

const std::vector<std::string>& Complexes() {
  static const std::vector<std::string> kComplexes = {
      "Schaumburg", "Columbus", "Bethesda", "Tokyo"};
  return kComplexes;
}

}  // namespace nagano::workload
