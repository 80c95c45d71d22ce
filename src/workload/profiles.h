// Traffic-shape models calibrated to the paper's evaluation section.
//
// The paper reports aggregates — 634.7M requests over 16 days, a 56.8M-hit
// peak day (Day 7), a 110,414-hit peak minute (Day 14), ~10 KB mean
// transfer, a five-to-one peak-to-average provisioning ratio, and the
// hourly/geographic bar charts of Figs. 18 and 23. These profiles encode
// those aggregates as sampling distributions; the figure benches then
// re-derive the paper's series by actually sampling requests through them.
// Where the paper prints a chart without numbers (Figs. 18, 23) the shape
// parameters here are calibrated estimates — flagged as such in
// EXPERIMENTS.md.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"

namespace nagano::workload {

constexpr int kGamesDays = 16;

// --- Fig. 20 calibration: hits per day, millions ---
// Constraints from §5: total 634.7M; Day 7 peak 56.8M; every day above the
// 1996 peak of 17M; secondary peaks around Day 10 (Men's Ski Jumping) and
// Day 14 (Women's Figure Skating Free Skating, the record minute).
const std::array<double, kGamesDays>& HitsByDayMillions();
double TotalHitsMillions();  // == 634.7

// --- Fig. 18 calibration: relative request rate by hour of day (local) ---
// Overnight trough, morning ramp, midday plateau, evening peak.
const std::array<double, 24>& HourlyWeights();  // sums to 1

// Samples an hour-of-day from the diurnal profile.
int SampleHour(Rng& rng);

// --- Fig. 23 calibration: request share by geography ---
struct Region {
  std::string name;
  double share;              // of global requests
  int utc_offset_hours;      // drives per-site local diurnal phase
  std::string home_complex;  // geographically closest serving complex
};
const std::vector<Region>& Regions();
// Samples a region index per the share distribution.
size_t SampleRegion(Rng& rng);

// --- §4 transfer-size model ---
// "each hit would request an average of 10 Kbytes"; home pages with images
// were larger (Tables 1-2 imply ~50 KB for a full home-page fetch over a
// 28.8 Kbps modem).
struct TransferModel {
  double mean_bytes = 10 * 1024;
  double home_page_bytes = 50 * 1024;
};

// Bytes for one hit: page-dependent lognormal-ish spread around the mean.
size_t SampleTransferBytes(Rng& rng, bool is_home_page);

// The four serving complexes (paper §3).
const std::vector<std::string>& Complexes();

}  // namespace nagano::workload
