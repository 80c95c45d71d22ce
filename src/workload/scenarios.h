// Adversarial traffic scenarios — the spikes that actually threatened the
// 1998 site, as opposed to the calibrated diurnal/Zipf averages in
// profiles.h.
//
// A medal decision drove 10-100x traffic onto one page within seconds
// (§5's record minute was exactly such an event); an invalidation storm
// turns every one of those requests into a potential redundant re-render.
// Each generator here produces a deterministic, time-sorted request stream
// with a known closed-form rate shape, so the stampede/chaos suites can
// replay the exact same crowd every run and the property tests can check
// the shape against RateAt().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/options.h"
#include "common/result.h"
#include "common/rng.h"
#include "workload/sampler.h"

namespace nagano::workload {

enum class ScenarioKind : uint8_t {
  // Breaking news: near-instant ramp onto one page (a medal decided), then
  // exponential decay as the crowd disperses.
  kBreakingNews,
  // Auction close: interest builds polynomially toward a known closing
  // time, peaks there, and vanishes the moment it passes.
  kAuctionClose,
  // Leaderboard tick: a sustained plateau of hot-page traffic while the
  // scoreboard invalidates the page on a fixed cadence — every tick turns
  // the whole plateau into a same-key miss herd.
  kLeaderboardTick,
  // Slow-client flood: a population of clients that request the hot page
  // but never drain their sockets, riding on normal background traffic.
  kSlowClientFlood,
};


struct ScenarioRequest {
  TimeNs at = 0;             // offset from scenario start
  std::string page;
  bool slow_client = false;  // from the non-draining flood population
};

struct ScenarioOptions : OptionsBase {
  TimeNs duration = 2 * kMinute;
  // Steady background request rate (requests/s), sampled through the
  // site's normal Zipf popularity model.
  double baseline_rps = 200.0;
  // Peak hot-page rate as a multiple of the baseline — the paper-era flash
  // crowds were 10-100x; the bench drills 50x.
  double spike_multiplier = 50.0;
  TimeNs spike_start = 30 * kSecond;
  // kBreakingNews: 0-to-peak ramp time.
  TimeNs spike_ramp = 5 * kSecond;
  // How long the disturbance lasts (decay constant for breaking news, time
  // to close for the auction, plateau/storm length otherwise).
  TimeNs spike_duration = 30 * kSecond;
  std::string hot_page = "/medals";
  // kSlowClientFlood: flood intensity as a share of the spike rate.
  double slow_client_share = 0.3;

  Status Validate() const;
};

class ScenarioGenerator {
 public:
  // `sampler` draws the background traffic's pages; not owned, may be null
  // when baseline_rps == 0 (pure-spike streams for the bench).
  ScenarioGenerator(const PageSampler* sampler, ScenarioOptions options,
                    uint64_t seed);

  // Builds the scenario's request stream: background Poisson traffic at
  // baseline_rps plus the shape's hot-page process, merged and
  // time-sorted. Deterministic — the same seed yields a byte-identical
  // stream.
  std::vector<ScenarioRequest> Build(ScenarioKind kind) const;

  // The closed-form hot-page rate (requests/s) at offset `t` — what the
  // spike adds on top of the background. Property tests assert Build()'s
  // empirical density against this.
  double RateAt(ScenarioKind kind, TimeNs t) const;

  // Peak of RateAt over the scenario (the thinning bound).
  double PeakRate(ScenarioKind kind) const;

  const ScenarioOptions& options() const { return options_; }

 private:
  const PageSampler* sampler_;
  ScenarioOptions options_;
  uint64_t seed_;
};

}  // namespace nagano::workload
