// Discrete-event simulation core: a time-ordered event queue driving a
// SimClock. Deterministic — ties break by insertion order.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/clock.h"
#include "common/result.h"

namespace nagano::cluster {

class EventQueue {
 public:
  explicit EventQueue(SimClock* clock) : clock_(clock) {}

  // Schedules fn at absolute simulated time t. Scheduling in the past is a
  // caller bug and returns kInvalidArgument (the event is dropped); it used
  // to assert, which hid the error in release builds.
  Status At(TimeNs t, std::function<void()> fn);

  // Runs events with time <= deadline, advancing the clock to each event's
  // time; finally advances the clock to the deadline.
  void RunUntil(TimeNs deadline);

  size_t pending() const { return events_.size(); }
  TimeNs now() const { return clock_->Now(); }
  SimClock* clock() { return clock_; }

 private:
  struct Event {
    TimeNs at;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimClock* clock_;
  std::priority_queue<Event, std::vector<Event>, Later> events_;
  uint64_t next_seq_ = 0;
};

}  // namespace nagano::cluster
