#include "cluster/sim.h"

namespace nagano::cluster {

Status EventQueue::At(TimeNs t, std::function<void()> fn) {
  if (t < clock_->Now()) {
    return InvalidArgumentError("EventQueue::At: t=" + std::to_string(t) +
                                " is before now=" +
                                std::to_string(clock_->Now()));
  }
  events_.push(Event{t, next_seq_++, std::move(fn)});
  return Status::Ok();
}

void EventQueue::RunUntil(TimeNs deadline) {
  while (!events_.empty() && events_.top().at <= deadline) {
    // Copy out before pop: the handler may schedule new events.
    Event event = events_.top();
    events_.pop();
    clock_->AdvanceTo(event.at);
    event.fn();
  }
  if (clock_->Now() < deadline) clock_->AdvanceTo(deadline);
}

}  // namespace nagano::cluster
