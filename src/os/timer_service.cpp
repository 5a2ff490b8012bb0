#include "os/timer_service.hpp"

#include <algorithm>
#include <limits>

namespace bansim::os {

TimerService::TimerService(sim::Simulator& simulator, hw::Mcu& mcu,
                           hw::TimerUnit& unit, TaskScheduler& scheduler,
                           PowerManager& power)
    : simulator_{simulator}, mcu_{mcu}, unit_{unit}, scheduler_{scheduler},
      power_handle_{power.register_peripheral("timer_a", ClockConstraint::kNone)},
      power_{power} {}

std::int64_t TimerService::local_now_ns() const {
  // Piecewise-affine read: survives fault-injected skew steps without
  // rescaling deadlines that are already armed in absolute local time.
  return mcu_.local_clock(simulator_.now()).ticks();
}

TimerService::TimerId TimerService::insert(Entry entry) {
  // Reuse a dead slot so per-cycle one-shots don't grow the table without
  // bound; ids of stopped timers are therefore recycled.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].active) {
      entries_[i] = std::move(entry);
      return i;
    }
  }
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

TimerService::TimerId TimerService::start_periodic(std::string name,
                                                   sim::Duration period,
                                                   std::function<void()> handler) {
  Entry e;
  e.name = std::move(name);
  e.period_local_ns = period.ticks();
  e.deadline_local_ns = local_now_ns() + period.ticks();
  e.handler = std::move(handler);
  e.active = true;
  const TimerId id = insert(std::move(e));
  power_.update(power_handle_, ClockConstraint::kSmclk);
  arm();
  return id;
}

TimerService::TimerId TimerService::start_oneshot(std::string name,
                                                  sim::Duration delay,
                                                  std::function<void()> handler) {
  Entry e;
  e.name = std::move(name);
  e.period_local_ns = 0;
  e.deadline_local_ns = local_now_ns() + delay.ticks();
  e.handler = std::move(handler);
  e.active = true;
  const TimerId id = insert(std::move(e));
  power_.update(power_handle_, ClockConstraint::kSmclk);
  arm();
  return id;
}

void TimerService::stop(TimerId id) {
  if (id >= entries_.size()) return;
  entries_[id].active = false;
  if (active_count() == 0) {
    power_.update(power_handle_, ClockConstraint::kNone);
    unit_.cancel();
  } else {
    arm();
  }
}

bool TimerService::active(TimerId id) const {
  return id < entries_.size() && entries_[id].active;
}

std::size_t TimerService::active_count() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const Entry& e) { return e.active; }));
}

void TimerService::arm() {
  std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
  for (const Entry& e : entries_) {
    if (e.active) earliest = std::min(earliest, e.deadline_local_ns);
  }
  if (earliest == std::numeric_limits<std::int64_t>::max()) return;
  const std::int64_t delay = std::max<std::int64_t>(0, earliest - local_now_ns());
  unit_.set_alarm(sim::Duration::nanoseconds(delay), [this] { on_compare(); });
}

void TimerService::on_compare() {
  const std::int64_t now_local = local_now_ns();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (!e.active || e.deadline_local_ns > now_local) continue;
    if (e.period_local_ns > 0) {
      e.deadline_local_ns += e.period_local_ns;
    } else {
      e.active = false;
    }
    // Deliver the expiry as an interrupt: wake-up + ISR overhead + the
    // virtualization bookkeeping, then the handler body.
    scheduler_.raise_interrupt(e.name, kServiceCycles, e.handler);
  }
  if (active_count() == 0) {
    power_.update(power_handle_, ClockConstraint::kNone);
  } else {
    arm();
  }
}

}  // namespace bansim::os
