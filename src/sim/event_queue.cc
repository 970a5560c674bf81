#include "event_queue.hh"

#include "log.hh"

namespace cxlfork::sim {

void
eventInThePast(SimTime t, SimTime now)
{
    panic("EventQueue: event in the past (%f < %f ns)", t.toNs(),
          now.toNs());
}

} // namespace cxlfork::sim
