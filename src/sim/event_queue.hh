/**
 * @file
 * A discrete event queue for the cluster-level (CXLporter) simulation.
 *
 * Events are small typed records in a flat binary heap, ordered by
 * (time, sequence); ties break by insertion order so runs are
 * deterministic. The queue does not call back into its owner: the
 * owner pops the earliest record and switches on its kind, so an event
 * costs one heap push and one pop, with no allocation and no indirect
 * call.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "time.hh"

namespace cxlfork::sim {

/** Panics that t lies before now; the queue's one correctness check. */
[[noreturn]] void eventInThePast(SimTime t, SimTime now);

/**
 * Deterministic discrete event scheduler over owner-defined record
 * kinds (usually an enum). A record carries two payload words whose
 * meaning the kind defines, e.g. an instance id and a request index.
 */
template <typename Kind>
class EventQueue
{
  public:
    struct Event
    {
        SimTime when;
        uint64_t seq = 0;
        uint64_t id = 0;  ///< Payload word (an instance id, say).
        uint32_t arg = 0; ///< Payload word (a node or request index).
        Kind kind{};
    };

    /** Schedule a record at absolute simulated time t (>= now). */
    void
    schedule(SimTime t, Kind kind, uint64_t id = 0, uint32_t arg = 0)
    {
        if (t < now_)
            eventInThePast(t, now_);
        heap_.push_back(Event{t, nextSeq_++, id, arg, kind});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    /** Schedule a record after a delay relative to now. */
    void
    scheduleAfter(SimTime delay, Kind kind, uint64_t id = 0,
                  uint32_t arg = 0)
    {
        schedule(now_ + delay, kind, id, arg);
    }

    /**
     * Current simulated time: that of the last popped record, or of the
     * last advanceTo(), whichever came later.
     */
    SimTime now() const { return now_; }

    bool empty() const { return heap_.empty(); }
    size_t pending() const { return heap_.size(); }

    /** The earliest record; the queue must not be empty. */
    const Event &top() const { return heap_.front(); }

    /** Remove the earliest record and advance now() to its time. */
    Event
    pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        const Event ev = heap_.back();
        heap_.pop_back();
        now_ = ev.when;
        return ev;
    }

    /**
     * Advance now() to t (>= now) for work the owner feeds from outside
     * the heap, such as a cursor over pre-sorted arrivals.
     */
    void
    advanceTo(SimTime t)
    {
        if (t < now_)
            eventInThePast(t, now_);
        now_ = t;
    }

    /** Pop the earliest record into handle(event). False if none. */
    template <typename Handler>
    bool
    step(Handler &&handle)
    {
        if (heap_.empty())
            return false;
        handle(pop());
        return true;
    }

    /** Dispatch records until the queue drains or passes the horizon. */
    template <typename Handler>
    void
    run(Handler &&handle, SimTime horizon = SimTime::sec(1e18))
    {
        while (!heap_.empty() && top().when <= horizon)
            handle(pop());
    }

  private:
    /** Heap order: the root is the earliest (time, seq). */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return b.when < a.when;
            return b.seq < a.seq;
        }
    };

    std::vector<Event> heap_;
    SimTime now_;
    uint64_t nextSeq_ = 0;
};

} // namespace cxlfork::sim
