#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

namespace cxlfork::sim {
namespace {

using namespace time_literals;

enum class Kind : uint8_t { Record, Spawn };
using Queue = EventQueue<Kind>;

TEST(EventQueue, DispatchesInTimeOrder)
{
    Queue q;
    std::vector<uint32_t> order;
    q.schedule(3_ms, Kind::Record, 0, 3);
    q.schedule(1_ms, Kind::Record, 0, 1);
    q.schedule(2_ms, Kind::Record, 0, 2);
    q.run([&](const Queue::Event &ev) { order.push_back(ev.arg); });
    EXPECT_EQ(order, (std::vector<uint32_t>{1, 2, 3}));
    EXPECT_EQ(q.now(), 3_ms);
}

TEST(EventQueue, TieBreaksByInsertionOrder)
{
    Queue q;
    std::vector<uint32_t> order;
    for (uint32_t i = 0; i < 5; ++i)
        q.schedule(1_ms, Kind::Record, 0, i);
    q.run([&](const Queue::Event &ev) { order.push_back(ev.arg); });
    EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    Queue q;
    int fired = 0;
    q.schedule(1_ms, Kind::Spawn);
    q.run([&](const Queue::Event &ev) {
        ++fired;
        if (ev.kind == Kind::Spawn)
            q.scheduleAfter(1_ms, Kind::Record);
    });
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 2_ms);
}

TEST(EventQueue, HorizonStopsDispatch)
{
    Queue q;
    int fired = 0;
    q.schedule(1_ms, Kind::Record);
    q.schedule(10_ms, Kind::Record);
    q.run([&](const Queue::Event &) { ++fired; }, 5_ms);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    Queue q;
    EXPECT_FALSE(q.step([](const Queue::Event &) {}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RecordsCarryTheirPayload)
{
    Queue q;
    q.schedule(2_ms, Kind::Spawn, uint64_t(1) << 40, 7);
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.top().when, 2_ms);
    const Queue::Event ev = q.pop();
    EXPECT_EQ(ev.kind, Kind::Spawn);
    EXPECT_EQ(ev.id, uint64_t(1) << 40);
    EXPECT_EQ(ev.arg, 7u);
    EXPECT_EQ(q.now(), 2_ms);
}

TEST(EventQueue, ManyRecordsPopInTimeThenInsertionOrder)
{
    // Enough records to exercise every level of the heap, with ties.
    Queue q;
    for (uint32_t i = 0; i < 1000; ++i)
        q.schedule(SimTime::us(double((i * 7919) % 97)), Kind::Record, 0,
                   i);
    SimTime last;
    uint32_t lastArg = 0;
    bool first = true;
    while (!q.empty()) {
        const Queue::Event ev = q.pop();
        if (!first) {
            ASSERT_LE(last, ev.when);
            if (last == ev.when) {
                ASSERT_LT(lastArg, ev.arg);
            }
        }
        first = false;
        last = ev.when;
        lastArg = ev.arg;
    }
}

TEST(EventQueue, AdvanceToMovesNow)
{
    Queue q;
    q.advanceTo(4_ms);
    EXPECT_EQ(q.now(), 4_ms);
    q.scheduleAfter(1_ms, Kind::Record);
    EXPECT_EQ(q.top().when, 5_ms);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    Queue q;
    q.schedule(5_ms, Kind::Record);
    q.run([](const Queue::Event &) {});
    EXPECT_DEATH(q.schedule(1_ms, Kind::Record), "past");
    EXPECT_DEATH(q.advanceTo(1_ms), "past");
}

} // namespace
} // namespace cxlfork::sim
