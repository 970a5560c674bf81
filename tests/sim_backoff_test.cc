/**
 * @file
 * The generic retry/timeout/backoff policy (sim/backoff.hh) and its use
 * by Machine::cxlTransaction: deterministic schedules under a fixed
 * seed, budget exhaustion surfacing the operation's own typed error,
 * and the zero-rate/zero-jitter path charging and drawing nothing.
 */

#include <gtest/gtest.h>

#include "mem/machine.hh"
#include "sim/backoff.hh"
#include "sim/clock.hh"
#include "sim/error.hh"
#include "sim/fault_injector.hh"
#include "test_util.hh"

namespace cxlfork {
namespace {

using sim::BackoffPolicy;
using sim::BackoffSchedule;
using sim::SimTime;

// --- The pure schedule.

TEST(BackoffSchedule, UnjitteredExponentialCurve)
{
    BackoffPolicy p;
    p.maxRetries = 4;
    p.base = SimTime::us(10);
    p.multiplier = 2.0;
    BackoffSchedule s(p);
    EXPECT_EQ(s.next(), SimTime::us(10));
    EXPECT_EQ(s.next(), SimTime::us(20));
    EXPECT_EQ(s.next(), SimTime::us(40));
    EXPECT_EQ(s.next(), SimTime::us(80));
    EXPECT_EQ(s.next(), std::nullopt); // retries exhausted
    EXPECT_FALSE(s.budgetExhausted());
    EXPECT_EQ(s.retries(), 4u);
    EXPECT_EQ(s.spent(), SimTime::us(150));
}

TEST(BackoffSchedule, JitterIsDeterministicUnderFixedSeed)
{
    BackoffPolicy p;
    p.maxRetries = 8;
    p.jitter = 0.5;
    sim::Rng a(1234), b(1234), c(5678);
    BackoffSchedule sa(p), sb(p), sc(p);
    bool sawDifferentSeedDiffer = false;
    for (int i = 0; i < 8; ++i) {
        const auto da = sa.next(&a);
        const auto db = sb.next(&b);
        const auto dc = sc.next(&c);
        ASSERT_TRUE(da && db && dc);
        EXPECT_EQ(*da, *db) << "same seed, same schedule";
        sawDifferentSeedDiffer |= *da != *dc;
        // Jitter only stretches: delay in [curve, curve * (1+jitter)].
        BackoffSchedule plain(p);
        for (int j = 0; j < i; ++j)
            plain.next();
        const SimTime curve = *plain.next();
        EXPECT_GE(*da, curve);
        EXPECT_LE(da->toNs(), curve.toNs() * (1.0 + p.jitter));
    }
    EXPECT_TRUE(sawDifferentSeedDiffer);
}

TEST(BackoffSchedule, ZeroJitterDrawsNothing)
{
    BackoffPolicy p;
    p.maxRetries = 4;
    sim::Rng used(42), fresh(42);
    BackoffSchedule s(p);
    while (s.next(&used))
        ;
    // Zero jitter: the stream handed in was never drawn from.
    EXPECT_EQ(used.raw(), fresh.raw());
}

TEST(BackoffSchedule, BudgetCutsRetriesShort)
{
    BackoffPolicy p;
    p.maxRetries = 100;
    p.base = SimTime::us(10);
    p.multiplier = 2.0;
    p.budget = SimTime::us(65); // 10 + 20 fit; +40 would be 70 > 65
    BackoffSchedule s(p);
    EXPECT_TRUE(s.next());
    EXPECT_TRUE(s.next());
    EXPECT_EQ(s.next(), std::nullopt);
    EXPECT_TRUE(s.budgetExhausted());
    EXPECT_EQ(s.retries(), 2u);
    EXPECT_EQ(s.spent(), SimTime::us(30));
}

// --- cxlTransaction under the policy.

/** Transient rate 1.0: every attempt fails, so every txn escalates. */
sim::FaultConfig
alwaysFailing()
{
    sim::FaultConfig cfg;
    cfg.seed = 99;
    cfg.cxlTransientRate = 1.0;
    return cfg;
}

TEST(CxlTransactionBackoff, BudgetExhaustionRaisesOriginalTypedError)
{
    test::World w(test::smallConfig());
    sim::FaultConfig cfg = alwaysFailing();
    cfg.retry.maxRetries = 100;
    cfg.retry.base = SimTime::us(10);
    cfg.retry.budget = SimTime::us(65);
    w.machine->setFaultConfig(cfg);
    sim::SimClock clock;
    try {
        w.machine->cxlTransaction(clock, "test-op");
        FAIL() << "expected TransientFaultError";
    } catch (const sim::TransientFaultError &e) {
        // The schedule never invents an error class: the op's own
        // typed error escalates, annotated with the budget.
        EXPECT_EQ(e.errClass(), sim::ErrClass::TransientCxl);
        EXPECT_NE(std::string(e.what()).find("op budget"),
                  std::string::npos);
    }
    // Only the granted retries were charged: 10 + 20 us.
    EXPECT_EQ(clock.now(), SimTime::us(30));
    EXPECT_EQ(w.machine->faults().stats().transientsEscalated, 1u);
}

TEST(CxlTransactionBackoff, RetryExhaustionKeepsLegacyMessage)
{
    test::World w(test::smallConfig());
    sim::FaultConfig cfg = alwaysFailing();
    cfg.retry.maxRetries = 3;
    w.machine->setFaultConfig(cfg);
    sim::SimClock clock;
    try {
        w.machine->cxlTransaction(clock, "test-op");
        FAIL() << "expected TransientFaultError";
    } catch (const sim::TransientFaultError &e) {
        EXPECT_NE(std::string(e.what()).find("failed 4 times (budget 3)"),
                  std::string::npos);
    }
    // The un-jittered exponential curve: 10 + 20 + 40 us.
    EXPECT_EQ(clock.now(), SimTime::us(70));
}

TEST(CxlTransactionBackoff, JitteredScheduleReplaysUnderFixedSeed)
{
    auto escalationTime = [](uint64_t seed) {
        test::World w(test::smallConfig());
        sim::FaultConfig cfg = alwaysFailing();
        cfg.seed = seed;
        cfg.retry.maxRetries = 6;
        cfg.retry.jitter = 0.5;
        w.machine->setFaultConfig(cfg);
        sim::SimClock clock;
        EXPECT_THROW(w.machine->cxlTransaction(clock, "test-op"),
                     sim::TransientFaultError);
        return clock.now();
    };
    const SimTime a = escalationTime(7);
    EXPECT_EQ(a, escalationTime(7)) << "fixed seed must replay";
    EXPECT_NE(a, escalationTime(8)) << "jitter must depend on the seed";
    // Jitter stretches the curve, never shrinks it: 10+...+320 us.
    EXPECT_GT(a, SimTime::us(630));
}

TEST(CxlTransactionBackoff, InjectionOffChargesNothingAndDrawsNothing)
{
    test::World w(test::smallConfig());
    ASSERT_FALSE(w.machine->faults().armed());
    sim::SimClock clock;
    for (int i = 0; i < 100; ++i)
        w.machine->cxlTransaction(clock, "test-op");
    EXPECT_TRUE(clock.now().isZero());
    EXPECT_EQ(w.machine->faults().stats().transientsInjected, 0u);
    // The jitter stream was never touched: it still replays from the
    // seed exactly like a freshly built injector's.
    sim::Rng fresh(w.machine->faults().config().seed ^
                   0x6261'636b'6f66'6673ULL);
    EXPECT_EQ(w.machine->faults().backoffRng().raw(), fresh.raw());
}

TEST(CxlTransactionBackoff, RecoverableRunRetriesThenSucceeds)
{
    test::World w(test::smallConfig());
    sim::FaultConfig cfg;
    cfg.seed = 4242;
    cfg.cxlTransientRate = 0.4;
    cfg.retry.maxRetries = 8;
    w.machine->setFaultConfig(cfg);
    sim::SimClock clock;
    for (int i = 0; i < 300; ++i)
        w.machine->cxlTransaction(clock, "test-op");
    const sim::FaultStats &st = w.machine->faults().stats();
    EXPECT_GT(st.transientsInjected, 0u);
    EXPECT_EQ(st.transientsEscalated, 0u) << "p^9 is out of reach";
    EXPECT_EQ(st.transientsRetried, st.transientsInjected);
    EXPECT_FALSE(clock.now().isZero());
}

} // namespace
} // namespace cxlfork
