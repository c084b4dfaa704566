/**
 * @file
 * Scheduling tests for the daemon's tenant-fair priority job queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "service/job_queue.hh"

using namespace gllc;

namespace
{

QueuedJob
job(std::uint64_t id, const std::string &tenant, int priority = 0)
{
    QueuedJob j;
    j.id = id;
    j.tenant = tenant;
    j.priority = priority;
    return j;
}

/** Drain the queue non-blocking, returning the pop order by id. */
std::vector<std::uint64_t>
drain(JobQueue &queue)
{
    std::vector<std::uint64_t> order;
    QueuedJob got;
    while (queue.pop(got))
        order.push_back(got.id);
    return order;
}

} // namespace

TEST(JobQueue, FifoWithinOneTenant)
{
    JobQueue queue;
    ASSERT_EQ(queue.push(job(1, "a")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(2, "a")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(3, "a")), JobQueue::PushOutcome::Ok);
    EXPECT_EQ(queue.depth(), 3u);
    EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(queue.depth(), 0u);
}

TEST(JobQueue, TenantsTakeTurnsWithinAClass)
{
    JobQueue queue;
    // Tenant a floods the queue before b and c submit one job each:
    // the rotation must alternate instead of serving a back-to-back.
    ASSERT_EQ(queue.push(job(1, "a")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(2, "a")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(3, "a")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(4, "b")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(5, "c")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(6, "c")), JobQueue::PushOutcome::Ok);
    EXPECT_EQ(drain(queue),
              (std::vector<std::uint64_t>{1, 4, 5, 2, 6, 3}));
}

TEST(JobQueue, HigherPriorityClassRunsFirst)
{
    JobQueue queue;
    ASSERT_EQ(queue.push(job(1, "a", 0)), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(2, "b", 10)), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(3, "a", -5)), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(4, "c", 10)), JobQueue::PushOutcome::Ok);
    EXPECT_EQ(drain(queue),
              (std::vector<std::uint64_t>{2, 4, 1, 3}));
}

TEST(JobQueue, RotationIsDeterministicInArrivalOrder)
{
    // Same jobs pushed in the same order pop in the same order.
    for (int round = 0; round < 3; ++round) {
        JobQueue queue;
        ASSERT_EQ(queue.push(job(1, "x")), JobQueue::PushOutcome::Ok);
        ASSERT_EQ(queue.push(job(2, "y")), JobQueue::PushOutcome::Ok);
        ASSERT_EQ(queue.push(job(3, "x")), JobQueue::PushOutcome::Ok);
        ASSERT_EQ(queue.push(job(4, "y")), JobQueue::PushOutcome::Ok);
        EXPECT_EQ(drain(queue),
                  (std::vector<std::uint64_t>{1, 2, 3, 4}));
    }
}

TEST(JobQueue, PopOnEmptyIsFalse)
{
    JobQueue queue;
    QueuedJob got;
    EXPECT_FALSE(queue.pop(got));
}

TEST(JobQueue, WaitPopDeliversAcrossThreads)
{
    JobQueue queue;
    std::uint64_t got_id = 0;
    std::thread consumer([&] {
        QueuedJob got;
        if (queue.waitPop(got))
            got_id = got.id;
    });
    ASSERT_EQ(queue.push(job(7, "a")), JobQueue::PushOutcome::Ok);
    consumer.join();
    EXPECT_EQ(got_id, 7u);
}

TEST(JobQueue, CloseReleasesBlockedWaiters)
{
    JobQueue queue;
    bool delivered = true;
    std::thread consumer([&] {
        QueuedJob got;
        delivered = queue.waitPop(got);
    });
    queue.close();
    consumer.join();
    EXPECT_FALSE(delivered);

    // And waitPop after close fails fast.
    QueuedJob got;
    EXPECT_FALSE(queue.waitPop(got));
}

TEST(JobQueue, PushAfterCloseIsRefused)
{
    JobQueue queue;
    EXPECT_EQ(queue.push(job(1, "a")), JobQueue::PushOutcome::Ok);
    queue.close();
    // A push that lost the race with close() must be refused —
    // nothing will ever pop it, so accepting it would strand a
    // client waiting on the job forever.
    EXPECT_EQ(queue.push(job(2, "a")), JobQueue::PushOutcome::Closed);
    EXPECT_EQ(queue.depth(), 1u);
}

TEST(JobQueue, DepthCapShedsWithTypedReason)
{
    JobQueue queue;
    queue.configureLimits({2, 0});
    EXPECT_EQ(queue.push(job(1, "a")), JobQueue::PushOutcome::Ok);
    EXPECT_EQ(queue.push(job(2, "b")), JobQueue::PushOutcome::Ok);
    EXPECT_EQ(queue.push(job(3, "c")),
              JobQueue::PushOutcome::QueueFull);
    EXPECT_EQ(queue.depth(), 2u);

    // Popping frees capacity again: the cap bounds depth, it is not
    // a one-way valve.
    QueuedJob got;
    ASSERT_TRUE(queue.pop(got));
    EXPECT_EQ(queue.push(job(4, "c")), JobQueue::PushOutcome::Ok);
}

TEST(JobQueue, TenantQuotaShedsOnlyTheGreedyTenant)
{
    JobQueue queue;
    queue.configureLimits({0, 2});
    EXPECT_EQ(queue.push(job(1, "greedy")),
              JobQueue::PushOutcome::Ok);
    // The quota counts across priority classes, so spreading the
    // flood over priorities must not evade it.
    EXPECT_EQ(queue.push(job(2, "greedy", 5)),
              JobQueue::PushOutcome::Ok);
    EXPECT_EQ(queue.push(job(3, "greedy")),
              JobQueue::PushOutcome::TenantQuotaExceeded);
    EXPECT_EQ(queue.push(job(4, "polite")),
              JobQueue::PushOutcome::Ok);

    // Draining the tenant's jobs restores its quota.
    QueuedJob got;
    ASSERT_TRUE(queue.pop(got));
    EXPECT_EQ(got.id, 2u);  // higher priority class first
    EXPECT_EQ(queue.push(job(5, "greedy")),
              JobQueue::PushOutcome::Ok);
}

TEST(JobQueue, QueueFullWinsOverTenantQuota)
{
    JobQueue queue;
    queue.configureLimits({1, 1});
    EXPECT_EQ(queue.push(job(1, "a")), JobQueue::PushOutcome::Ok);
    // Both limits are violated; the global one is reported (it is
    // the one a retrying client can do nothing about).
    EXPECT_EQ(queue.push(job(2, "a")),
              JobQueue::PushOutcome::QueueFull);
}

TEST(JobQueue, CancelRemovesQueuedJob)
{
    JobQueue queue;
    ASSERT_EQ(queue.push(job(1, "a")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(2, "b")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(3, "a")), JobQueue::PushOutcome::Ok);

    EXPECT_TRUE(queue.cancel(2));
    EXPECT_FALSE(queue.cancel(2));  // already gone
    EXPECT_FALSE(queue.cancel(99));
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{1, 3}));
}

TEST(JobQueue, CancelLastJobOfTenantKeepsRotationSound)
{
    JobQueue queue;
    // b's only job is cancelled; the rotation must forget b or a
    // later pop would assert on an empty lane.
    ASSERT_EQ(queue.push(job(1, "a")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(2, "b")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(3, "a")), JobQueue::PushOutcome::Ok);
    EXPECT_TRUE(queue.cancel(2));
    EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{1, 3}));

    // Cancelling the sole job of the sole tenant empties the queue.
    ASSERT_EQ(queue.push(job(4, "c", 7)),
              JobQueue::PushOutcome::Ok);
    EXPECT_TRUE(queue.cancel(4));
    EXPECT_EQ(queue.depth(), 0u);
    QueuedJob got;
    EXPECT_FALSE(queue.pop(got));
}

TEST(JobQueue, CancelReleasesTenantQuota)
{
    JobQueue queue;
    queue.configureLimits({0, 1});
    ASSERT_EQ(queue.push(job(1, "a")), JobQueue::PushOutcome::Ok);
    ASSERT_EQ(queue.push(job(2, "a")),
              JobQueue::PushOutcome::TenantQuotaExceeded);
    EXPECT_TRUE(queue.cancel(1));
    EXPECT_EQ(queue.push(job(3, "a")), JobQueue::PushOutcome::Ok);
}

TEST(JobQueue, ConcurrentPushersAndPopperLoseNothing)
{
    // Hammer the queue the way the daemon does: many connection
    // threads pushing while the single dispatcher pops, close() at
    // the end.  Every accepted job must pop exactly once (the TSan
    // CI job additionally holds the locking honest here).
    constexpr unsigned kPushers = 8;
    constexpr std::uint64_t kJobsPerPusher = 200;
    JobQueue queue;

    std::vector<std::uint64_t> popped;
    std::thread dispatcher([&] {
        QueuedJob got;
        while (queue.waitPop(got))
            popped.push_back(got.id);
        // close() fails waitPop fast even with jobs still queued,
        // so drain the remainder non-blocking.
        while (queue.pop(got))
            popped.push_back(got.id);
    });

    std::atomic<std::uint64_t> accepted{0};
    std::vector<std::thread> pushers;
    pushers.reserve(kPushers);
    for (unsigned t = 0; t < kPushers; ++t) {
        pushers.emplace_back([&, t] {
            std::string tenant(1, 't');
            tenant += std::to_string(t % 3);
            for (std::uint64_t i = 0; i < kJobsPerPusher; ++i) {
                const std::uint64_t id =
                    t * kJobsPerPusher + i + 1;
                if (queue.push(job(id, tenant,
                                   static_cast<int>(i % 2)))
                    == JobQueue::PushOutcome::Ok)
                    ++accepted;
            }
        });
    }
    for (std::thread &t : pushers)
        t.join();
    queue.close();
    dispatcher.join();

    // close() raced no pusher here, so nothing may be refused.
    EXPECT_EQ(accepted.load(), kPushers * kJobsPerPusher);
    ASSERT_EQ(popped.size(), kPushers * kJobsPerPusher);
    std::sort(popped.begin(), popped.end());
    EXPECT_EQ(std::adjacent_find(popped.begin(), popped.end()),
              popped.end());
    EXPECT_EQ(popped.front(), 1u);
    EXPECT_EQ(popped.back(), kPushers * kJobsPerPusher);
    EXPECT_EQ(queue.depth(), 0u);
}
