// Unit tests for the process supervisor (common/supervisor): the restart
// budget's backoff schedule and quarantine decision, exit classification,
// attempt numbering, the watchdog, the drain, and a fresh executor in a
// forked child. Children run trivial bodies (return, sleep, ignore
// SIGTERM); no optimizer work ever runs in this process.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "common/executor.hpp"
#include "common/faultpoint.hpp"
#include "common/supervisor.hpp"

namespace mst {
namespace {

using std::chrono::milliseconds;

/// A child body that never returns on its own.
int sleep_forever()
{
    for (;;) {
        ::pause();
    }
}

/// Reap until `count` children ended or `timeout` passed.
std::vector<Supervisor::Exit> reap_until(Supervisor& supervisor, std::size_t count,
                                         milliseconds timeout = milliseconds(10000))
{
    std::vector<Supervisor::Exit> exits;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (exits.size() < count && std::chrono::steady_clock::now() < deadline) {
        for (const Supervisor::Exit& exit : supervisor.reap()) {
            exits.push_back(exit);
        }
        std::this_thread::sleep_for(milliseconds(5));
    }
    return exits;
}

bool process_exists(pid_t pid)
{
    return ::kill(pid, 0) == 0 || errno != ESRCH;
}

TEST(RestartBudget, BackoffDoublesFromTheBaseUpToTheCap)
{
    RestartBudget budget(100, 10);
    EXPECT_EQ(budget.backoff(), milliseconds(0)); // nothing failed yet
    const long long expected[] = {10, 20, 40, 80, 160, 320, 640, 1280, 2000, 2000};
    for (const long long ms : expected) {
        (void)budget.fail();
        EXPECT_EQ(budget.backoff(), milliseconds(ms)) << "failure " << budget.total_failures();
    }
    // Far past the shift limit the schedule stays at the cap.
    for (int i = 0; i < 40; ++i) {
        (void)budget.fail();
    }
    EXPECT_EQ(budget.backoff(), milliseconds(kBackoffCapMs));
}

TEST(RestartBudget, ZeroBaseNeverWaitsAndALargeBaseIsUsedAsIs)
{
    RestartBudget none(100, 0);
    for (int i = 0; i < 5; ++i) {
        (void)none.fail();
        EXPECT_EQ(none.backoff(), milliseconds(0));
        EXPECT_TRUE(none.ready());
    }

    RestartBudget large(100, 5000);
    (void)large.fail();
    EXPECT_EQ(large.backoff(), milliseconds(5000));
    EXPECT_FALSE(large.ready()); // the backoff gates the next attempt
}

TEST(RestartBudget, QuarantineAfterConsecutiveFailuresThenStartsOver)
{
    RestartBudget budget(3, 0);
    EXPECT_FALSE(budget.fail());
    EXPECT_FALSE(budget.fail());
    budget.succeed(); // breaks the run
    EXPECT_FALSE(budget.fail());
    EXPECT_FALSE(budget.fail());
    EXPECT_TRUE(budget.fail()); // third in a row
    EXPECT_FALSE(budget.fail()); // a fresh run begins
    EXPECT_FALSE(budget.fail());
    EXPECT_TRUE(budget.fail());
    EXPECT_EQ(budget.total_failures(), 8);
}

TEST(Supervisor, QuarantineFiresAfterNConsecutiveChildFailures)
{
    constexpr int kQuarantineAfter = 4;
    Supervisor supervisor("test child", milliseconds(0));
    RestartBudget budget(kQuarantineAfter, 0);
    int spawned = 0;
    bool quarantined = false;
    while (!quarantined && spawned < 10) {
        ASSERT_GT(supervisor.spawn(0, [] { return 3; }), 0);
        ++spawned;
        const std::vector<Supervisor::Exit> exits = reap_until(supervisor, 1);
        ASSERT_EQ(exits.size(), 1U);
        EXPECT_EQ(exits[0].kind, Supervisor::ExitKind::failed);
        quarantined = budget.fail();
    }
    EXPECT_TRUE(quarantined);
    EXPECT_EQ(spawned, kQuarantineAfter);
}

TEST(Supervisor, ClassifiesHowChildrenEnd)
{
    Supervisor supervisor("test child", milliseconds(0));
    ASSERT_GT(supervisor.spawn(1, [] { return 0; }), 0);
    ASSERT_GT(supervisor.spawn(2, [] { return 7; }), 0);
    ASSERT_GT(supervisor.spawn(3, []() -> int { throw std::runtime_error("boom"); }), 0);
    ASSERT_GT(supervisor.spawn(4,
                               [] {
                                   ::raise(SIGKILL);
                                   return 0;
                               }),
              0);

    std::vector<Supervisor::Exit> exits = reap_until(supervisor, 4);
    ASSERT_EQ(exits.size(), 4U);
    EXPECT_EQ(supervisor.running(), 0U);
    std::vector<Supervisor::ExitKind> by_key(5, Supervisor::ExitKind::clean);
    for (const Supervisor::Exit& exit : exits) {
        by_key[static_cast<std::size_t>(exit.key)] = exit.kind;
    }
    EXPECT_EQ(by_key[1], Supervisor::ExitKind::clean);
    EXPECT_EQ(by_key[2], Supervisor::ExitKind::failed);
    EXPECT_EQ(by_key[3], Supervisor::ExitKind::failed);
    EXPECT_EQ(by_key[4], Supervisor::ExitKind::signaled);
}

TEST(Supervisor, EachChildOfAKeyRunsUnderTheNextAttemptNumber)
{
    Supervisor supervisor("test child", milliseconds(0));
    for (int expected = 0; expected < 3; ++expected) {
        // Another key's children do not advance this key's count.
        ASSERT_GT(supervisor.spawn(8, [] { return 0; }), 0);
        ASSERT_GT(supervisor.spawn(7, [expected] { return fault::attempt() == expected ? 0 : 1; }),
                  0);
        for (const Supervisor::Exit& exit : reap_until(supervisor, 2)) {
            EXPECT_EQ(exit.kind, Supervisor::ExitKind::clean) << "attempt " << expected;
        }
    }
}

TEST(Supervisor, WatchdogKillsAChildWhoseProbeStalls)
{
    Supervisor supervisor("test child", milliseconds(100));
    std::uint64_t beats = 0;
    const pid_t moving = supervisor.spawn(1, sleep_forever, [&beats] { return ++beats; });
    const pid_t stalled = supervisor.spawn(2, sleep_forever, [] { return std::uint64_t{7}; });
    ASSERT_GT(moving, 0);
    ASSERT_GT(stalled, 0);

    const std::vector<Supervisor::Exit> exits = reap_until(supervisor, 1);
    ASSERT_EQ(exits.size(), 1U);
    EXPECT_EQ(exits[0].key, 2);
    EXPECT_EQ(exits[0].kind, Supervisor::ExitKind::hung);
    EXPECT_FALSE(process_exists(stalled)); // killed and reaped

    // The child whose probe keeps moving outlives several timeouts.
    EXPECT_TRUE(reap_until(supervisor, 1, milliseconds(400)).empty());
    EXPECT_EQ(supervisor.running(), 1U);
    EXPECT_FALSE(supervisor.drain(milliseconds(5000)));
    EXPECT_FALSE(process_exists(moving));
}

TEST(Supervisor, DrainSigkillsAChildThatIgnoresSigterm)
{
    int ready[2] = {-1, -1};
    ASSERT_EQ(::pipe(ready), 0);
    Supervisor supervisor("test child", milliseconds(0));
    const auto announce_then_sleep = [&ready](bool ignore_sigterm) {
        return [&ready, ignore_sigterm] {
            (void)::signal(SIGTERM, ignore_sigterm ? SIG_IGN : SIG_DFL);
            const char byte = 1;
            (void)!::write(ready[1], &byte, 1);
            return sleep_forever();
        };
    };
    const pid_t obedient = supervisor.spawn(1, announce_then_sleep(false));
    const pid_t stubborn = supervisor.spawn(2, announce_then_sleep(true));
    ASSERT_GT(obedient, 0);
    ASSERT_GT(stubborn, 0);
    // Wait until both children set their SIGTERM disposition.
    char bytes[2];
    ASSERT_EQ(::read(ready[0], bytes, 1), 1);
    ASSERT_EQ(::read(ready[0], bytes + 1, 1), 1);

    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(supervisor.drain(milliseconds(200))); // someone had to be SIGKILLed
    EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(200));
    EXPECT_EQ(supervisor.running(), 0U);
    EXPECT_FALSE(process_exists(obedient));
    EXPECT_FALSE(process_exists(stubborn));
    (void)::close(ready[0]);
    (void)::close(ready[1]);
}

TEST(Supervisor, DrainOfObedientChildrenKillsNobody)
{
    Supervisor supervisor("test child", milliseconds(0));
    for (int key = 0; key < 3; ++key) {
        ASSERT_GT(supervisor.spawn(key,
                                   [] {
                                       (void)::signal(SIGTERM, SIG_DFL);
                                       return sleep_forever();
                                   }),
                  0);
    }
    EXPECT_FALSE(supervisor.drain(milliseconds(5000)));
    EXPECT_EQ(supervisor.running(), 0U);
}

TEST(Supervisor, ChildGetsAFreshExecutorAfterTheParentStartedIt)
{
    // Start the parent's pool, so its worker threads exist here.
    ASSERT_EQ(Executor::global().submit([] { return 7; }).get(), 7);
    Supervisor supervisor("test child", milliseconds(0));
    // With the parent's pool state the task would wait forever for a
    // worker thread that does not exist in the child.
    ASSERT_GT(supervisor.spawn(0, [] { return Executor::global().submit([] { return 0; }).get(); }),
              0);
    const std::vector<Supervisor::Exit> exits = reap_until(supervisor, 1);
    ASSERT_EQ(exits.size(), 1U);
    EXPECT_EQ(exits[0].kind, Supervisor::ExitKind::clean);
}

TEST(Supervisor, DestructorKillsAndReapsLeftoverChildren)
{
    pid_t pid = -1;
    {
        Supervisor supervisor("test child", milliseconds(0));
        pid = supervisor.spawn(0, sleep_forever);
        ASSERT_GT(pid, 0);
    }
    EXPECT_FALSE(process_exists(pid));
}

} // namespace
} // namespace mst
