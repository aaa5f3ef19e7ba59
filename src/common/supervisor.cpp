#include "common/supervisor.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <thread>

#include "common/faultpoint.hpp"

namespace mst {

namespace {

using Clock = std::chrono::steady_clock;

/// EINTR-correct waitpid: a stray signal must not make the supervisor
/// misread a healthy child as dead. True once `pid` was reaped.
bool reaped(pid_t pid, int flags, int* status = nullptr)
{
    int ignored = 0;
    for (;;) {
        const pid_t result = ::waitpid(pid, status != nullptr ? status : &ignored, flags);
        if (result >= 0 || errno != EINTR) {
            return result == pid;
        }
    }
}

} // namespace

std::chrono::milliseconds capped_backoff(int base_ms, int k, int cap_ms)
{
    if (base_ms <= 0) {
        return std::chrono::milliseconds(0);
    }
    const long long raw = static_cast<long long>(base_ms) << std::min(k, 20);
    return std::chrono::milliseconds(std::min(raw, std::max<long long>(cap_ms, base_ms)));
}

bool RestartBudget::fail()
{
    ++total_;
    not_before_ = Clock::now() + backoff();
    if (++consecutive_ < quarantine_after_) {
        return false;
    }
    consecutive_ = 0;
    return true;
}

std::chrono::milliseconds RestartBudget::backoff() const
{
    return total_ == 0 ? std::chrono::milliseconds(0)
                       : capped_backoff(backoff_base_ms_, total_ - 1);
}

pid_t Supervisor::spawn(int key, const Body& body, Probe probe)
{
    const pid_t pid = ::fork();
    if (pid < 0) {
        return -1;
    }
    if (pid == 0) {
        fault::set_attempt(attempts_[key]);
        int status = 1;
        try {
            status = body();
        } catch (const std::exception& error) {
            std::fprintf(stderr, "%s %d: %s\n", name_.c_str(), key, error.what());
        } catch (...) {
        }
        ::_exit(status);
    }
    ++attempts_[key];
    const std::uint64_t baseline = probe ? probe() : 0;
    children_.push_back({key, pid, std::move(probe), baseline, Clock::now()});
    return pid;
}

std::vector<Supervisor::Exit> Supervisor::reap()
{
    std::vector<Exit> exits;
    const Clock::time_point now = Clock::now();
    for (Child& child : children_) {
        int status = 0;
        if (reaped(child.pid, WNOHANG, &status)) {
            exits.push_back({child.key, !WIFEXITED(status)           ? ExitKind::signaled
                                        : WEXITSTATUS(status) == 0 ? ExitKind::clean
                                                                   : ExitKind::failed});
            child.pid = -1;
        } else if (child.probe && hang_timeout_.count() > 0) {
            // Watchdog: the probe's value must move within the timeout.
            if (const std::uint64_t value = child.probe(); value != child.last_value) {
                child.last_value = value;
                child.last_progress = now;
            } else if (now - child.last_progress > hang_timeout_) {
                (void)::kill(child.pid, SIGKILL);
                (void)reaped(child.pid, 0);
                exits.push_back({child.key, ExitKind::hung});
                child.pid = -1;
            }
        }
    }
    children_.erase(std::remove_if(children_.begin(), children_.end(),
                                   [](const Child& child) { return child.pid < 0; }),
                    children_.end());
    return exits;
}

bool Supervisor::drain(std::chrono::milliseconds grace)
{
    for (const Child& child : children_) {
        (void)::kill(child.pid, SIGTERM);
    }
    const Clock::time_point deadline = Clock::now() + grace;
    for (;;) {
        children_.erase(std::remove_if(children_.begin(), children_.end(),
                                       [](const Child& child) {
                                           return reaped(child.pid, WNOHANG);
                                       }),
                        children_.end());
        if (children_.empty() || Clock::now() >= deadline) {
            return kill_all();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

bool Supervisor::kill_all()
{
    const bool any = !children_.empty();
    for (const Child& child : children_) {
        (void)::kill(child.pid, SIGKILL);
        (void)reaped(child.pid, 0);
    }
    children_.clear();
    return any;
}

const char* describe(Supervisor::ExitKind kind) noexcept
{
    static const char* const words[] = {"exited with status 0", "exited with an error",
                                        "died on a signal",
                                        "stalled and was killed by the watchdog"};
    return words[static_cast<int>(kind)];
}

} // namespace mst
