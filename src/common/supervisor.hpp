// Process supervision shared by `mst sweep` (a forked worker per pending
// shard) and the `mst serve --processes` pool (a worker per slot). This
// is the only code in mst that forks, reaps or signals children; callers
// keep the policy: what a child runs, how its progress shows, what
// success means and what a quarantine does.
//
// Restart backoff is derived from failure counts only, never from wall
// clock, so a fault-riddled run has a deterministic schedule and a crash
// loop cannot spin.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace mst {

/// Longest restart backoff (a larger base is used as is).
inline constexpr int kBackoffCapMs = 2000;

/// min(base_ms << k, max(cap_ms, base_ms)) with the shift capped at 20;
/// zero when base_ms <= 0.
[[nodiscard]] std::chrono::milliseconds capped_backoff(int base_ms, int k,
                                                       int cap_ms = kBackoffCapMs);

/// Failure accounting for one restartable unit of work (a sweep shard,
/// a pool slot). Failure k (1-based, over the budget's lifetime) backs
/// off capped_backoff(backoff_base_ms, k - 1).
class RestartBudget {
public:
    RestartBudget(int quarantine_after, int backoff_base_ms)
        : quarantine_after_(quarantine_after), backoff_base_ms_(backoff_base_ms)
    {
    }

    /// Count one failure and arm the backoff. True when this failure
    /// completes a run of `quarantine_after` consecutive ones; the run
    /// then starts over.
    [[nodiscard]] bool fail();
    void succeed() noexcept { consecutive_ = 0; }

    [[nodiscard]] int total_failures() const noexcept { return total_; }
    /// The backoff armed by the latest failure (zero before any).
    [[nodiscard]] std::chrono::milliseconds backoff() const;
    /// True once the latest failure's backoff has elapsed.
    [[nodiscard]] bool ready() const { return std::chrono::steady_clock::now() >= not_before_; }

private:
    int quarantine_after_;
    int backoff_base_ms_;
    int consecutive_ = 0;
    int total_ = 0;
    std::chrono::steady_clock::time_point not_before_{};
};

class Supervisor {
public:
    /// Runs in the child; returns its exit status. An escaping exception
    /// is reported on stderr and exits 1.
    using Body = std::function<int()>;
    /// Liveness probe, run in the parent: a value that moves while the
    /// child makes progress (a shard file's size, a shm slot heartbeat).
    using Probe = std::function<std::uint64_t()>;

    enum class ExitKind { clean, failed, signaled, hung };
    struct Exit {
        int key = 0;
        ExitKind kind = ExitKind::clean;
    };

    /// `name` prefixes a child's exception report. A child whose probe
    /// has not moved for `hang_timeout` is SIGKILLed (0 disables).
    Supervisor(std::string name, std::chrono::milliseconds hang_timeout)
        : name_(std::move(name)), hang_timeout_(hang_timeout)
    {
    }
    /// SIGKILLs and reaps every child left, so an exception thrown by
    /// the caller's policy never leaks processes.
    ~Supervisor() { (void)kill_all(); }
    Supervisor(const Supervisor&) = delete;
    Supervisor& operator=(const Supervisor&) = delete;

    /// Fork a child for the caller's `key`. It sets the fault layer's
    /// attempt number to the count of earlier children of `key` (so
    /// *R-gated rules stop firing on restarts), runs `body` and _exits
    /// (never flushing inherited stdio buffers twice). Returns the
    /// child's pid, or -1 when fork failed.
    pid_t spawn(int key, const Body& body, Probe probe = {});

    /// Non-blocking: collect the children that ended, and SIGKILL and
    /// collect the ones whose probe stalled (kind `hung`). EINTR-correct.
    [[nodiscard]] std::vector<Exit> reap();

    [[nodiscard]] std::size_t running() const noexcept { return children_.size(); }

    /// SIGTERM every child, reap for up to `grace`, then SIGKILL the
    /// stragglers. True when any child had to be SIGKILLed.
    bool drain(std::chrono::milliseconds grace);

private:
    struct Child {
        int key = 0;
        pid_t pid = -1;
        Probe probe;
        std::uint64_t last_value = 0;
        std::chrono::steady_clock::time_point last_progress{};
    };

    /// SIGKILL and reap every child; true when there was any.
    bool kill_all();

    std::string name_;
    std::chrono::milliseconds hang_timeout_;
    std::vector<Child> children_;
    std::map<int, int> attempts_; ///< children started per key
};

/// How a child ended, in words, for logs and diagnostics.
[[nodiscard]] const char* describe(Supervisor::ExitKind kind) noexcept;

} // namespace mst
