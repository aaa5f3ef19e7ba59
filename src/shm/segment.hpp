// Crash-safe POSIX shared-memory segment: the storage layer of the
// multi-process cache tier (docs/shm.md).
//
// One segment holds an append-only arena of immutable, checksummed
// entries behind a strict single-writer/many-reader protocol:
//
//   * a versioned superblock (magic, layout version, generation) guards
//     against attaching a foreign or incompatible mapping,
//   * every entry carries its length and an FNV-1a checksum; readers
//     validate on every lookup and treat any mismatch as a miss,
//   * publishing is two-phase: reserve (reserved_bytes moves ahead),
//     write the bytes, release-fence, then commit (committed_bytes and
//     the generation advance atomically). Readers only ever scan the
//     committed prefix, so a torn entry is unobservable,
//   * the writer lock is PID-liveness based: a writer that dies between
//     the phases leaves reserved_bytes > committed_bytes and its PID in
//     the lock word. The next writer (or attach) detects the dead
//     holder with kill(pid, 0), steals the lock, zeroes the torn tail,
//     and counts a recovery — no robust futexes, no blocking,
//   * readers never block and never crash on segment trouble: every
//     failure path is a typed miss, and the store layer above falls
//     back to local computation.
//
// Fault points (docs/robustness.md): shm.map (create/attach), shm.publish
// (between the write and the commit), shm.truncate_recover (during torn-
// tail recovery), shm.checksum (reader-side validation).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace mst::shm {

/// Aggregated segment-level counters (shared across every process).
struct SegmentCounters {
    std::uint64_t generation = 0;      ///< successful publishes since creation
    std::uint64_t committed_bytes = 0; ///< arena bytes holding committed entries
    std::uint64_t arena_bytes = 0;     ///< arena capacity
    std::uint64_t publishes = 0;       ///< committed publish operations
    std::uint64_t recoveries = 0;      ///< torn tails truncated (writer died)
    std::uint64_t truncated_bytes = 0; ///< total bytes zeroed by recoveries
};

/// Lifecycle state a worker advertises in its slot.
enum class WorkerState : std::uint32_t {
    empty = 0,
    starting = 1,
    ready = 2,
    draining = 3,
};

/// Snapshot of one worker slot (see Segment::read_slots).
struct WorkerSlotView {
    std::uint32_t pid = 0;
    WorkerState state = WorkerState::empty;
    std::uint64_t heartbeat = 0;
    std::uint64_t received = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t connections_accepted = 0;
    std::uint64_t requests_admitted = 0;
    std::uint64_t requests_rejected = 0;
    std::uint64_t shm_hits = 0;
    std::uint64_t shm_misses = 0;
    std::uint64_t shm_publishes = 0;
    std::uint64_t shm_fallbacks = 0;
};

/// Pool-level metadata the prefork supervisor maintains in the
/// superblock (workers aggregate it into scope-"server" stats).
struct PoolMeta {
    std::uint64_t workers = 0;     ///< configured pool size
    std::uint64_t restarts = 0;    ///< worker respawns since start
    std::uint64_t quarantined = 0; ///< slots given up on after max restarts
};

class Segment {
public:
    /// Entry namespaces sharing one arena. The (key, kind) pair
    /// addresses an entry; the kind keeps a tables fingerprint from
    /// colliding with a memo-outcome hash of the same value.
    enum class Kind : std::uint32_t {
        tables = 1,  ///< serialized SocTimeTables blob, key = SOC fingerprint
        outcome = 2, ///< serialized SolutionOutcome, key = memo-key hash
    };

    enum class PublishResult {
        published, ///< committed; generation advanced
        busy,      ///< a live writer holds the lock — skipped, not blocked
        full,      ///< arena exhausted; the entry stays local-only
        failed,    ///< injected fault or invalid segment state
    };

    /// Slots available to a prefork pool (superblock worker table).
    static constexpr std::size_t max_workers = 64;

    /// Create a fresh segment (shm_open O_CREAT|O_EXCL) of `bytes` total
    /// size, or attach to the existing one of that name if it already
    /// exists. Throws mst::Error on any failure (including an injected
    /// shm.map fault and magic/version/size mismatches on attach) — the
    /// caller degrades to local-only operation.
    [[nodiscard]] static std::shared_ptr<Segment> create_or_attach(const std::string& name,
                                                                   std::size_t bytes);

    /// Attach to an existing segment; throws if absent or incompatible.
    [[nodiscard]] static std::shared_ptr<Segment> attach(const std::string& name);

    ~Segment();
    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// True if this mapping created the segment (its owner unlinks it).
    [[nodiscard]] bool created() const noexcept { return created_; }

    /// shm_unlink the backing object (the creator calls this at exit;
    /// live mappings survive until every process unmaps).
    void unlink() noexcept;

    /// Checksum-validated copy of the committed entry for (key, kind),
    /// or nullopt (absent, checksum mismatch, or injected shm.checksum
    /// fault). Lock-free; refreshes the reader index when new entries
    /// were committed. `checksum_failed`, when given, distinguishes a
    /// validation rejection from a plain miss.
    [[nodiscard]] std::optional<std::string> lookup(std::uint64_t key, Kind kind,
                                                    bool* checksum_failed = nullptr);

    /// Two-phase publish of an immutable entry. Never blocks: a live
    /// concurrent writer yields `busy` (the caller just keeps its local
    /// copy). Stealing the lock from a dead writer runs recovery first.
    [[nodiscard]] PublishResult publish(std::uint64_t key, Kind kind, const void* data,
                                        std::size_t size);

    /// Detect and truncate a torn tail left by a dead writer (also run
    /// by publish-time lock steals). Returns true if a recovery ran.
    bool recover_if_torn();

    [[nodiscard]] SegmentCounters counters() const;

    // --- Worker slot table (prefork pool supervision + stats) ---

    /// Claim slot `index` for `pid` (state -> starting, counters reset).
    void claim_slot(std::size_t index, std::uint32_t pid);
    void set_slot_state(std::size_t index, WorkerState state);
    /// Worker ticker: bump the heartbeat and push the current counters.
    void update_slot(std::size_t index, const WorkerSlotView& view);
    void clear_slot(std::size_t index);
    [[nodiscard]] WorkerSlotView read_slot(std::size_t index) const;
    /// Snapshots every claimed slot; empty slots are skipped.
    [[nodiscard]] std::vector<WorkerSlotView> read_slots() const;

    void set_pool_meta(const PoolMeta& meta);
    void add_pool_restart();
    void add_pool_quarantine();
    [[nodiscard]] PoolMeta pool_meta() const;

private:
    struct Superblock;
    struct WorkerSlot;

    Segment(std::string name, void* base, std::size_t bytes, bool created);

    [[nodiscard]] Superblock& super() noexcept;
    [[nodiscard]] const Superblock& super() const noexcept;
    [[nodiscard]] WorkerSlot* slots() noexcept;
    [[nodiscard]] const WorkerSlot* slots() const noexcept;
    [[nodiscard]] char* arena() noexcept;
    [[nodiscard]] const char* arena() const noexcept;
    [[nodiscard]] std::uint64_t arena_capacity() const noexcept;

    /// Try to take the writer lock; steals from dead holders (running
    /// recovery). False when a live writer holds it.
    [[nodiscard]] bool lock_writer();
    void unlock_writer() noexcept;
    /// The torn-tail truncation itself; the caller holds the lock.
    void recover_locked();
    /// Catch the reader index up with newly committed entries.
    void refresh_index(std::uint64_t committed);

    std::string name_;
    void* base_ = nullptr;
    std::size_t bytes_ = 0;
    bool created_ = false;

    // Per-process incremental reader index: mixed (key, kind) -> arena
    // offset of the latest committed entry, verified against the entry
    // header at use (a hash collision is a miss, never a wrong answer).
    // Append-only arena means refreshing scans just the new suffix.
    std::unordered_map<std::uint64_t, std::uint64_t> index_;
    std::uint64_t scanned_ = 0; ///< arena bytes already indexed
    mutable std::mutex index_mutex_;
};

} // namespace mst::shm
