/**
 * @file
 * Sweep checkpoint journal: JSON-lines persistence of completed
 * (app, frame, policy) cells.
 *
 * A production-scale sweep runs for hours; losing every completed
 * cell to a mid-run crash (or a deliberate kill) is the failure
 * mode this module removes.  The sweep engine appends one
 * self-checksummed JSON line per completed cell (GLLC_CHECKPOINT=
 * <path>), fsync'ing in small batches so at most a batch of work is
 * re-done after a crash; `--resume` replays the journal, restores
 * the recorded cells bit-for-bit (every journaled field is an
 * integer, so the round trip is exact) and re-executes only what is
 * missing.  A resumed run therefore merges to a SweepResult that is
 * byte-identical to an uninterrupted one.
 *
 * Journal layout: line 1 is a header describing the sweep
 * configuration (scale, LLC geometry, policy list) so a stale
 * journal cannot silently contaminate a different sweep; every
 * following line is one cell.  Each line ends with a "line_hash"
 * field — fnv1a64 of the bytes before it — so the torn final line
 * of a killed run (or any rotted line) is detected and skipped, not
 * trusted and not fatal.
 */

#ifndef GLLC_ANALYSIS_CHECKPOINT_HH
#define GLLC_ANALYSIS_CHECKPOINT_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/cell_key.hh"
#include "common/result.hh"
#include "common/thread_annotations.hh"

namespace gllc
{

struct SweepCell;

/**
 * Close a journal line: append the fnv1a64 self-checksum of
 * everything so far as a trailing "line_hash" field plus "}\n".
 * The checkpoint journal, the worker wire protocol, and the gllcd
 * job journal all seal their lines with this one helper so a line
 * survives a socket, a pipe, and a crash identically.
 */
std::string sealJournalLine(std::string line);

/**
 * Verify and strip a sealed line's trailing "line_hash"; on success
 * @p line is the checksummed prefix (note: WITHOUT its closing '}' —
 * re-append one before handing the prefix to a JSON parser).  False
 * on a torn, rotted, or unsealed line.
 */
bool unsealJournalLine(std::string &line);

/** The sweep configuration a journal belongs to. */
struct CheckpointMeta
{
    std::uint32_t scaleLinear = 0;
    std::uint64_t llcBytes = 0;
    std::uint32_t llcWays = 0;
    std::uint32_t llcBanks = 0;
    std::vector<std::string> policies;

    bool operator==(const CheckpointMeta &other) const = default;
};

/** Everything a journal held that survived validation. */
struct CheckpointContents
{
    CheckpointMeta meta;

    /**
     * Restored cells by typed key.  (Old journals parse into the
     * same map: the on-disk line format names the key fields
     * explicitly, so nothing about this container is persisted.)
     */
    std::map<CellKey, SweepCell> cells;

    /** Torn/corrupt lines that were skipped (telemetry). */
    std::size_t skippedLines = 0;
};

/**
 * Serialize one completed cell as a sealed journal line (trailing
 * "line_hash" checksum and newline included).  The sweep service's
 * worker protocol reuses these exact bytes as its result frames, so
 * a cell survives a socket the same way it survives a crash.
 */
std::string checkpointCellLine(const SweepCell &cell);

/**
 * Parse and verify one sealed cell line; false on any deviation
 * (torn tail, bit rot, wrong shape) — the caller skips, never
 * trusts, a bad line.
 */
bool parseCheckpointCellLine(std::string line, SweepCell &cell);

/**
 * Parse a journal.  Io/Corrupt errors cover an unreadable file or
 * an unusable header; individually bad cell lines are skipped and
 * counted, because a torn tail is the expected shape of a journal
 * whose writer was killed.
 */
[[nodiscard]] Result<CheckpointContents>
loadCheckpoint(const std::string &path);

/**
 * Appending journal writer.  fatal() on I/O failure at open (an
 * unusable checkpoint path is a configuration error; silently not
 * checkpointing would be worse).
 *
 * Thread-safe: append()/sync() serialize on an internal mutex, so
 * concurrent writers (the sharded service path, future multi-merge
 * engines) interleave whole sealed lines, never torn ones.  The
 * in-process sweep engine appends from its single merge thread and
 * pays one uncontended lock per cell.
 */
class CheckpointWriter
{
  public:
    /**
     * Open @p path and write the header when starting fresh.
     * @param append  keep existing contents (resume) instead of
     *                truncating.
     */
    CheckpointWriter(const std::string &path,
                     const CheckpointMeta &meta, bool append);

    /** Flushes and syncs the tail batch. */
    ~CheckpointWriter();

    CheckpointWriter(const CheckpointWriter &) = delete;
    CheckpointWriter &operator=(const CheckpointWriter &) = delete;

    /** Journal one completed cell; syncs every kSyncBatch lines. */
    void append(const SweepCell &cell) GLLC_EXCLUDES(mutex_);

    /** Flush user-space buffers and fsync to stable storage. */
    void sync() GLLC_EXCLUDES(mutex_);

    /** Lines fsync'd per batch; small so a crash loses little. */
    static constexpr unsigned kSyncBatch = 16;

  private:
    void syncLocked() GLLC_REQUIRES(mutex_);

    Mutex mutex_;
    std::FILE *file_ GLLC_GUARDED_BY(mutex_) = nullptr;
    std::string path_;
    unsigned pendingLines_ GLLC_GUARDED_BY(mutex_) = 0;
};

} // namespace gllc

#endif // GLLC_ANALYSIS_CHECKPOINT_HH
