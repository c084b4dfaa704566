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
 * Journal layout: a sealed journal (common/durable_file.hh) whose
 * line 1 is a header describing the sweep configuration (scale, LLC
 * geometry, policy list, whether cells are characterized) so a stale
 * journal cannot silently contaminate a different sweep; every
 * following line is one cell.  An uncharacterized journal's header
 * ends in "characterize":false and its cell lines carry no
 * characterization arrays; a header without the key is a
 * characterized journal, the only kind written before the key
 * existed.
 * The torn final line of a killed run (or any rotted line) fails its
 * seal and is skipped, not trusted and not fatal.  A line that parses
 * but does not re-emit to the same bytes counts as torn too.
 */

#ifndef GLLC_ANALYSIS_CHECKPOINT_HH
#define GLLC_ANALYSIS_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/cell_key.hh"
#include "common/durable_file.hh"
#include "common/result.hh"

namespace gllc
{

struct SweepCell;

/** The sweep configuration a journal belongs to. */
struct CheckpointMeta
{
    std::uint32_t scaleLinear = 0;
    std::uint64_t llcBytes = 0;
    std::uint32_t llcWays = 0;
    std::uint32_t llcBanks = 0;
    std::vector<std::string> policies;
    /** Cells carry a characterization (SweepJobSpec::characterize). */
    bool characterize = false;

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
 * "line_hash" checksum and newline included), with the
 * characterization arrays when the cell has one.  The sweep
 * service's worker protocol reuses these exact bytes as its result
 * frames, so a cell survives a socket the same way it survives a
 * crash.
 */
std::string checkpointCellLine(const SweepCell &cell);

/**
 * Parse and verify one sealed cell line ('\n' optional) of the shape
 * @p characterized names; false on any deviation (torn tail, bit
 * rot, the other shape) — the caller skips, never trusts, a bad
 * line.
 */
bool parseCheckpointCellLine(const std::string &line, bool characterized,
                             SweepCell &cell);

/**
 * Parse a journal.  Io/Corrupt errors cover an unreadable file or
 * an unusable header; individually bad cell lines are skipped and
 * counted, because a torn tail is the expected shape of a journal
 * whose writer was killed.
 */
[[nodiscard]] Result<CheckpointContents>
loadCheckpoint(const std::string &path);

/**
 * Appending journal writer over a SealedJournal, fsync'd every
 * kSyncBatch lines.  fatal() on I/O failure at open (an unusable
 * checkpoint path is a configuration error; silently not
 * checkpointing would be worse).
 *
 * Thread-safe: concurrent writers (the sharded service path, future
 * multi-merge engines) interleave whole sealed lines, never torn
 * ones.  The in-process sweep engine appends from its single merge
 * thread and pays one uncontended lock per cell.
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

    /** Journal one completed cell, of the shape the header names. */
    void append(const SweepCell &cell);

    /** fsync what was appended. */
    void sync();

    /** Lines fsync'd per batch; small so a crash loses little. */
    static constexpr unsigned kSyncBatch = 16;

  private:
    SealedJournal journal_;
    bool characterize_;
};

} // namespace gllc

#endif // GLLC_ANALYSIS_CHECKPOINT_HH
