/**
 * @file
 * Content-addressed store of finished sweep reports.
 *
 * A sweep's result bytes are a pure function of its identity: the
 * rendered traces (frames + scale) and the replay parameters
 * (policies + LLC size).  SweepJobSpec captures exactly that split
 * as (traceHash, contentHash), so the pair addresses a result the
 * way a git blob hash addresses content — two tenants submitting
 * the same job byte-for-byte share one entry, and a resubmission is
 * a file read instead of an hours-long recompute.
 *
 * Layout: one file per result under the store root,
 *
 *   <root>/tr<traceHash:016x>-sp<specHash:016x>.json
 *
 * holding the exact writeSweepJson() bytes that were served, plus the
 * workers' frame-trace cache, one file per rendered frame,
 *
 *   <root>/traces/tr<traceHash of that one frame:016x>.gltrc
 *
 * (workload/trace_cache.hh).  Neither is ever evicted.  Both are
 * written with writeFileAtomically() (common/durable_file.hh), so a
 * crashed daemon can never leave a torn entry for a later hit to
 * trust; the temp file of a daemon killed mid-write is removed when
 * the next one starts.  Results with quarantined cells are never
 * stored (partial results must be recomputed, not replayed forever).
 */

#ifndef GLLC_SERVICE_RESULT_STORE_HH
#define GLLC_SERVICE_RESULT_STORE_HH

#include <cstdint>
#include <string>

#include "common/result.hh"

namespace gllc
{

/** The content address of one sweep result. */
struct ResultKey
{
    std::uint64_t traceHash = 0;  ///< SweepJobSpec::traceHash()
    std::uint64_t specHash = 0;   ///< SweepJobSpec::contentHash()

    bool
    operator<(const ResultKey &other) const
    {
        if (traceHash != other.traceHash)
            return traceHash < other.traceHash;
        return specHash < other.specHash;
    }
    bool
    operator==(const ResultKey &other) const
    {
        return traceHash == other.traceHash
            && specHash == other.specHash;
    }
};

/** Filesystem-backed content-addressed result cache. */
class ResultStore
{
  public:
    /**
     * Use @p root as the store directory, creating it (and parents)
     * on first store() if absent.  An empty root disables the store:
     * contains() is false and store() is a no-op, which is how a
     * cache-less daemon runs.
     */
    explicit ResultStore(std::string root);

    /** True when the store is configured with a directory. */
    bool enabled() const { return !root_.empty(); }

    /** The store directory ("" when disabled). */
    const std::string &root() const { return root_; }

    /** The frame-trace cache directory ("" when disabled). */
    std::string
    traceCacheDir() const
    {
        return root_.empty() ? "" : root_ + "/traces";
    }

    /** The file a key maps to ("" when disabled). */
    std::string path(const ResultKey &key) const;

    /** True when a stored result exists for @p key. */
    bool contains(const ResultKey &key) const;

    /**
     * Read the stored payload for @p key.  Io when absent or
     * unreadable — the caller falls back to computing.
     */
    [[nodiscard]] Result<std::string>
    load(const ResultKey &key) const;

    /**
     * Atomically persist @p payload under @p key
     * (writeFileAtomically()).  Io on filesystem failure, including a failed final
     * flush; the temp file is then removed and nothing is
     * published under @p key.  The daemon logs and
     * continues, because serving the computed result matters more
     * than caching it.
     */
    [[nodiscard]] Result<Unit> store(const ResultKey &key,
                       const std::string &payload);

  private:
    std::string root_;
};

} // namespace gllc

#endif // GLLC_SERVICE_RESULT_STORE_HH
