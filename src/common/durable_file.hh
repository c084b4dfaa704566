/**
 * @file
 * Durable files: gllc's one sealed journal and one atomic write.
 *
 * A sealed journal is a file of JSON lines, each ending in a
 * "line_hash" field, the fnv1a64 of the bytes before it.  The sweep
 * checkpoint and the gllcd job journal are sealed journals, and gllcd
 * workers seal their replies the same way, so a line survives a
 * crash, a pipe and a socket alike.  A torn or rotted line fails its
 * seal and is skipped, never trusted.
 *
 * writeFileAtomically() writes `<path>.tmp.<pid>.<n>` and rename(2)s
 * it over the path: readers see the old file, the new one or none,
 * and racing writers each publish a whole file.  Nothing is fsync'd
 * before the rename, so a published file survives the death of its
 * writer process, not a power loss.
 */

#ifndef GLLC_COMMON_DURABLE_FILE_HH
#define GLLC_COMMON_DURABLE_FILE_HH

#include <cstdio>
#include <functional>
#include <iosfwd>
#include <string>

#include "common/result.hh"
#include "common/thread_annotations.hh"

namespace gllc
{

class JsonValue;

/** Append the "line_hash" of @p line so far, plus "}\n". */
std::string sealJournalLine(std::string line);

/**
 * Verify and strip a sealed line's "line_hash"; on success @p line is
 * the checksummed prefix, WITHOUT its closing '}'.  False on a torn,
 * rotted or unsealed line.
 */
bool unsealJournalLine(std::string &line);

/**
 * Verify a sealed line (its '\n' optional) and parse the JSON object
 * it seals; false when it is torn, rotted, unsealed or no object.
 */
bool parseSealedLine(std::string line, JsonValue &doc);

/**
 * True when @p line (its '\n' optional) is exactly the sealed line
 * @p emitted.  Readers that accept only their writer's shape re-emit
 * what they parsed and compare.
 */
bool sameSealedLine(const std::string &emitted, const std::string &line);

/**
 * Read a sealed journal line by line ('\r' endings dropped, empty
 * lines ignored): the first line to @p on_header ("" for an empty
 * file), every later one to @p on_line.  Returns how many lines
 * @p on_line refused; Io when the file cannot be opened, Corrupt when
 * @p on_header refuses.  @p what names the file in errors.
 */
[[nodiscard]] Result<std::size_t>
loadSealed(const std::string &path, const char *what,
           const std::function<bool(const std::string &)> &on_header,
           const std::function<bool(const std::string &)> &on_line);

/**
 * Appending writer of a sealed journal.  Thread-safe: concurrent
 * appends interleave whole lines.  Each line reaches the kernel when
 * it is appended; the file is fsync'd every N lines and on close.  A
 * journal never opened, or disabled by a failed write, drops lines.
 */
class SealedJournal
{
  public:
    SealedJournal() = default;
    ~SealedJournal() { close(); }

    /**
     * Open @p path close-on-exec, keeping its contents when @p append
     * (a torn final line trimmed), else truncating it.  @p header is
     * written, and synced, only into an empty file; lines are synced
     * every @p sync_every.  Io when @p path cannot be opened,
     * InvalidArgument when already open.
     */
    [[nodiscard]] Result<Unit> open(const std::string &path,
                                    bool append,
                                    const std::string &header,
                                    unsigned sync_every)
        GLLC_EXCLUDES(mutex_);

    /** True while lines persist: opened, and no write failed. */
    bool active() const GLLC_EXCLUDES(mutex_);

    /**
     * Write one sealed line.  A failed write warns once and disables
     * the journal; its partial line is a torn tail for open() to trim.
     */
    void append(const std::string &line) GLLC_EXCLUDES(mutex_);

    /** fsync what was appended. */
    void sync() GLLC_EXCLUDES(mutex_);

    /** Sync and close; later lines are dropped. */
    void close() GLLC_EXCLUDES(mutex_);

  private:
    void appendLocked(const std::string &line) GLLC_REQUIRES(mutex_);
    void syncLocked() GLLC_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::FILE *file_ GLLC_GUARDED_BY(mutex_) = nullptr;
    std::string path_ GLLC_GUARDED_BY(mutex_);
    unsigned syncEvery_ GLLC_GUARDED_BY(mutex_) = 1;
    unsigned pendingLines_ GLLC_GUARDED_BY(mutex_) = 0;
};

/**
 * Publish at @p path what @p writer puts on its stream, atomically
 * (see file comment).  Io on any failure, after which the temp file
 * is gone and @p path untouched.
 */
[[nodiscard]] Result<Unit>
writeFileAtomically(const std::string &path,
                    const std::function<void(std::ostream &)> &writer);

/**
 * Remove from @p dir the temp files of writeFileAtomically() calls
 * that died mid-write: those of process @p writer_pid, or all when it
 * is 0.  Returns how many were removed.
 */
std::size_t removeTempFiles(const std::string &dir, long writer_pid = 0);

} // namespace gllc

#endif // GLLC_COMMON_DURABLE_FILE_HH
