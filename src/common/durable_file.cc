#include "common/durable_file.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <unistd.h>

#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace gllc
{

namespace
{

/**
 * Length of the first @p size bytes of @p fd up to and including
 * their last '\n': 0 when there is none, -1 when a read fails.
 */
off_t
lastLineEnd(int fd, off_t size)
{
    char buf[4096];
    for (off_t end = size; end > 0;) {
        const off_t start =
            std::max<off_t>(0, end - static_cast<off_t>(sizeof(buf)));
        const ssize_t n = ::pread(fd, buf,
                                  static_cast<std::size_t>(end - start),
                                  start);
        if (n != end - start)
            return -1;
        for (ssize_t k = n; k > 0; --k) {
            if (buf[k - 1] == '\n')
                return start + k;
        }
        end = start;
    }
    return 0;
}

} // namespace

std::string
sealJournalLine(std::string line)
{
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016" PRIx64,
                  fnv1a64(line.data(), line.size()));
    line += ",\"line_hash\":\"";
    line += hash;
    line += "\"}\n";
    return line;
}

bool
unsealJournalLine(std::string &line)
{
    const std::size_t pos = line.rfind(",\"line_hash\":\"");
    if (pos == std::string::npos)
        return false;
    // Seal the prefix again: the line must carry that very hash.
    const std::string sealed = sealJournalLine(line.substr(0, pos));
    const std::size_t n = sealed.size() - 1 - pos;  // up to the '}'
    if (line.compare(pos, n, sealed, pos, n) != 0)
        return false;
    line.resize(pos);
    return true;
}

bool
parseSealedLine(std::string line, JsonValue &doc)
{
    if (!line.empty() && line.back() == '\n')
        line.pop_back();
    if (!unsealJournalLine(line))
        return false;
    line += '}';
    Result<JsonValue> parsed = parseJson(line);
    if (!parsed.ok() || !parsed.value().isObject())
        return false;
    doc = parsed.take();
    return true;
}

bool
sameSealedLine(const std::string &emitted, const std::string &line)
{
    const std::size_t n = emitted.size() - 1;  // without its '\n'
    return (line.size() == n
            || (line.size() == n + 1 && line.back() == '\n'))
        && line.compare(0, n, emitted, 0, n) == 0;
}

Result<std::size_t>
loadSealed(const std::string &path, const char *what,
           const std::function<bool(const std::string &)> &on_header,
           const std::function<bool(const std::string &)> &on_line)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Error::format(ErrorCode::Io, "cannot open %s \"%s\"",
                             what, path.c_str());
    std::string line;
    const auto next = [&is, &line] {
        if (!std::getline(is, line))
            return false;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        return true;
    };
    if (!next())
        line.clear();
    if (!on_header(line))
        return Error::format(ErrorCode::Corrupt,
                             "%s \"%s\" has no valid header line", what,
                             path.c_str());
    std::size_t skipped = 0;
    while (next()) {
        // The torn tail of a killed writer lands here.
        if (!line.empty() && !on_line(line))
            ++skipped;
    }
    return skipped;
}

Result<Unit>
SealedJournal::open(const std::string &path, bool append,
                    const std::string &header, unsigned sync_every)
{
    MutexLock lock(mutex_);
    if (file_ != nullptr)
        return Error::format(ErrorCode::InvalidArgument,
                             "journal already open at \"%s\"",
                             path_.c_str());
    // "+": the torn-tail scan reads.  "e": close-on-exec, so forked
    // workers never inherit the journal.
    file_ = std::fopen(path.c_str(), append ? "a+be" : "w+be");
    if (file_ == nullptr)
        return Error::format(ErrorCode::Io, "cannot open \"%s\": %s",
                             path.c_str(), std::strerror(errno));
    path_ = path;
    syncEvery_ = sync_every;
    pendingLines_ = 0;

    // A kill during a write can leave a torn final line; drop it (a
    // load skips it anyway) so the next line starts on a clean line
    // boundary instead of gluing onto the fragment.
    const int fd = ::fileno(file_);
    const off_t size = ::lseek(fd, 0, SEEK_END);
    const off_t keep = size < 0 ? size : lastLineEnd(fd, size);
    if (keep != size && (keep < 0 || ::ftruncate(fd, keep) != 0)) {
        warn("cannot trim torn tail of \"%s\"", path.c_str());
    } else if (keep == 0) {
        appendLocked(header);
        syncLocked();
    }
    return Unit{};
}

bool
SealedJournal::active() const
{
    MutexLock lock(mutex_);
    return file_ != nullptr;
}

void
SealedJournal::append(const std::string &line)
{
    MutexLock lock(mutex_);
    appendLocked(line);
    if (++pendingLines_ >= syncEvery_)
        syncLocked();
}

void
SealedJournal::appendLocked(const std::string &line)
{
    if (file_ == nullptr)
        return;
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()
        || std::fflush(file_) != 0) {
        warn("write to \"%s\" failed; journal disabled for the rest "
             "of this run",
             path_.c_str());
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
SealedJournal::sync()
{
    MutexLock lock(mutex_);
    syncLocked();
}

void
SealedJournal::syncLocked()
{
    if (file_ == nullptr)
        return;
    // Stable storage, not just the page cache: a crash after this
    // point cannot lose what was appended.
    ::fsync(::fileno(file_));
    pendingLines_ = 0;
}

void
SealedJournal::close()
{
    MutexLock lock(mutex_);
    if (file_ == nullptr)
        return;
    syncLocked();
    std::fclose(file_);
    file_ = nullptr;
}

Result<Unit>
writeFileAtomically(const std::string &path,
                    const std::function<void(std::ostream &)> &writer)
{
    static std::atomic<std::uint64_t> next_tmp{0};
    const std::string tmp_path = path + ".tmp."
        + std::to_string(::getpid()) + "."
        + std::to_string(next_tmp.fetch_add(1));
    // Every failure removes the temp file, so nothing partial is
    // ever left behind or published.
    const auto fail = [&tmp_path](const char *what) -> Result<Unit> {
        const Error err =
            Error::format(ErrorCode::Io, "%s \"%s\": %s", what,
                          tmp_path.c_str(), std::strerror(errno));
        ::unlink(tmp_path.c_str());
        return err;
    };
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    if (!os)
        return fail("cannot open");
    writer(os);
    // Bytes that fit in the stream buffer only reach the file in the
    // flush of close(), so the check must follow it.
    os.close();
    if (!os)
        return fail("write failed on");
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0)
        return fail("cannot rename");
    return Unit{};
}

std::size_t
removeTempFiles(const std::string &dir, long writer_pid)
{
    const std::string tag = writer_pid == 0
        ? ".tmp."
        : ".tmp." + std::to_string(writer_pid) + ".";
    std::size_t removed = 0;
    DIR *listing = ::opendir(dir.c_str());
    if (listing == nullptr)
        return 0;
    while (const dirent *entry = ::readdir(listing)) {
        const std::string name = entry->d_name;
        if (name.find(tag) != std::string::npos
            && ::unlink((dir + "/" + name).c_str()) == 0)
            ++removed;
    }
    ::closedir(listing);
    return removed;
}

} // namespace gllc
