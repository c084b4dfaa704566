#include "service/job_journal.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <unistd.h>

#include "analysis/checkpoint.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace gllc
{

namespace
{

std::string
journalHeaderLine()
{
    return sealJournalLine("{\"gllcd_journal\":1");
}

/**
 * Unseal one journal line and re-parse it as JSON.  unsealJournalLine
 * strips to the checksummed prefix WITHOUT its closing brace, so one
 * is re-appended before parsing.
 */
bool
unsealToJson(std::string line, JsonValue &doc)
{
    while (!line.empty()
           && (line.back() == '\n' || line.back() == '\r'))
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

} // namespace

JobJournal::~JobJournal()
{
    close();
}

Result<Unit>
JobJournal::open(const std::string &path)
{
    // Trim the torn final line a kill -9 can leave, exactly like
    // CheckpointWriter: the next record must start on a clean line
    // boundary, not glue onto a fragment.
    std::string bytes;
    {
        std::ifstream probe(path, std::ios::binary);
        std::ostringstream ss;
        ss << probe.rdbuf();
        bytes = ss.str();
    }
    if (!bytes.empty() && bytes.back() != '\n') {
        const std::size_t keep = bytes.rfind('\n') + 1;
        if (::truncate(path.c_str(), static_cast<off_t>(keep))
            != 0)
            warn("cannot trim torn tail of job journal \"%s\"",
                 path.c_str());
        bytes.resize(keep);
    }
    const bool write_header = bytes.empty();

    MutexLock lock(mutex_);
    if (file_ != nullptr)
        return Error::format(ErrorCode::InvalidArgument,
                             "job journal already open at \"%s\"",
                             path_.c_str());
    // "e": close-on-exec, so forked workers never inherit it.
    file_ = std::fopen(path.c_str(), "abe");
    if (file_ == nullptr)
        return Error::format(ErrorCode::Io,
                             "cannot open job journal \"%s\": %s",
                             path.c_str(), std::strerror(errno));
    path_ = path;
    if (write_header)
        appendLocked(journalHeaderLine());
    return Unit{};
}

bool
JobJournal::active() const
{
    MutexLock lock(mutex_);
    return file_ != nullptr;
}

void
JobJournal::appendLocked(const std::string &line)
{
    if (file_ == nullptr)
        return;
    if (std::fwrite(line.data(), 1, line.size(), file_)
        != line.size()) {
        warn("job journal write to \"%s\" failed; journaling "
             "disabled for the rest of this run",
             path_.c_str());
        std::fclose(file_);
        file_ = nullptr;
        return;
    }
    std::fflush(file_);
    // Durability is the whole point of this file: a record the page
    // cache still owns would vanish with the crash it exists to
    // survive.
    ::fsync(::fileno(file_));
}

void
JobJournal::recordAccept(const QueuedJob &job)
{
    std::string line = "{\"accept\":1,\"job\":";
    line += std::to_string(job.id);
    line += ",\"tenant\":\"";
    line += jsonEscape(job.tenant);
    line += "\",\"priority\":";
    line += std::to_string(job.priority);
    line += ",\"spec\":\"";
    line += jsonEscape(job.spec.toJson());
    line += '"';
    const std::string sealed = sealJournalLine(std::move(line));
    MutexLock lock(mutex_);
    appendLocked(sealed);
}

void
JobJournal::recordFinish(std::uint64_t id, const char *outcome)
{
    std::string line = "{\"finish\":1,\"job\":";
    line += std::to_string(id);
    line += ",\"outcome\":\"";
    line += jsonEscape(outcome);
    line += '"';
    const std::string sealed = sealJournalLine(std::move(line));
    MutexLock lock(mutex_);
    appendLocked(sealed);
}

void
JobJournal::close()
{
    MutexLock lock(mutex_);
    if (file_ == nullptr)
        return;
    std::fflush(file_);
    ::fsync(::fileno(file_));
    std::fclose(file_);
    file_ = nullptr;
}

Result<JournalRecovery>
JobJournal::load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Error::format(ErrorCode::Io,
                             "cannot open job journal \"%s\"",
                             path.c_str());

    JournalRecovery recovery;
    std::string line;
    if (!std::getline(is, line))
        return recovery;  // empty journal: nothing to recover
    {
        JsonValue header;
        if (!unsealToJson(line, header)
            || header.find("gllcd_journal") == nullptr)
            return Error::format(
                ErrorCode::Corrupt,
                "job journal \"%s\" has no valid header line",
                path.c_str());
    }

    // Acceptance order is recovery order, so replay preserves the
    // original scheduling sequence.
    std::vector<JournalJob> accepted;
    std::set<std::uint64_t> finished;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        JsonValue doc;
        if (!unsealToJson(std::move(line), doc)) {
            ++recovery.skippedLines;
            continue;
        }
        const JsonValue *job_node = doc.find("job");
        if (job_node == nullptr) {
            ++recovery.skippedLines;
            continue;
        }
        Result<std::uint64_t> job_id = job_node->asU64("job");
        if (!job_id.ok()) {
            ++recovery.skippedLines;
            continue;
        }
        recovery.maxJobId =
            std::max(recovery.maxJobId, job_id.value());

        if (doc.find("finish") != nullptr) {
            ++recovery.finished;
            finished.insert(job_id.value());
            continue;
        }
        if (doc.find("accept") == nullptr) {
            ++recovery.skippedLines;
            continue;
        }
        const JsonValue *tenant = doc.find("tenant");
        const JsonValue *priority = doc.find("priority");
        const JsonValue *spec_node = doc.find("spec");
        if (tenant == nullptr || priority == nullptr
            || spec_node == nullptr) {
            ++recovery.skippedLines;
            continue;
        }
        Result<std::string> tenant_name =
            tenant->asString("tenant");
        Result<std::string> spec_json = spec_node->asString("spec");
        if (!tenant_name.ok() || !spec_json.ok()
            || !priority->isNumber()) {
            ++recovery.skippedLines;
            continue;
        }
        Result<SweepJobSpec> spec =
            parseSweepJobSpec(spec_json.value());
        if (!spec.ok()) {
            warn("job journal: skipping job %llu with unusable "
                 "spec: %s",
                 static_cast<unsigned long long>(job_id.value()),
                 spec.error().toString().c_str());
            ++recovery.skippedLines;
            continue;
        }
        JournalJob job;
        job.id = job_id.value();
        job.tenant = tenant_name.take();
        job.priority = static_cast<int>(priority->number());
        job.spec = spec.take();
        accepted.push_back(std::move(job));
        ++recovery.accepted;
    }

    for (JournalJob &job : accepted) {
        if (finished.count(job.id) == 0)
            recovery.pending.push_back(std::move(job));
    }
    return recovery;
}

} // namespace gllc
