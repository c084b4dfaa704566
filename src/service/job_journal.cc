#include "service/job_journal.hh"

#include <algorithm>
#include <set>

#include "common/durable_file.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace gllc
{

Result<Unit>
JobJournal::open(const std::string &path)
{
    return journal_.open(path, true,
                         sealJournalLine("{\"gllcd_journal\":1"), 1);
}

bool
JobJournal::active() const
{
    return journal_.active();
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
    journal_.append(sealJournalLine(std::move(line)));
}

void
JobJournal::recordFinish(std::uint64_t id, const char *outcome)
{
    std::string line = "{\"finish\":1,\"job\":";
    line += std::to_string(id);
    line += ",\"outcome\":\"";
    line += jsonEscape(outcome);
    line += '"';
    journal_.append(sealJournalLine(std::move(line)));
}

void
JobJournal::close()
{
    journal_.close();
}

Result<JournalRecovery>
JobJournal::load(const std::string &path)
{
    JournalRecovery recovery;
    // Acceptance order is recovery order, so replay preserves the
    // original scheduling sequence.
    std::vector<JournalJob> accepted;
    std::set<std::uint64_t> finished;
    const auto replay = [&](const std::string &line) {
        JsonValue doc;
        if (!parseSealedLine(line, doc))
            return false;
        const JsonValue *job_node = doc.find("job");
        if (job_node == nullptr)
            return false;
        Result<std::uint64_t> job_id = job_node->asU64("job");
        if (!job_id.ok())
            return false;
        recovery.maxJobId =
            std::max(recovery.maxJobId, job_id.value());

        if (doc.find("finish") != nullptr) {
            ++recovery.finished;
            finished.insert(job_id.value());
            return true;
        }
        if (doc.find("accept") == nullptr)
            return false;
        const JsonValue *tenant = doc.find("tenant");
        const JsonValue *priority = doc.find("priority");
        const JsonValue *spec_node = doc.find("spec");
        if (tenant == nullptr || priority == nullptr
            || spec_node == nullptr)
            return false;
        Result<std::string> tenant_name =
            tenant->asString("tenant");
        Result<std::string> spec_json = spec_node->asString("spec");
        if (!tenant_name.ok() || !spec_json.ok()
            || !priority->isNumber())
            return false;
        Result<SweepJobSpec> spec =
            parseSweepJobSpec(spec_json.value());
        if (!spec.ok()) {
            warn("job journal: skipping job %llu with unusable "
                 "spec: %s",
                 static_cast<unsigned long long>(job_id.value()),
                 spec.error().toString().c_str());
            return false;
        }
        JournalJob job;
        job.id = job_id.value();
        job.tenant = tenant_name.take();
        job.priority = static_cast<int>(priority->number());
        job.spec = spec.take();
        accepted.push_back(std::move(job));
        ++recovery.accepted;
        return true;
    };
    // An empty journal has nothing to recover.
    Result<std::size_t> skipped = loadSealed(
        path, "job journal",
        [](const std::string &line) {
            JsonValue header;
            return line.empty()
                || (parseSealedLine(line, header)
                    && header.find("gllcd_journal") != nullptr);
        },
        replay);
    if (!skipped.ok())
        return skipped.error();
    recovery.skippedLines = skipped.value();

    for (JournalJob &job : accepted) {
        if (finished.count(job.id) == 0)
            recovery.pending.push_back(std::move(job));
    }
    return recovery;
}

} // namespace gllc
