#include "analysis/checkpoint.hh"

#include <array>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "analysis/sweep.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace gllc
{

namespace
{

void
appendU64(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
}

template <typename Array>
void
appendU64Array(std::string &out, const Array &values)
{
    out += '[';
    bool first = true;
    for (const auto v : values) {
        if (!first)
            out += ',';
        appendU64(out, static_cast<std::uint64_t>(v));
        first = false;
    }
    out += ']';
}

std::string
headerLine(const CheckpointMeta &meta)
{
    std::string line = "{\"gllc_checkpoint\":1,\"scale\":";
    appendU64(line, meta.scaleLinear);
    line += ",\"llc_bytes\":";
    appendU64(line, meta.llcBytes);
    line += ",\"llc_ways\":";
    appendU64(line, meta.llcWays);
    line += ",\"llc_banks\":";
    appendU64(line, meta.llcBanks);
    line += ",\"policies\":[";
    for (std::size_t i = 0; i < meta.policies.size(); ++i) {
        if (i)
            line += ',';
        line += '"';
        line += jsonEscape(meta.policies[i]);
        line += '"';
    }
    line += ']';
    return sealJournalLine(std::move(line));
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
    const std::string marker = ",\"line_hash\":\"";
    const std::size_t pos = line.rfind(marker);
    if (pos == std::string::npos)
        return false;
    const std::size_t hex = pos + marker.size();
    if (line.size() < hex + 17 || line.compare(hex + 16, 2, "\"}") != 0)
        return false;
    std::uint64_t stored = 0;
    for (std::size_t k = 0; k < 16; ++k) {
        const char c = line[hex + k];
        std::uint64_t digit = 0;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        else
            return false;
        stored = (stored << 4) | digit;
    }
    if (fnv1a64(line.data(), pos) != stored)
        return false;
    line.resize(pos);
    return true;
}

std::string
checkpointCellLine(const SweepCell &cell)
{
    const LlcStats &s = cell.result.stats;
    const Characterization &ch = cell.result.characterization;

    std::string line = "{\"app\":\"";
    line += jsonEscape(cell.key.app);
    line += "\",\"frame\":";
    appendU64(line, cell.key.frameIndex);
    line += ",\"policy\":\"";
    line += jsonEscape(cell.key.policy);
    line += "\",\"attempts\":";
    appendU64(line, cell.attempts);
    line += ",\"streams\":[";
    for (std::size_t i = 0; i < kNumStreams; ++i) {
        if (i)
            line += ',';
        appendU64Array(line,
                       std::array<std::uint64_t, 4>{
                           s.stream[i].accesses, s.stream[i].hits,
                           s.stream[i].misses, s.stream[i].bypasses});
    }
    line += "],\"writebacks\":";
    appendU64(line, s.writebacks);
    line += ",\"evictions\":";
    appendU64(line, s.evictions);
    line += ",\"chz\":";
    appendU64Array(line,
                   std::array<std::uint64_t, 4>{
                       ch.interTexHits, ch.intraTexHits,
                       ch.rtProductions, ch.rtConsumptions});
    line += ",\"tex_epoch\":";
    appendU64Array(line, ch.texEpochHits);
    line += ",\"tex_reach\":";
    appendU64Array(line, ch.texReach);
    line += ",\"z_reach\":";
    appendU64Array(line, ch.zReach);
    line += ",\"fills\":[";
    for (std::size_t p = 0; p < kNumPolicyStreams; ++p) {
        if (p)
            line += ',';
        appendU64Array(line, cell.result.fills.counts[p]);
    }
    line += ']';
    return sealJournalLine(std::move(line));
}

namespace
{

/**
 * Strict sequential parser for the exact shape the emitters above
 * produce.  Any deviation fails the line, which the loader treats
 * as torn (skipped), never as fatal.
 */
struct Cursor
{
    const std::string &s;
    std::size_t i = 0;

    bool
    lit(const char *text)
    {
        const std::size_t n = std::strlen(text);
        if (s.compare(i, n, text) != 0)
            return false;
        i += n;
        return true;
    }

    bool
    u64(std::uint64_t &out)
    {
        if (i >= s.size() || s[i] < '0' || s[i] > '9')
            return false;
        std::uint64_t v = 0;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
            if (v > (~0ull - 9) / 10)
                return false;
            v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
            ++i;
        }
        out = v;
        return true;
    }

    bool
    str(std::string &out)
    {
        return lit("\"") && decodeJsonString(s, i, out) == nullptr;
    }

    template <typename Array>
    bool
    u64Array(Array &values)
    {
        if (!lit("["))
            return false;
        for (std::size_t k = 0; k < values.size(); ++k) {
            if (k > 0 && !lit(","))
                return false;
            std::uint64_t v = 0;
            if (!u64(v))
                return false;
            values[k] =
                static_cast<typename Array::value_type>(v);
        }
        return lit("]");
    }
};

bool
parseHeaderLine(std::string line, CheckpointMeta &meta)
{
    if (!unsealJournalLine(line))
        return false;
    Cursor c{line};
    std::uint64_t v = 0;
    if (!c.lit("{\"gllc_checkpoint\":1,\"scale\":") || !c.u64(v))
        return false;
    meta.scaleLinear = static_cast<std::uint32_t>(v);
    if (!c.lit(",\"llc_bytes\":") || !c.u64(meta.llcBytes))
        return false;
    if (!c.lit(",\"llc_ways\":") || !c.u64(v))
        return false;
    meta.llcWays = static_cast<std::uint32_t>(v);
    if (!c.lit(",\"llc_banks\":") || !c.u64(v))
        return false;
    meta.llcBanks = static_cast<std::uint32_t>(v);
    if (!c.lit(",\"policies\":["))
        return false;
    meta.policies.clear();
    if (!c.lit("]")) {
        while (true) {
            std::string policy;
            if (!c.str(policy))
                return false;
            meta.policies.push_back(std::move(policy));
            if (c.lit("]"))
                break;
            if (!c.lit(","))
                return false;
        }
    }
    return c.i == line.size();
}

} // namespace

bool
parseCheckpointCellLine(std::string line, SweepCell &cell)
{
    if (!unsealJournalLine(line))
        return false;
    Cursor c{line};
    std::uint64_t v = 0;
    if (!c.lit("{\"app\":") || !c.str(cell.key.app))
        return false;
    if (!c.lit(",\"frame\":") || !c.u64(v))
        return false;
    cell.key.frameIndex = static_cast<std::uint32_t>(v);
    if (!c.lit(",\"policy\":"))
        return false;
    if (!c.str(cell.key.policy))
        return false;
    if (!c.lit(",\"attempts\":") || !c.u64(v))
        return false;
    cell.attempts = static_cast<unsigned>(v);

    LlcStats &s = cell.result.stats;
    if (!c.lit(",\"streams\":["))
        return false;
    for (std::size_t i = 0; i < kNumStreams; ++i) {
        if (i > 0 && !c.lit(","))
            return false;
        std::array<std::uint64_t, 4> per{};
        if (!c.u64Array(per))
            return false;
        s.stream[i].accesses = per[0];
        s.stream[i].hits = per[1];
        s.stream[i].misses = per[2];
        s.stream[i].bypasses = per[3];
    }
    if (!c.lit("],\"writebacks\":") || !c.u64(s.writebacks))
        return false;
    if (!c.lit(",\"evictions\":") || !c.u64(s.evictions))
        return false;

    Characterization &ch = cell.result.characterization;
    std::array<std::uint64_t, 4> chz{};
    if (!c.lit(",\"chz\":") || !c.u64Array(chz))
        return false;
    ch.interTexHits = chz[0];
    ch.intraTexHits = chz[1];
    ch.rtProductions = chz[2];
    ch.rtConsumptions = chz[3];
    if (!c.lit(",\"tex_epoch\":") || !c.u64Array(ch.texEpochHits))
        return false;
    if (!c.lit(",\"tex_reach\":") || !c.u64Array(ch.texReach))
        return false;
    if (!c.lit(",\"z_reach\":") || !c.u64Array(ch.zReach))
        return false;

    if (!c.lit(",\"fills\":["))
        return false;
    for (std::size_t p = 0; p < kNumPolicyStreams; ++p) {
        if (p > 0 && !c.lit(","))
            return false;
        if (!c.u64Array(cell.result.fills.counts[p]))
            return false;
    }
    return c.lit("]") && c.i == line.size();
}

Result<CheckpointContents>
loadCheckpoint(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Error::format(ErrorCode::Io,
                             "cannot open checkpoint \"%s\"",
                             path.c_str());

    CheckpointContents contents;
    std::string line;
    if (!std::getline(is, line)
        || !parseHeaderLine(line, contents.meta))
        return Error::format(
            ErrorCode::Corrupt,
            "checkpoint \"%s\" has no valid header line",
            path.c_str());

    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        SweepCell cell;
        if (!parseCheckpointCellLine(line, cell)) {
            // The torn tail of a killed run lands here; its work is
            // simply re-done.
            ++contents.skippedLines;
            continue;
        }
        const CellKey key = cell.key;
        contents.cells[key] = std::move(cell);
    }
    return contents;
}

CheckpointWriter::CheckpointWriter(const std::string &path,
                                   const CheckpointMeta &meta,
                                   bool append)
    : path_(path)
{
    bool write_header = true;
    if (append) {
        // Appending to a journal that already has content: the
        // header was validated by the resume load.  A kill during a
        // write can leave a torn final line; drop it (the load
        // skipped it anyway) so the next cell starts on a clean
        // line boundary instead of gluing onto the fragment.
        std::string bytes;
        {
            std::ifstream probe(path, std::ios::binary);
            std::ostringstream ss;
            ss << probe.rdbuf();
            bytes = ss.str();
        }
        if (!bytes.empty() && bytes.back() != '\n') {
            const std::size_t keep = bytes.rfind('\n') + 1;
            if (::truncate(path.c_str(),
                           static_cast<off_t>(keep)) != 0) {
                warn("cannot trim torn tail of checkpoint \"%s\"",
                     path.c_str());
            }
            bytes.resize(keep);
        }
        write_header = bytes.empty();
    }
    MutexLock lock(mutex_);
    file_ = std::fopen(path.c_str(), append ? "ab" : "wb");
    if (file_ == nullptr)
        fatal("cannot open checkpoint \"%s\" for writing",
              path.c_str());
    if (write_header) {
        const std::string header = headerLine(meta);
        std::fwrite(header.data(), 1, header.size(), file_);
        syncLocked();
    }
}

CheckpointWriter::~CheckpointWriter()
{
    MutexLock lock(mutex_);
    if (file_ == nullptr)
        return;
    syncLocked();
    std::fclose(file_);
}

void
CheckpointWriter::append(const SweepCell &cell)
{
    // Serialize the cell outside the lock; only the write below
    // needs to exclude concurrent appenders.
    const std::string line = checkpointCellLine(cell);
    MutexLock lock(mutex_);
    if (file_ == nullptr)
        return;
    if (std::fwrite(line.data(), 1, line.size(), file_)
        != line.size()) {
        warn("checkpoint write to \"%s\" failed; journal disabled "
             "for the rest of this run", path_.c_str());
        std::fclose(file_);
        file_ = nullptr;
        return;
    }
    if (++pendingLines_ >= kSyncBatch)
        syncLocked();
}

void
CheckpointWriter::sync()
{
    MutexLock lock(mutex_);
    syncLocked();
}

void
CheckpointWriter::syncLocked()
{
    if (file_ == nullptr)
        return;
    std::fflush(file_);
    // Stable storage, not just the page cache: a crash after this
    // point cannot lose the batch.
    ::fsync(::fileno(file_));
    pendingLines_ = 0;
}

} // namespace gllc
