#include "analysis/checkpoint.hh"

#include <array>
#include <optional>

#include "analysis/sweep.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace gllc
{

namespace
{

template <typename Array>
void
appendU64Array(std::string &out, const Array &values)
{
    out += '[';
    bool first = true;
    for (const auto v : values) {
        if (!first)
            out += ',';
        out += std::to_string(static_cast<std::uint64_t>(v));
        first = false;
    }
    out += ']';
}

std::string
headerLine(const CheckpointMeta &meta)
{
    std::string line = "{\"gllc_checkpoint\":1,\"scale\":";
    line += std::to_string(meta.scaleLinear);
    line += ",\"llc_bytes\":";
    line += std::to_string(meta.llcBytes);
    line += ",\"llc_ways\":";
    line += std::to_string(meta.llcWays);
    line += ",\"llc_banks\":";
    line += std::to_string(meta.llcBanks);
    line += ",\"policies\":[";
    for (std::size_t i = 0; i < meta.policies.size(); ++i) {
        if (i)
            line += ',';
        line += '"';
        line += jsonEscape(meta.policies[i]);
        line += '"';
    }
    line += ']';
    if (!meta.characterize)
        line += ",\"characterize\":false";
    return sealJournalLine(std::move(line));
}

bool
parseHeaderLine(const std::string &line, CheckpointMeta &meta)
{
    JsonValue doc;
    if (!parseSealedLine(line, doc))
        return false;
    JsonLeaves v(doc);
    v.u64();  // the format version, checked by the re-emit
    meta.scaleLinear = static_cast<std::uint32_t>(v.u64());
    meta.llcBytes = v.u64();
    meta.llcWays = static_cast<std::uint32_t>(v.u64());
    meta.llcBanks = static_cast<std::uint32_t>(v.u64());
    meta.characterize = doc.find("characterize") == nullptr;
    meta.policies.clear();
    while (v.ok() && v.remaining() > (meta.characterize ? 0 : 1))
        meta.policies.push_back(v.str());
    return v.ok() && sameSealedLine(headerLine(meta), line);
}

} // namespace

std::string
checkpointCellLine(const SweepCell &cell)
{
    const LlcStats &s = cell.result.stats;

    std::string line = "{\"app\":\"";
    line += jsonEscape(cell.key.app);
    line += "\",\"frame\":";
    line += std::to_string(cell.key.frameIndex);
    line += ",\"policy\":\"";
    line += jsonEscape(cell.key.policy);
    line += "\",\"attempts\":";
    line += std::to_string(cell.attempts);
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
    line += std::to_string(s.writebacks);
    line += ",\"evictions\":";
    line += std::to_string(s.evictions);
    if (const std::optional<Characterization> &ch =
            cell.result.characterization) {
        line += ",\"chz\":";
        appendU64Array(line,
                       std::array<std::uint64_t, 4>{
                           ch->interTexHits, ch->intraTexHits,
                           ch->rtProductions, ch->rtConsumptions});
        line += ",\"tex_epoch\":";
        appendU64Array(line, ch->texEpochHits);
        line += ",\"tex_reach\":";
        appendU64Array(line, ch->texReach);
        line += ",\"z_reach\":";
        appendU64Array(line, ch->zReach);
    }
    line += ",\"fills\":[";
    for (std::size_t p = 0; p < kNumPolicyStreams; ++p) {
        if (p)
            line += ',';
        appendU64Array(line, cell.result.fills.counts[p]);
    }
    line += ']';
    return sealJournalLine(std::move(line));
}

bool
parseCheckpointCellLine(const std::string &line, bool characterized,
                        SweepCell &cell)
{
    JsonValue doc;
    if (!parseSealedLine(line, doc))
        return false;
    // The values in checkpointCellLine()'s order; the re-emit below
    // rejects a line of any other shape.
    JsonLeaves v(doc);
    cell.key.app = v.str();
    cell.key.frameIndex = static_cast<std::uint32_t>(v.u64());
    cell.key.policy = v.str();
    cell.attempts = static_cast<unsigned>(v.u64());
    LlcStats &s = cell.result.stats;
    for (LlcStats::PerStream &stream : s.stream) {
        stream.accesses = v.u64();
        stream.hits = v.u64();
        stream.misses = v.u64();
        stream.bypasses = v.u64();
    }
    s.writebacks = v.u64();
    s.evictions = v.u64();
    cell.result.characterization.reset();
    if (characterized) {
        Characterization &ch = cell.result.characterization.emplace();
        ch.interTexHits = v.u64();
        ch.intraTexHits = v.u64();
        ch.rtProductions = v.u64();
        ch.rtConsumptions = v.u64();
        for (auto *epochs : {&ch.texEpochHits, &ch.texReach, &ch.zReach})
            for (std::uint64_t &count : *epochs)
                count = v.u64();
    }
    for (auto &row : cell.result.fills.counts)
        for (std::uint64_t &count : row)
            count = v.u64();
    return v.ok() && sameSealedLine(checkpointCellLine(cell), line);
}

Result<CheckpointContents>
loadCheckpoint(const std::string &path)
{
    CheckpointContents contents;
    Result<std::size_t> skipped = loadSealed(
        path, "checkpoint",
        [&contents](const std::string &line) {
            return parseHeaderLine(line, contents.meta);
        },
        [&contents](const std::string &line) {
            SweepCell cell;
            if (!parseCheckpointCellLine(
                    line, contents.meta.characterize, cell))
                return false;
            const CellKey key = cell.key;
            contents.cells[key] = std::move(cell);
            return true;
        });
    if (!skipped.ok())
        return skipped.error();
    contents.skippedLines = skipped.value();
    return contents;
}

CheckpointWriter::CheckpointWriter(const std::string &path,
                                   const CheckpointMeta &meta,
                                   bool append)
    : characterize_(meta.characterize)
{
    if (Result<Unit> opened =
            journal_.open(path, append, headerLine(meta), kSyncBatch);
        !opened.ok())
        fatal("cannot open checkpoint for writing: %s",
              opened.error().toString().c_str());
}

void
CheckpointWriter::append(const SweepCell &cell)
{
    GLLC_ASSERT_MSG(cell.result.characterization.has_value()
                        == characterize_,
                    "cell %s does not have the journal's shape",
                    cell.key.toString().c_str());
    journal_.append(checkpointCellLine(cell));
}

void
CheckpointWriter::sync()
{
    journal_.sync();
}

} // namespace gllc
