#include "analysis/report.hh"

#include <optional>
#include <ostream>

namespace gllc
{

namespace
{

/** Quote a CSV field that may hold commas or quotes (errors). */
std::string
csvQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

/** Registry names are plain ASCII, but stay valid JSON regardless. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

void
writeSweepCsv(const SweepResult &result, std::ostream &os)
{
    os << "app,frame,policy,status,attempts,accesses,hits,misses,"
       << "writebacks,tex_hit_rate,rt_hit_rate,z_hit_rate,"
       << "rt_productions,rt_consumptions,"
       << "inter_tex_hits,intra_tex_hits,error\n";
    for (const SweepCell &cell : result.cells()) {
        const LlcStats &s = cell.result.stats;
        os << cell.key.app << ',' << cell.key.frameIndex << ','
           << cell.key.policy
           << ",ok," << cell.attempts << ',' << s.totalAccesses()
           << ',' << s.totalHits() << ',' << s.totalMisses() << ','
           << s.writebacks << ',' << s.hitRate(StreamType::Texture)
           << ',' << s.hitRate(StreamType::RenderTarget) << ','
           << s.hitRate(StreamType::Z) << ',';
        // An uncharacterized cell leaves its columns empty, not 0.
        if (const std::optional<Characterization> &ch =
                cell.result.characterization)
            os << ch->rtProductions << ',' << ch->rtConsumptions << ','
               << ch->interTexHits << ',' << ch->intraTexHits;
        else
            os << ",,,";
        os << ",\n";
    }
    // Quarantined cells ride in the same table (a downstream
    // join on app/frame/policy must see the hole, not infer it):
    // stats columns stay empty, the error says why.
    for (const QuarantinedCell &q : result.quarantined()) {
        os << q.key.app << ',' << q.key.frameIndex << ','
           << q.key.policy
           << ",quarantined," << q.attempts << ",,,,,,,,,,,,"
           << csvQuote(q.error) << '\n';
    }
}

void
writeSweepJson(const SweepResult &result, std::ostream &os)
{
    const LlcConfig &llc = result.llcConfig();
    os << "{\n"
       << "  \"scale\": " << result.scale().linear << ",\n"
       << "  \"llc\": {\"capacity_bytes\": " << llc.capacityBytes
       << ", \"ways\": " << llc.ways << ", \"banks\": " << llc.banks
       << "},\n"
       << "  \"policies\": [";
    for (std::size_t i = 0; i < result.policies().size(); ++i) {
        os << (i ? ", " : "") << '"'
           << jsonEscape(result.policies()[i]) << '"';
    }
    os << "],\n  \"cells\": [\n";
    for (std::size_t i = 0; i < result.cells().size(); ++i) {
        const SweepCell &cell = result.cells()[i];
        const LlcStats &s = cell.result.stats;
        os << "    {\"app\": \"" << jsonEscape(cell.key.app)
           << "\", \"frame\": " << cell.key.frameIndex
           << ", \"policy\": \"" << jsonEscape(cell.key.policy)
           << "\", \"accesses\": " << s.totalAccesses()
           << ", \"hits\": " << s.totalHits()
           << ", \"misses\": " << s.totalMisses()
           << ", \"writebacks\": " << s.writebacks
           << ", \"tex_hit_rate\": " << s.hitRate(StreamType::Texture)
           << ", \"rt_hit_rate\": "
           << s.hitRate(StreamType::RenderTarget)
           << ", \"z_hit_rate\": " << s.hitRate(StreamType::Z);
        // An uncharacterized cell has no characterization keys.
        if (const std::optional<Characterization> &ch =
                cell.result.characterization)
            os << ", \"rt_productions\": " << ch->rtProductions
               << ", \"rt_consumptions\": " << ch->rtConsumptions
               << ", \"inter_tex_hits\": " << ch->interTexHits
               << ", \"intra_tex_hits\": " << ch->intraTexHits;
        os << ", \"attempts\": " << cell.attempts << "}"
           << (i + 1 < result.cells().size() ? "," : "") << '\n';
    }
    os << "  ],\n  \"quarantined\": [";
    for (std::size_t i = 0; i < result.quarantined().size(); ++i) {
        const QuarantinedCell &q = result.quarantined()[i];
        os << (i ? ",\n    " : "\n    ") << "{\"app\": \""
           << jsonEscape(q.key.app)
           << "\", \"frame\": " << q.key.frameIndex
           << ", \"policy\": \"" << jsonEscape(q.key.policy)
           << "\", \"attempts\": " << q.attempts
           << ", \"error\": \"" << jsonEscape(q.error) << "\"}";
    }
    os << (result.quarantined().empty() ? "]\n}\n" : "\n  ]\n}\n");
}

void
SweepResult::writeCsv(std::ostream &os) const
{
    writeSweepCsv(*this, os);
}

void
SweepResult::writeJson(std::ostream &os) const
{
    writeSweepJson(*this, os);
}

} // namespace gllc
