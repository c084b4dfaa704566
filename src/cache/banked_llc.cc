#include "cache/banked_llc.hh"

#include "common/audit.hh"
#include "common/decision_log.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace gllc
{

std::uint64_t
LlcStats::totalAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &s : stream)
        n += s.accesses;
    return n;
}

std::uint64_t
LlcStats::totalHits() const
{
    std::uint64_t n = 0;
    for (const auto &s : stream)
        n += s.hits;
    return n;
}

std::uint64_t
LlcStats::totalMisses() const
{
    std::uint64_t n = 0;
    for (const auto &s : stream)
        n += s.misses + s.bypasses;
    return n;
}

double
LlcStats::hitRate(StreamType s) const
{
    const PerStream &ps = of(s);
    return (ps.accesses == 0)
        ? 0.0
        : static_cast<double>(ps.hits) / static_cast<double>(ps.accesses);
}

void
LlcStats::merge(const LlcStats &other)
{
    for (std::size_t i = 0; i < stream.size(); ++i) {
        stream[i].accesses += other.stream[i].accesses;
        stream[i].hits += other.stream[i].hits;
        stream[i].misses += other.stream[i].misses;
        stream[i].bypasses += other.stream[i].bypasses;
    }
    writebacks += other.writebacks;
    evictions += other.evictions;
}

BankedLlc::BankedLlc(const LlcConfig &config, const PolicyFactory &factory)
    : geom_(config.capacityBytes, config.ways, config.banks),
      config_(config),
      stride_((geom_.ways() + 15) & ~15u),
      logDecisions_(DecisionLog::active()),
      checked_(logDecisions_ || auditActive())
{
    // The access path never re-reads environment state: the
    // decision-log depth is synced here, once, and logDecisions_ /
    // checked_ / policyMayBypass are sampled into plain bools.
    if (logDecisions_)
        DecisionLog::local().syncDepth();
    const std::size_t slots =
        static_cast<std::size_t>(geom_.setsPerBank()) * stride_;
    banks_.resize(geom_.banks());
    for (auto &bank : banks_) {
        bank.tags.assign(slots, kInvalidTag);
        bank.lowTags.assign(slots, static_cast<std::uint32_t>(kInvalidTag));
        bank.dirty.assign(slots, 0);
        bank.policy = factory();
        GLLC_ASSERT(bank.policy != nullptr);
        bank.policy->configure(geom_.setsPerBank(), geom_.ways());
        bank.policyMayBypass = bank.policy->mayBypass();
    }
}

bool
BankedLlc::isResident(Addr addr) const
{
    const CacheGeometry::Placement where = geom_.placementOf(addr);
    return probe(banks_[where.bank],
                 static_cast<std::size_t>(where.set) * stride_, where.tag)
        < geom_.ways();
}

void
BankedLlc::beginChecked(const MemAccess &access, std::uint64_t index,
                        std::uint32_t way) const
{
    if (!auditActive())
        return;
    const CacheGeometry::Placement where = geom_.placementOf(access.addr);
    AuditContext &ctx = auditContext();
    ctx.stream = streamName(access.stream);
    ctx.accessIndex = static_cast<std::int64_t>(index);
    ctx.bank = where.bank;
    ctx.set = where.set;
    ctx.way = (way < geom_.ways()) ? way : -1;
}

void
BankedLlc::endChecked(const MemAccess &access, std::uint64_t index,
                      std::uint32_t way, LlcAccessResult result) const
{
    const CacheGeometry::Placement where = geom_.placementOf(access.addr);
    if (logDecisions_) {
        LlcDecision decision;
        decision.index = index;
        decision.addr = access.addr;
        decision.stream = streamName(access.stream).c_str();
        decision.bank = where.bank;
        decision.set = where.set;
        decision.isWrite = access.isWrite;
        if (result.bypassed) {
            decision.outcome = DecisionOutcome::Bypass;
        } else {
            const ReplacementPolicy &policy = *banks_[where.bank].policy;
            decision.way = static_cast<std::int32_t>(way);
            decision.outcome = result.hit ? DecisionOutcome::Hit
                                          : DecisionOutcome::Fill;
            decision.rrpv = policy.decisionRrpv(where.set, way);
            decision.state = policy.decisionState(where.set, way);
        }
        DecisionLog::local().record(decision);
    }
    if (auditActive()) {
        if (!result.bypassed)
            auditContext().way = way;
        auditSet(where.bank, where.set);
    }
}

void
BankedLlc::auditSet(std::uint32_t bank_id, std::uint32_t set) const
{
    if (!auditActive())
        return;
    const Bank &bank = banks_[bank_id];
    const std::size_t row = static_cast<std::size_t>(set) * stride_;
    for (std::uint32_t w = 0; w < stride_; ++w) {
        const Addr tag = bank.tags[row + w];
        const std::uint32_t low_tag = bank.lowTags[row + w];
        GLLC_AUDIT_CHECK("BankedLlc", "low-tag",
                         low_tag == static_cast<std::uint32_t>(tag)
                             && (w < geom_.ways() || tag == kInvalidTag),
                         "set %u %s %u holds tag 0x%llx with low tag "
                         "0x%x",
                         set, w < geom_.ways() ? "way" : "padding lane",
                         w, static_cast<unsigned long long>(tag),
                         low_tag);
        if (tag == kInvalidTag)
            continue;
        const Addr addr = tag << kBlockShift;
        GLLC_AUDIT_CHECK("BankedLlc", "tag-geometry",
                         geom_.bankOf(addr) == bank_id
                             && geom_.setOf(addr) == set,
                         "resident tag 0x%llx maps to bank %u set %u, "
                         "not bank %u set %u",
                         static_cast<unsigned long long>(tag),
                         geom_.bankOf(addr), geom_.setOf(addr),
                         bank_id, set);
        for (std::uint32_t o = w + 1; o < geom_.ways(); ++o) {
            const Addr other = bank.tags[row + o];
            GLLC_AUDIT_CHECK("BankedLlc", "duplicate-tag",
                             other == kInvalidTag || other != tag,
                             "tag 0x%llx resident in ways %u and %u "
                             "of set %u",
                             static_cast<unsigned long long>(tag),
                             w, o, set);
        }
    }
    bank.policy->auditInvariants(set);
}

void
BankedLlc::auditAll() const
{
    if (!auditActive())
        return;
    for (std::uint32_t b = 0; b < geom_.banks(); ++b)
        for (std::uint32_t s = 0; s < geom_.setsPerBank(); ++s)
            auditSet(b, s);
}

void
BankedLlc::debugCorruptEntry(std::uint32_t bank_id, std::uint32_t set,
                             std::uint32_t way, Addr tag, bool valid)
{
    GLLC_ASSERT(bank_id < banks_.size());
    GLLC_ASSERT(set < geom_.setsPerBank() && way < geom_.ways());
    Bank &bank = banks_[bank_id];
    const std::size_t idx = static_cast<std::size_t>(set) * stride_ + way;
    // Both rows, so only the injected corruption (not a stale low
    // tag) trips the audit.
    bank.tags[idx] = valid ? tag : kInvalidTag;
    bank.lowTags[idx] = static_cast<std::uint32_t>(bank.tags[idx]);
}

void
BankedLlc::debugCorruptLowTag(std::uint32_t bank_id, std::uint32_t set,
                              std::uint32_t way, std::uint32_t low_tag)
{
    GLLC_ASSERT(bank_id < banks_.size());
    GLLC_ASSERT(set < geom_.setsPerBank() && way < stride_);
    banks_[bank_id]
        .lowTags[static_cast<std::size_t>(set) * stride_ + way] = low_tag;
}

FillHistogram
BankedLlc::mergedFillHistogram() const
{
    FillHistogram merged;
    for (const auto &bank : banks_) {
        const FillHistogram *h = bank.policy->fillHistogram();
        if (h != nullptr)
            merged.merge(*h);
    }
    return merged;
}

ReplacementPolicy &
BankedLlc::bankPolicy(std::uint32_t bank)
{
    GLLC_ASSERT(bank < banks_.size());
    return *banks_[bank].policy;
}

const LlcStats &
BankedLlc::bankStats(std::uint32_t bank) const
{
    GLLC_ASSERT(bank < banks_.size());
    return banks_[bank].stats;
}

LlcStats
BankedLlc::stats() const
{
    LlcStats merged;
    for (const auto &bank : banks_)
        merged.merge(bank.stats);
    return merged;
}

namespace
{

/** Publish one LlcStats block; zero-valued names are skipped. */
void
flushLlcStats(MetricsRegistry &reg, const std::string &prefix,
              const LlcStats &stats)
{
    for (std::size_t i = 0; i < kNumStreams; ++i) {
        const LlcStats::PerStream &s = stats.stream[i];
        if (s.accesses == 0)
            continue;
        const std::string base =
            prefix + "stream."
            + streamName(static_cast<StreamType>(i)) + ".";
        reg.addCounter(base + "accesses", s.accesses);
        if (s.hits > 0)
            reg.addCounter(base + "hits", s.hits);
        if (s.misses > 0)
            reg.addCounter(base + "misses", s.misses);
        if (s.bypasses > 0)
            reg.addCounter(base + "bypasses", s.bypasses);
    }
    if (stats.writebacks > 0)
        reg.addCounter(prefix + "writebacks", stats.writebacks);
    if (stats.evictions > 0)
        reg.addCounter(prefix + "evictions", stats.evictions);
}

/** Publish one insertion-RRPV histogram under prefix + "fill_rrpv.". */
void
flushFillHistogram(MetricsRegistry &reg, const std::string &prefix,
                   const FillHistogram &h)
{
    for (std::size_t s = 0; s < kNumPolicyStreams; ++s) {
        const std::string name =
            prefix + "fill_rrpv."
            + policyStreamName(static_cast<PolicyStream>(s));
        for (unsigned r = 0; r < FillHistogram::kMaxRrpv; ++r) {
            const std::uint64_t n =
                h.fillsAt(static_cast<PolicyStream>(s), r);
            if (n > 0)
                reg.recordValue(name, static_cast<std::int64_t>(r),
                                n);
        }
    }
}

} // namespace

void
BankedLlc::flushMetrics(const std::string &prefix) const
{
    if (!metricsActive())
        return;
    MetricsRegistry &reg = MetricsRegistry::instance();

    flushLlcStats(reg, prefix, stats());
    flushFillHistogram(reg, prefix, mergedFillHistogram());

    for (std::uint32_t b = 0; b < geom_.banks(); ++b) {
        const Bank &bank = banks_[b];
        const std::string bank_prefix =
            prefix + "bank" + std::to_string(b) + ".";
        flushLlcStats(reg, bank_prefix, bank.stats);
        const FillHistogram *h = bank.policy->fillHistogram();
        if (h != nullptr)
            flushFillHistogram(reg, bank_prefix, *h);
        bank.policy->flushMetrics(bank_prefix);
    }
}

} // namespace gllc
