#include "core/gspc_family.hh"

#include <algorithm>

#include "cache/geometry.hh"
#include "common/audit.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace gllc
{

const char *
blockStateName(BlockState s)
{
    switch (s) {
      case BlockState::TexE0:
        return "E0";
      case BlockState::TexE1:
        return "E1";
      case BlockState::TexE2Plus:
        return "E>=2";
      case BlockState::RenderTarget:
        return "RT";
    }
    return "invalid";
}

bool
legalBlockTransition(BlockState from, BlockState to, PolicyStream stream,
                     bool is_fill)
{
    if (is_fill) {
        // Fills overwrite the previous occupant's state outright.
        return to == ((stream == PolicyStream::RenderTarget)
                          ? BlockState::RenderTarget
                          : BlockState::TexE0);
    }
    switch (stream) {
      case PolicyStream::Texture:
        switch (from) {
          case BlockState::RenderTarget:
            return to == BlockState::TexE0;  // RT->TEX consumption
          case BlockState::TexE0:
            return to == BlockState::TexE1;
          case BlockState::TexE1:
          case BlockState::TexE2Plus:
            return to == BlockState::TexE2Plus;  // E>=2 absorbs
        }
        return false;
      case PolicyStream::RenderTarget:
        return to == BlockState::RenderTarget;
      default:
        return to == from;  // Z/Rest hits leave the state alone
    }
}

void
auditBlockTransition(BlockState from, BlockState to, PolicyStream stream,
                     bool is_fill)
{
    if (!auditActive())
        return;
    GLLC_AUDIT_CHECK("GspcFamily", "epoch-fsm",
                     legalBlockTransition(from, to, stream, is_fill),
                     "illegal Figure-10 transition %s -> %s on %s %s",
                     blockStateName(from), blockStateName(to),
                     policyStreamName(stream).c_str(),
                     is_fill ? "fill" : "hit");
}

GspcFamilyPolicy::GspcFamilyPolicy(GspcVariant variant, std::uint32_t t)
    : GspcFamilyPolicy(variant, GspcParams{t, 8, 7, 6})
{
}

GspcFamilyPolicy::GspcFamilyPolicy(GspcVariant variant,
                                   const GspcParams &params)
    : variant_(variant), params_(params), t_(params.t), rrip_(2),
      counters_(params.counterBits, params.accBits),
      metrics_(metricsActive())
{
    GLLC_ASSERT(params.t >= 1);
    GLLC_ASSERT(params.sampleLog2 >= 2 && params.sampleLog2 <= 10);
}

void
GspcFamilyPolicy::configure(std::uint32_t sets, std::uint32_t ways)
{
    ways_ = ways;
    rrip_.configure(sets, ways);
    state_.assign(static_cast<std::size_t>(sets) * ways,
                  BlockState::TexE0);

    if (auditActive()) {
        // Sample-set invariant (Table 2): the predicate must select
        // exactly one set per 2^sampleLog2-set constituency, and be
        // stable (it is a pure function of the set index, so one
        // recount both checks the density and pins the membership).
        std::uint32_t samples = 0;
        for (std::uint32_t s = 0; s < sets; ++s) {
            if (isSampleSetAt(s, params_.sampleLog2))
                ++samples;
        }
        const std::uint32_t expected =
            std::max<std::uint32_t>(1, sets >> params_.sampleLog2);
        GLLC_AUDIT_CHECK("GspcFamily", "sample-density",
                         samples == expected,
                         "%u sample sets in %u sets, expected %u "
                         "(log2 density %u)",
                         samples, sets, expected, params_.sampleLog2);
    }
}

void
GspcFamilyPolicy::auditInvariants(std::uint32_t set) const
{
    if (!auditActive())
        return;
    rrip_.auditSet(set, "GspcFamily");
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const auto raw = static_cast<std::uint8_t>(state_[base + w]);
        GLLC_AUDIT_CHECK("GspcFamily", "block-state", raw <= 0b11,
                         "set %u way %u holds state byte 0x%02x "
                         "outside the 2-bit Figure-10 encoding",
                         set, w, raw);
    }
    counters_.auditInvariants("GspcFamily");
}

const FillHistogram *
GspcFamilyPolicy::fillHistogram() const
{
    return &rrip_.histogram();
}

void
GspcFamilyPolicy::flushMetrics(const std::string &prefix) const
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    const std::string p = prefix + "gspc.";

    static const char *const kStateKeys[4] = {"E0", "E1", "E2plus",
                                              "RT"};
    for (std::size_t s = 0; s < stateHits_.size(); ++s) {
        if (stateHits_[s] > 0)
            reg.addCounter(p + "state_hits." + kStateKeys[s],
                           stateHits_[s]);
    }

    static const char *const kProtKeys[3] = {"distant",
                                             "intermediate",
                                             "protect"};
    for (std::size_t l = 0; l < rtProtFills_.size(); ++l) {
        if (rtProtFills_[l] > 0)
            reg.addCounter(p + "rt_protection." + kProtKeys[l],
                           rtProtFills_[l]);
    }

    if (texInsertProtect_ > 0)
        reg.addCounter(p + "tex_insert.protect", texInsertProtect_);
    if (texInsertDistant_ > 0)
        reg.addCounter(p + "tex_insert.distant", texInsertDistant_);
    if (rtConsume_ > 0)
        reg.addCounter(p + "rt_consume", rtConsume_);

    // Figure-10 occupancy at end of replay: how the bank's blocks
    // were distributed over the epoch FSM when the frame finished.
    std::array<std::uint64_t, 4> occupancy{};
    for (const BlockState s : state_)
        ++occupancy[static_cast<std::size_t>(s) & 3u];
    for (std::size_t s = 0; s < occupancy.size(); ++s) {
        if (occupancy[s] > 0)
            reg.recordValue(p + "state_final",
                            static_cast<std::int64_t>(s),
                            occupancy[s]);
    }

    // PROD/CONS protection level per completed sample window, plus
    // the counters' final resting values.
    if (counters_.windows() > 0)
        reg.addCounter(p + "sample_windows", counters_.windows());
    for (std::size_t l = 0; l < 3; ++l) {
        const std::uint64_t n =
            counters_.windowsAt(static_cast<RtProtection>(l));
        if (n > 0)
            reg.recordValue(p + "window_rt_protection",
                            static_cast<std::int64_t>(l), n);
    }
    reg.recordValue(p + "prod_final",
                    static_cast<std::int64_t>(counters_.prod()));
    reg.recordValue(p + "cons_final",
                    static_cast<std::int64_t>(counters_.cons()));
}

std::string
GspcFamilyPolicy::name() const
{
    std::string base;
    switch (variant_) {
      case GspcVariant::Gspztc:
        base = "GSPZTC";
        break;
      case GspcVariant::GspztcTse:
        base = "GSPZTC+TSE";
        break;
      case GspcVariant::Gspc:
        base = "GSPC";
        break;
    }
    if (params_.bypassDeadFills)
        base += "+B";
    return base;
}

PolicyFactory
GspcFamilyPolicy::factory(GspcVariant variant, std::uint32_t t)
{
    return [variant, t] {
        return std::make_unique<GspcFamilyPolicy>(variant, t);
    };
}

PolicyFactory
GspcFamilyPolicy::factory(GspcVariant variant, const GspcParams &params)
{
    return [variant, params] {
        return std::make_unique<GspcFamilyPolicy>(variant, params);
    };
}

} // namespace gllc
