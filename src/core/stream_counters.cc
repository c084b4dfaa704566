#include "core/stream_counters.hh"

#include "common/audit.hh"
#include "common/logging.hh"

namespace gllc
{

StreamReuseCounters::StreamReuseCounters(unsigned counter_bits,
                                         unsigned acc_bits)
    : fillZ_(counter_bits), hitZ_(counter_bits),
      fillTexAgg_(counter_bits), hitTexAgg_(counter_bits),
      fillTexE_{SatCounter(counter_bits), SatCounter(counter_bits)},
      hitTexE_{SatCounter(counter_bits), SatCounter(counter_bits)},
      prod_(counter_bits), cons_(counter_bits), acc_(acc_bits)
{
}

void
StreamReuseCounters::halveAll()
{
    // Close the sample window in the telemetry before decaying: the
    // recorded protection level is the one this window decided.
    ++windows_;
    ++windowRt_[static_cast<std::size_t>(rtProtection())];
    fillZ_.halve();
    hitZ_.halve();
    fillTexAgg_.halve();
    hitTexAgg_.halve();
    for (auto &c : fillTexE_)
        c.halve();
    for (auto &c : hitTexE_)
        c.halve();
    prod_.halve();
    cons_.halve();
}

template <typename Self, typename Fn>
void
StreamReuseCounters::forEachCounter(Self &self, Fn &&fn)
{
    fn("FILL_Z", self.fillZ_);
    fn("HIT_Z", self.hitZ_);
    fn("FILL_TEX", self.fillTexAgg_);
    fn("HIT_TEX", self.hitTexAgg_);
    fn("FILL_TEX_E0", self.fillTexE_[0]);
    fn("HIT_TEX_E0", self.hitTexE_[0]);
    fn("FILL_TEX_E1", self.fillTexE_[1]);
    fn("HIT_TEX_E1", self.hitTexE_[1]);
    fn("PROD", self.prod_);
    fn("CONS", self.cons_);
    fn("ACC", self.acc_);
}

void
StreamReuseCounters::auditInvariants(const char *component) const
{
    if (!auditActive())
        return;
    forEachCounter(*this, [component](const char *name,
                                      const SatCounter &c) {
        GLLC_AUDIT_CHECK(component, "counter-range", c.inRange(),
                         "counter %s holds %u > max %u", name,
                         c.value(), c.max());
    });
}

void
StreamReuseCounters::debugForceCounter(const std::string &name,
                                       std::uint32_t value)
{
    bool found = false;
    forEachCounter(*this, [&](const char *n, SatCounter &c) {
        if (name == n) {
            c.debugForceValue(value);
            found = true;
        }
    });
    GLLC_ASSERT_MSG(found, "unknown counter \"%s\"", name.c_str());
}

} // namespace gllc
