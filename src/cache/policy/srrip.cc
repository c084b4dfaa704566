#include "cache/policy/srrip.hh"

namespace gllc
{

SrripPolicy::SrripPolicy(unsigned bits)
    : bits_(bits), rrip_(bits)
{
}

void
SrripPolicy::configure(std::uint32_t sets, std::uint32_t ways)
{
    rrip_.configure(sets, ways);
}

const FillHistogram *
SrripPolicy::fillHistogram() const
{
    return &rrip_.histogram();
}

std::string
SrripPolicy::name() const
{
    return "SRRIP-" + std::to_string(bits_);
}

PolicyFactory
SrripPolicy::factory(unsigned bits)
{
    return [bits] { return std::make_unique<SrripPolicy>(bits); };
}

} // namespace gllc
