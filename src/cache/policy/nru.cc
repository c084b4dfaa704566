#include "cache/policy/nru.hh"

namespace gllc
{

void
NruPolicy::configure(std::uint32_t sets, std::uint32_t ways)
{
    ways_ = ways;
    referenced_.assign(
        static_cast<std::size_t>(sets) * ways + kByteScanSlack, 0);
}

PolicyFactory
NruPolicy::factory()
{
    return [] { return std::make_unique<NruPolicy>(); };
}

} // namespace gllc
