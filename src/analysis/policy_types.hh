/**
 * @file
 * The concrete replacement-policy classes, as one type list, and the
 * dispatch from a built BankedLlc to the access path instantiated on
 * its policy's class.
 *
 * Replay calls BankedLlc::access<Policy>() with the final class the
 * banks hold, so every policy hook binds statically and the hook
 * bodies in the policy headers inline.  A class missing from the list
 * (a test fake, say) still replays correctly through the
 * ReplacementPolicy instantiation, with virtual hooks; the coverage
 * test keeps every registry entry off that path.
 */

#ifndef GLLC_ANALYSIS_POLICY_TYPES_HH
#define GLLC_ANALYSIS_POLICY_TYPES_HH

#include <type_traits>
#include <utility>

#include "cache/banked_llc.hh"
#include "cache/policy/belady.hh"
#include "cache/policy/dip.hh"
#include "cache/policy/drrip.hh"
#include "cache/policy/gs_drrip.hh"
#include "cache/policy/lru.hh"
#include "cache/policy/nru.hh"
#include "cache/policy/pelifo.hh"
#include "cache/policy/random.hh"
#include "cache/policy/ship_mem.hh"
#include "cache/policy/srrip.hh"
#include "cache/policy/ucp_stream.hh"
#include "core/gspc_family.hh"

namespace gllc
{

/** A list of policy classes. */
template <typename... Policies>
struct PolicyTypeList
{
    static_assert((std::is_final_v<Policies> && ...),
                  "every listed policy class must be final");
    static_assert((std::is_base_of_v<ReplacementPolicy, Policies>
                   && ...));
};

/** Every ReplacementPolicy subclass in src/. */
using ConcretePolicies = PolicyTypeList<
    NruPolicy, LruPolicy, RandomPolicy, SrripPolicy, DrripPolicy,
    GsDrripPolicy, ShipMemPolicy, DipPolicy, UcpStreamPolicy,
    PeLifoPolicy, BeladyPolicy, GspcFamilyPolicy>;

/**
 * Call @p fn(std::type_identity<P>{}) once, with P the class in
 * @p list that every bank of @p llc holds, or ReplacementPolicy when
 * no listed class matches.
 */
template <typename... Policies, typename Fn>
void
withPolicyClass(PolicyTypeList<Policies...>, const BankedLlc &llc,
                Fn &&fn)
{
    const bool listed =
        ((llc.policiesAre<Policies>()
          && (fn(std::type_identity<Policies>{}), true))
         || ...);
    if (!listed)
        fn(std::type_identity<ReplacementPolicy>{});
}

/** withPolicyClass() over ConcretePolicies. */
template <typename Fn>
void
withPolicyClass(const BankedLlc &llc, Fn &&fn)
{
    withPolicyClass(ConcretePolicies{}, llc, std::forward<Fn>(fn));
}

} // namespace gllc

#endif // GLLC_ANALYSIS_POLICY_TYPES_HH
