/**
 * @file
 * Named registry of every evaluated LLC policy (Table 6 and more).
 *
 * Benchmarks and examples refer to policies by the names the paper
 * uses; a "+UCD" suffix selects the uncached-displayable-color
 * configuration of the same policy.
 */

#ifndef GLLC_ANALYSIS_POLICY_TABLE_HH
#define GLLC_ANALYSIS_POLICY_TABLE_HH

#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "common/result.hh"

namespace gllc
{

/** Everything needed to instantiate one evaluated policy. */
struct PolicySpec
{
    std::string name;

    /**
     * Machine-readable identity: the registry base name ("GSPZTC"
     * for "GSPZTC(t=4)+UCD") and the explicit threshold parameter
     * (0 when the name carries none), so harnesses never have to
     * parse the display name.
     */
    std::string baseName;
    unsigned threshold = 0;

    /** Creates one per-bank ReplacementPolicy instance. */
    PolicyFactory factory;

    /** Display stream bypasses the LLC (UCD). */
    bool uncachedDisplay = false;
};

/**
 * Look up a policy by name.  Recognized base names: NRU, LRU,
 * Random, SRRIP, DRRIP, DRRIP-4, GS-DRRIP, GS-DRRIP-4, SHiP-mem,
 * Belady, GSPZTC, GSPZTC+TSE, GSPC, and GSPZTC(t=N) for threshold
 * sweeps.  Any name may carry a "+UCD" suffix.  Unknown names are
 * fatal.
 */
PolicySpec policySpec(const std::string &name);

/**
 * Non-fatal lookup: InvalidArgument for unknown names.  The sweep
 * service validates client-submitted job specs through this so a bad
 * request is rejected instead of killing the daemon.
 */
[[nodiscard]] Result<PolicySpec>
tryPolicySpec(const std::string &name);

/** All registered base policy names (no UCD variants). */
std::vector<std::string> allPolicyNames();

/**
 * Every evaluated policy variant: each base name, its "+UCD"
 * configuration, and the GSPZTC(t=N) threshold-sweep points (with
 * and without UCD), as full PolicySpec values whose baseName /
 * threshold / uncachedDisplay metadata identify the variant.
 */
std::vector<PolicySpec> allPolicySpecs();

/** The threshold-sweep points enumerated by allPolicySpecs(). */
const std::vector<unsigned> &gspztcSweepThresholds();

} // namespace gllc

#endif // GLLC_ANALYSIS_POLICY_TABLE_HH
