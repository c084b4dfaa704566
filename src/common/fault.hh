/**
 * @file
 * Deterministic fault-injection harness.
 *
 * Every degradation path the fault-tolerant sweep promises to
 * survive (corrupt trace bytes, throwing cells, slow cells, memory
 * system failures) must be testable on demand, so the library
 * carries its own chaos source: named injection sites that fire
 * pseudo-randomly but reproducibly from a seed.
 *
 * Activation: set
 *
 *   GLLC_FAULT=<site>:p=<prob>[,seed=<u64>][,n=<max-fires>][;<site>:...]
 *
 * e.g. GLLC_FAULT="trace.bitflip:p=0.001,seed=42;cell.throw:p=1,n=3"
 * arms the trace bit-flipper at one fire per ~1000 draws and makes
 * the first three sweep-cell attempts throw.  Sites:
 *
 *   trace.bitflip   flip one bit of a deserialized trace payload
 *                   (the section checksum must catch it)
 *   trace.truncate  make trace deserialization see early EOF
 *   cell.throw      throw out of a sweep (frame, policy) cell
 *   cell.delay      stall a sweep cell (exercises the watchdog)
 *   sim.access      throw out of the offline LLC replay loop
 *   dram.simulate   throw out of DramModel::Schedule::finish()
 *   worker.crash    hard-exit a gllcd sweep worker mid-cell (the
 *                   daemon must respawn and quarantine, never die)
 *   conn.stall      stall a gllcd connection thread before it
 *                   handles a frame (exercises IO deadlines)
 *   conn.drop       abruptly close a gllcd client connection
 *                   mid-conversation
 *   daemon.crash    hard-exit the gllcd daemon mid-job (recovery
 *                   via --recover must complete the job)
 *   worker.linger   make a gllcd sweep worker ignore stdin EOF
 *                   (the daemon's bounded reap must SIGKILL it)
 *
 * Determinism: each draw hashes (site seed, draw index) — or a
 * caller-provided key for the keyed overload, which the sweep uses
 * with (app, frame, policy, attempt) so the set of failing cells is
 * identical at any thread count.  `n=` caps total fires per site,
 * which makes retry-then-succeed paths deterministically testable.
 *
 * Injection sites are observation points, not new control flow: an
 * unarmed site costs one relaxed atomic bool load.  Fired counts
 * surface as fault.<site>.fired metrics when collection is active.
 */

#ifndef GLLC_COMMON_FAULT_HH
#define GLLC_COMMON_FAULT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace gllc
{

/** The named injection points. */
enum class FaultSite : std::uint8_t
{
    TraceBitflip,
    TraceTruncate,
    CellThrow,
    CellDelay,
    SimAccess,
    DramSimulate,
    WorkerCrash,
    ConnStall,
    ConnDrop,
    DaemonCrash,
    WorkerLinger,
    kCount
};

constexpr std::size_t kNumFaultSites =
    static_cast<std::size_t>(FaultSite::kCount);

/** Spec/metric name of a site ("trace.bitflip", ...). */
const char *faultSiteName(FaultSite site);

/** True when any injection site is armed (cheap hot-path gate). */
bool faultsActive();

/**
 * (Re)configure the injector from a spec string; "" disarms every
 * site.  fatal() on a malformed spec.  Overrides the GLLC_FAULT
 * environment configuration (tests call this directly).
 */
void configureFaults(const std::string &spec);

/** Thrown by sites that inject failures into exception boundaries. */
class FaultInjectedError : public std::runtime_error
{
  public:
    explicit FaultInjectedError(FaultSite site);
    FaultSite site() const { return site_; }

  private:
    FaultSite site_;
};

/**
 * One Bernoulli draw at @p site: true when the fault fires.  The
 * decision for the k-th draw is a pure function of (seed, k), so a
 * serial run reproduces exactly from the seed.
 */
bool faultFires(FaultSite site);

/**
 * Keyed draw: the decision is a pure function of (seed, key), so it
 * reproduces regardless of call order across threads.  Build @p key
 * by hashing the logical coordinates of the operation (the sweep
 * hashes app/frame/policy/attempt).
 */
bool faultFires(FaultSite site, std::uint64_t key);

/**
 * Deterministic auxiliary bits for a site that just fired (e.g. the
 * bit position trace.bitflip corrupts); a pure function of the
 * site's seed and fired count.
 */
std::uint64_t faultPayload(FaultSite site);

/** Total fires of @p site since configuration (telemetry, tests). */
std::uint64_t faultFired(FaultSite site);

/** Total draws at @p site since configuration. */
std::uint64_t faultDrawn(FaultSite site);

/** Throw FaultInjectedError for @p site. */
[[noreturn]] void throwInjectedFault(FaultSite site);

} // namespace gllc

#endif // GLLC_COMMON_FAULT_HH
