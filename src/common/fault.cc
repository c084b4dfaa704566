#include "common/fault.hh"

#include <atomic>
#include <mutex>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace gllc
{

namespace
{

/** Per-site arming state; counters live outside so reconfiguration
 *  (tests) can reset them together. */
struct SiteConfig
{
    bool armed = false;
    double probability = 0.0;
    std::uint64_t seed = 1;
    std::uint64_t maxFires = 0;  ///< 0 = unlimited
};

struct SiteState
{
    SiteConfig config;
    std::atomic<std::uint64_t> drawn{0};
    std::atomic<std::uint64_t> fired{0};
};

SiteState g_sites[kNumFaultSites];
std::atomic<bool> g_any_armed{false};
std::once_flag g_env_once;

SiteState &
stateOf(FaultSite site)
{
    return g_sites[static_cast<std::size_t>(site)];
}

/** Parse a site name; fatal on an unknown one. */
FaultSite
siteFromName(const std::string &name)
{
    for (std::size_t i = 0; i < kNumFaultSites; ++i) {
        if (name == faultSiteName(static_cast<FaultSite>(i)))
            return static_cast<FaultSite>(i);
    }
    fatal("GLLC_FAULT: unknown injection site \"%s\"", name.c_str());
}

/** Apply one "site:p=...,seed=...,n=..." entry. */
void
applyEntry(const std::string &entry)
{
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos)
        fatal("GLLC_FAULT entry \"%s\" lacks a ':p=...' part",
              entry.c_str());

    SiteConfig config;
    config.armed = true;
    bool have_p = false;

    std::size_t pos = colon + 1;
    while (pos < entry.size()) {
        std::size_t comma = entry.find(',', pos);
        if (comma == std::string::npos)
            comma = entry.size();
        const std::string kv = entry.substr(pos, comma - pos);
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos)
            fatal("GLLC_FAULT: malformed option \"%s\" in \"%s\"",
                  kv.c_str(), entry.c_str());
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        char *end = nullptr;
        if (key == "p") {
            config.probability = std::strtod(val.c_str(), &end);
            if (end == val.c_str() || *end != '\0'
                || config.probability < 0.0
                || config.probability > 1.0)
                fatal("GLLC_FAULT: p=\"%s\" is not a probability",
                      val.c_str());
            have_p = true;
        } else if (key == "seed") {
            config.seed = std::strtoull(val.c_str(), &end, 0);
            if (end == val.c_str() || *end != '\0')
                fatal("GLLC_FAULT: seed=\"%s\" is not an integer",
                      val.c_str());
        } else if (key == "n") {
            config.maxFires = std::strtoull(val.c_str(), &end, 0);
            if (end == val.c_str() || *end != '\0')
                fatal("GLLC_FAULT: n=\"%s\" is not an integer",
                      val.c_str());
        } else {
            fatal("GLLC_FAULT: unknown option \"%s\" in \"%s\"",
                  key.c_str(), entry.c_str());
        }
        pos = comma + 1;
    }
    if (!have_p)
        fatal("GLLC_FAULT entry \"%s\" lacks p=<prob>", entry.c_str());

    SiteState &state = stateOf(siteFromName(entry.substr(0, colon)));
    state.config = config;
    state.drawn.store(0, std::memory_order_relaxed);
    state.fired.store(0, std::memory_order_relaxed);
}

/** Lazily pick up GLLC_FAULT before the first query. */
void
initFromEnv()
{
    std::call_once(g_env_once, [] {
        if (!g_any_armed.load(std::memory_order_relaxed)) {
            const std::string spec = envString("GLLC_FAULT", "");
            if (!spec.empty())
                configureFaults(spec);
        }
    });
}

/** Uniform [0,1) from hashed bits. */
double
unitFromBits(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** Per-site salt so sites with equal seeds draw unrelated streams. */
std::uint64_t
siteSalt(FaultSite site)
{
    return fnv1a64(faultSiteName(site));
}

/**
 * Consume one fire slot, honouring the n= cap without overshoot
 * under concurrency.
 */
bool
consumeFire(SiteState &state, FaultSite site)
{
    std::uint64_t fired = state.fired.load(std::memory_order_relaxed);
    const std::uint64_t cap = state.config.maxFires;
    do {
        if (cap != 0 && fired >= cap)
            return false;
    } while (!state.fired.compare_exchange_weak(
        fired, fired + 1, std::memory_order_relaxed));
    if (metricsActive())
        MetricsRegistry::instance().addCounter(
            std::string("fault.") + faultSiteName(site) + ".fired");
    return true;
}

/** Decide from pre-mixed bits; the caller counted the draw. */
bool
drawAt(FaultSite site, std::uint64_t mixed)
{
    SiteState &state = stateOf(site);
    if (unitFromBits(mixed) >= state.config.probability)
        return false;
    return consumeFire(state, site);
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::TraceBitflip:
        return "trace.bitflip";
      case FaultSite::TraceTruncate:
        return "trace.truncate";
      case FaultSite::CellThrow:
        return "cell.throw";
      case FaultSite::CellDelay:
        return "cell.delay";
      case FaultSite::SimAccess:
        return "sim.access";
      case FaultSite::DramSimulate:
        return "dram.simulate";
      case FaultSite::WorkerCrash:
        return "worker.crash";
      case FaultSite::ConnStall:
        return "conn.stall";
      case FaultSite::ConnDrop:
        return "conn.drop";
      case FaultSite::DaemonCrash:
        return "daemon.crash";
      case FaultSite::WorkerLinger:
        return "worker.linger";
      case FaultSite::kCount:
        break;
    }
    return "unknown";
}

bool
faultsActive()
{
    initFromEnv();
    return g_any_armed.load(std::memory_order_relaxed);
}

void
configureFaults(const std::string &spec)
{
    for (SiteState &state : g_sites) {
        state.config = SiteConfig{};
        state.drawn.store(0, std::memory_order_relaxed);
        state.fired.store(0, std::memory_order_relaxed);
    }
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t semi = spec.find(';', pos);
        if (semi == std::string::npos)
            semi = spec.size();
        const std::string entry = spec.substr(pos, semi - pos);
        if (!entry.empty())
            applyEntry(entry);
        pos = semi + 1;
    }
    bool any = false;
    for (const SiteState &state : g_sites)
        any |= state.config.armed;
    g_any_armed.store(any, std::memory_order_relaxed);
}

FaultInjectedError::FaultInjectedError(FaultSite site)
    : std::runtime_error(std::string("injected fault at site ")
                         + faultSiteName(site)),
      site_(site)
{
}

bool
faultFires(FaultSite site)
{
    if (!faultsActive())
        return false;
    SiteState &state = stateOf(site);
    if (!state.config.armed)
        return false;
    // The draw index keys the decision, so a serial run replays the
    // exact fire pattern from the seed.
    const std::uint64_t idx =
        state.drawn.fetch_add(1, std::memory_order_relaxed);
    return drawAt(site,
                  mix64(state.config.seed ^ siteSalt(site)
                        ^ (idx * 0x9e3779b97f4a7c15ULL)));
}

bool
faultFires(FaultSite site, std::uint64_t key)
{
    if (!faultsActive())
        return false;
    SiteState &state = stateOf(site);
    if (!state.config.armed)
        return false;
    state.drawn.fetch_add(1, std::memory_order_relaxed);
    return drawAt(site,
                  mix64(state.config.seed ^ siteSalt(site)
                        ^ mix64(key)));
}

std::uint64_t
faultPayload(FaultSite site)
{
    SiteState &state = stateOf(site);
    return mix64(state.config.seed ^ ~siteSalt(site)
                 ^ state.fired.load(std::memory_order_relaxed));
}

std::uint64_t
faultFired(FaultSite site)
{
    return stateOf(site).fired.load(std::memory_order_relaxed);
}

std::uint64_t
faultDrawn(FaultSite site)
{
    return stateOf(site).drawn.load(std::memory_order_relaxed);
}

void
throwInjectedFault(FaultSite site)
{
    throw FaultInjectedError(site);
}

} // namespace gllc
