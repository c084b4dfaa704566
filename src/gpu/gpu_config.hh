/**
 * @file
 * GPU machine configuration (Section 4).
 *
 * Baseline: 96 shader cores x 8 thread contexts @ 1.6 GHz (two
 * 4-wide SIMD pipes per core => 16 single-precision ops per core per
 * cycle, ~2.5 TFLOPS aggregate), twelve samplers @ 4 texels/cycle
 * (76.8 GTexels/s), 8 MB 16-way 4-bank LLC @ 4 GHz with a 20-cycle
 * load-to-use, dual-channel DDR3-1600 15-15-15.
 *
 * The Figure 17 sensitivity configurations are provided as named
 * constructors.
 */

#ifndef GLLC_GPU_GPU_CONFIG_HH
#define GLLC_GPU_GPU_CONFIG_HH

#include <cstdint>

#include "dram/dram_model.hh"
#include "rcache/render_caches.hh"

namespace gllc
{

struct GpuConfig
{
    /// @name Shader complex
    /// @{
    std::uint32_t shaderCores = 96;
    std::uint32_t threadsPerCore = 8;
    double coreClockGhz = 1.6;
    /** Peak single-precision ops per core per cycle. */
    std::uint32_t opsPerCoreCycle = 16;

    /**
     * Sustained fraction of peak ALU throughput.  Real shader cores
     * lose issue slots to dependencies, register-file conflicts and
     * fixed-function handshakes; 3D workloads typically sustain a
     * small fraction of peak FLOPS.
     */
    double shaderEfficiency = 0.13;

    /**
     * Fraction of the memory-schedule overhang (DRAM time beyond
     * the compute bound) that thread switching fails to hide.
     */
    double hidingBeta = 0.6;
    /// @}

    /// @name Texture samplers
    /// @{
    std::uint32_t samplers = 12;
    std::uint32_t texelsPerSamplerCycle = 4;
    /// @}

    /// @name LLC
    /// @{
    std::uint64_t llcCapacityBytes = 8ull << 20;
    std::uint32_t llcWays = 16;
    std::uint32_t llcBanks = 4;
    double llcClockGhz = 4.0;
    std::uint32_t llcLatencyLlcCycles = 20;
    /// @}

    DramConfig dram = DramConfig::ddr3_1600();
    RenderCacheConfig renderCaches;

    /// @name Display scan-out (extension; 0 disables)
    /// @{
    /**
     * Refresh rate of the display engine.  When nonzero, the
     * scan-out of the front buffer is modelled as a constant DRAM
     * read load competing with rendering for memory bandwidth (the
     * paper's simulator does not model it; see bench/ext_scanout).
     */
    double scanoutHz = 0.0;

    /** Front-buffer size scanned per refresh, in bytes. */
    std::uint64_t scanoutBytes = 0;
    /// @}

    /** True when the display engine's scan-out is modelled. */
    bool scanoutEnabled() const
    {
        return scanoutHz > 0.0 && scanoutBytes > 0;
    }

    std::uint32_t totalThreads() const
    {
        return shaderCores * threadsPerCore;
    }

    /** The Section 4 baseline machine. */
    static GpuConfig baseline();

    /** Baseline with a 16 MB LLC (Figure 16). */
    static GpuConfig baseline16M();

    /** Baseline with DDR3-1867 10-10-10 (Figure 17 upper). */
    static GpuConfig fastDram();

    /** 64 cores / 512 threads / 8 samplers (Figure 17 lower). */
    static GpuConfig lessAggressive();
};

} // namespace gllc

#endif // GLLC_GPU_GPU_CONFIG_HH
