/**
 * @file
 * GPU memory allocator with driver-style page scattering.
 *
 * Surfaces are allocated in a flat virtual space and mapped to
 * physical 4 KB pages.  Real drivers allocate physical memory in
 * small runs over time, so physically contiguous 16 KB regions
 * frequently hold pages of different surfaces (and hence different
 * streams).  Section 5.1 of the paper relies on exactly this to
 * explain why SHiP-mem's 16 KB region signatures cannot separate the
 * streams; the allocator reproduces it by handing out physical pages
 * in shuffled runs of 1-4 pages.
 */

#ifndef GLLC_WORKLOAD_MEMMAP_HH
#define GLLC_WORKLOAD_MEMMAP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace gllc
{

constexpr std::uint32_t kPageBytes = 4096;
constexpr std::uint32_t kPageShift = 12;

/** Virtual-to-physical GPU memory map for one frame's surfaces. */
class GpuMemory
{
  public:
    /**
     * @param seed randomizes the physical page layout
     * @param scatter false gives an identity mapping (tests,
     *        ablations of the SHiP-mem fragmentation effect)
     */
    explicit GpuMemory(std::uint64_t seed, bool scatter = true);

    /**
     * Allocate a page-aligned virtual range.
     * @return the virtual base address
     */
    Addr allocate(std::uint64_t bytes, const std::string &label);

    /** Translate a virtual address to its physical address. */
    Addr
    translate(Addr vaddr) const
    {
        const std::uint64_t vpage = vaddr >> kPageShift;
        GLLC_ASSERT_MSG(vpage < pageTable_.size(),
                        "unmapped virtual address %llx",
                        static_cast<unsigned long long>(vaddr));
        return (pageTable_[vpage] << kPageShift)
            | (vaddr & (kPageBytes - 1));
    }

    /** Total bytes allocated so far. */
    std::uint64_t allocatedBytes() const { return nextPage_ * kPageBytes; }

  private:
    /** Refill the physical free list with one shuffled arena. */
    void refill();

    bool scatter_;
    Rng rng_;
    std::uint64_t nextPage_ = 0;      ///< next virtual page
    std::uint64_t nextPhysPage_ = 0;  ///< next unscattered phys page
    std::vector<std::uint64_t> pageTable_;
    std::vector<std::uint64_t> freePhys_;
};

} // namespace gllc

#endif // GLLC_WORKLOAD_MEMMAP_HH
