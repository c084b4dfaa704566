/**
 * @file
 * Unit tests for the GPU memory allocator and page scattering.
 */

#include <gtest/gtest.h>

#include <set>

#include "workload/memmap.hh"

using namespace gllc;

TEST(GpuMemory, AllocationsArePageAlignedAndDisjoint)
{
    GpuMemory mem(1);
    const Addr a = mem.allocate(10000, "a");
    const Addr b = mem.allocate(5000, "b");
    EXPECT_EQ(a % kPageBytes, 0u);
    EXPECT_EQ(b % kPageBytes, 0u);
    // b starts beyond a's rounded-up extent.
    EXPECT_GE(b, a + 12288);
}

TEST(GpuMemory, TranslationPreservesPageOffset)
{
    GpuMemory mem(1);
    const Addr base = mem.allocate(kPageBytes * 4, "s");
    const Addr pa = mem.translate(base + 123);
    EXPECT_EQ(pa % kPageBytes, 123u);
}

TEST(GpuMemory, PhysicalPagesAreUnique)
{
    GpuMemory mem(7);
    const Addr base = mem.allocate(kPageBytes * 512, "s");
    std::set<Addr> phys;
    for (Addr p = 0; p < 512; ++p)
        phys.insert(mem.translate(base + p * kPageBytes));
    EXPECT_EQ(phys.size(), 512u);
}

TEST(GpuMemory, ScatterBreaksVirtualContiguity)
{
    GpuMemory mem(3, /*scatter=*/true);
    const Addr base = mem.allocate(kPageBytes * 256, "s");
    int contiguous = 0;
    for (Addr p = 0; p + 1 < 256; ++p) {
        const Addr pa0 = mem.translate(base + p * kPageBytes);
        const Addr pa1 = mem.translate(base + (p + 1) * kPageBytes);
        contiguous += (pa1 == pa0 + kPageBytes);
    }
    // Runs of 1-4 pages: the majority of page transitions jump.
    EXPECT_LT(contiguous, 220);
    EXPECT_GT(contiguous, 10);  // but runs do exist
}

TEST(GpuMemory, IdentityModeIsContiguous)
{
    GpuMemory mem(3, /*scatter=*/false);
    const Addr base = mem.allocate(kPageBytes * 64, "s");
    for (Addr p = 0; p + 1 < 64; ++p) {
        const Addr pa0 = mem.translate(base + p * kPageBytes);
        const Addr pa1 = mem.translate(base + (p + 1) * kPageBytes);
        EXPECT_EQ(pa1, pa0 + kPageBytes);
    }
}

TEST(GpuMemory, DeterministicBySeed)
{
    GpuMemory a(42), b(42);
    const Addr base_a = a.allocate(kPageBytes * 128, "s");
    const Addr base_b = b.allocate(kPageBytes * 128, "s");
    EXPECT_EQ(base_a, base_b);
    for (Addr p = 0; p < 128; ++p) {
        EXPECT_EQ(a.translate(base_a + p * kPageBytes),
                  b.translate(base_b + p * kPageBytes));
    }
}

TEST(GpuMemory, DifferentSeedsScatterDifferently)
{
    GpuMemory a(1), b(2);
    const Addr base_a = a.allocate(kPageBytes * 64, "s");
    const Addr base_b = b.allocate(kPageBytes * 64, "s");
    int same = 0;
    for (Addr p = 0; p < 64; ++p) {
        same += (a.translate(base_a + p * kPageBytes)
                 == b.translate(base_b + p * kPageBytes));
    }
    EXPECT_LT(same, 16);
}

TEST(GpuMemory, AllocatedBytesTracksPages)
{
    GpuMemory mem(1);
    mem.allocate(1, "tiny");
    EXPECT_EQ(mem.allocatedBytes(), kPageBytes);
    mem.allocate(kPageBytes + 1, "two");
    EXPECT_EQ(mem.allocatedBytes(), 3 * kPageBytes);
}

TEST(GpuMemory, LargeAllocationSpansArenas)
{
    // Arenas are 4 MB; allocate 10 MB and check all pages map.
    GpuMemory mem(5);
    const std::uint64_t pages = 2560;
    const Addr base = mem.allocate(pages * kPageBytes, "big");
    std::set<Addr> phys;
    for (Addr p = 0; p < pages; ++p)
        phys.insert(mem.translate(base + p * kPageBytes));
    EXPECT_EQ(phys.size(), pages);
}

TEST(GpuMemoryDeath, TranslateUnmappedIsFatal)
{
#ifdef GLLC_DISABLE_ASSERTS
    GTEST_SKIP() << "GLLC_ASSERT compiled out (-DGLLC_ASSERTS=OFF)";
#else
    GpuMemory mem(1);
    mem.allocate(kPageBytes, "one");
    EXPECT_DEATH(mem.translate(10 * kPageBytes), "unmapped");
#endif
}

TEST(GpuMemoryDeath, TranslatePastTheLastMappedPageIsFatal)
{
#ifdef GLLC_DISABLE_ASSERTS
    GTEST_SKIP() << "GLLC_ASSERT compiled out (-DGLLC_ASSERTS=OFF)";
#else
    // translate() is inline in every caller; the page-table bound
    // still holds at the first byte past the mapping, and with no
    // mapping at all.
    GpuMemory mem(1);
    const Addr base = mem.allocate(2 * kPageBytes, "two");
    EXPECT_NE(mem.translate(base + 2 * kPageBytes - 1), 0u);
    EXPECT_DEATH(mem.translate(base + 2 * kPageBytes), "unmapped");
    GpuMemory empty(1);
    EXPECT_DEATH(empty.translate(0), "unmapped");
#endif
}

TEST(GpuMemoryDeath, ZeroByteAllocationIsFatal)
{
#ifdef GLLC_DISABLE_ASSERTS
    GTEST_SKIP() << "GLLC_ASSERT compiled out (-DGLLC_ASSERTS=OFF)";
#else
    GpuMemory mem(1);
    EXPECT_DEATH(mem.allocate(0, "zero"), "");
#endif
}
