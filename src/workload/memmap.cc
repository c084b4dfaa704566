#include "workload/memmap.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gllc
{

GpuMemory::GpuMemory(std::uint64_t seed, bool scatter)
    : scatter_(scatter), rng_(seed)
{
}

void
GpuMemory::refill()
{
    // One arena = 4 MB carved into runs of 1-4 pages; the run order
    // is shuffled so that physically adjacent runs usually belong to
    // allocations made at different times.
    constexpr std::uint64_t kArenaPages = 1024;
    std::vector<std::vector<std::uint64_t>> runs;
    std::uint64_t page = nextPhysPage_;
    const std::uint64_t end = nextPhysPage_ + kArenaPages;
    while (page < end) {
        const std::uint64_t len =
            std::min<std::uint64_t>(1 + rng_.below(4), end - page);
        std::vector<std::uint64_t> run;
        for (std::uint64_t i = 0; i < len; ++i)
            run.push_back(page + i);
        runs.push_back(std::move(run));
        page += len;
    }
    nextPhysPage_ = end;

    // Fisher-Yates on the run order.
    for (std::size_t i = runs.size(); i > 1; --i)
        std::swap(runs[i - 1], runs[rng_.below(i)]);

    // freePhys_ is consumed from the back, so push in reverse.
    for (auto it = runs.rbegin(); it != runs.rend(); ++it)
        for (auto pit = it->rbegin(); pit != it->rend(); ++pit)
            freePhys_.push_back(*pit);
}

Addr
GpuMemory::allocate(std::uint64_t bytes, const std::string &label)
{
    GLLC_ASSERT_MSG(bytes > 0, "zero-byte allocation for %s",
                    label.c_str());
    const std::uint64_t pages = (bytes + kPageBytes - 1) / kPageBytes;
    const Addr vbase = nextPage_ << kPageShift;
    for (std::uint64_t i = 0; i < pages; ++i) {
        std::uint64_t phys;
        if (scatter_) {
            if (freePhys_.empty())
                refill();
            phys = freePhys_.back();
            freePhys_.pop_back();
        } else {
            phys = nextPhysPage_++;
        }
        pageTable_.push_back(phys);
    }
    nextPage_ += pages;
    return vbase;
}

} // namespace gllc
