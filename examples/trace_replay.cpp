/**
 * @file
 * Example/tool: replay cached traces under any set of policies.
 *
 * Usage: trace_replay <trace.gltrc> [policy ...]
 *
 * Loads a trace written by tracegen and prints per-policy miss
 * counts, per-stream hit rates and the characterization summary —
 * the offline-simulator workflow of Section 2 decoupled from trace
 * generation.
 */

#include <iostream>

#include "analysis/offline_sim.hh"
#include "common/stats.hh"
#include "trace/trace_io.hh"
#include "workload/frame_set.hh"

using namespace gllc;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: trace_replay <trace.gltrc> [policy ...]\n";
        return 1;
    }
    const FrameTrace trace = readTraceFile(argv[1]);

    std::vector<std::string> policies;
    if (argc > 2) {
        for (int i = 2; i < argc; ++i)
            policies.emplace_back(argv[i]);
    } else {
        policies = {"DRRIP", "GSPC+UCD", "Belady"};
    }

    const RenderScale scale = scaleFromEnv();
    const LlcConfig llc =
        scaledLlcConfig(8ull << 20, scale.pixelScale());

    std::cout << trace.name << ": " << trace.accesses.size()
              << " accesses, " << trace.distinctBlocks()
              << " distinct blocks\n\n";

    TablePrinter tp({"policy", "misses", "TEX hit", "RT hit", "Z hit",
                     "RT->TEX cons"});
    RunOptions options;
    options.characterize = true;
    for (const std::string &p : policies) {
        const RunResult r = runTrace(trace, policySpec(p), llc, options);
        tp.addRow({p, std::to_string(r.stats.totalMisses()),
                   fmtPct(r.stats.hitRate(StreamType::Texture)),
                   fmtPct(r.stats.hitRate(StreamType::RenderTarget)),
                   fmtPct(r.stats.hitRate(StreamType::Z)),
                   fmtPct(r.characterization->rtConsumptionRate())});
    }
    tp.print(std::cout);
    return 0;
}
