/**
 * @file
 * Figure 13: cross-frame means of the texture sampler hit rate, the
 * render-target-to-texture consumption rate, the render target
 * (blending) hit rate and the Z hit rate for each policy.
 *
 * Paper result: texture hit rate and consumption rate climb through
 * GSPZTC and GSPZTC+TSE, dip slightly under GSPC's probabilistic RT
 * insertion, and recover with +UCD; GSPC's render target hit rate
 * (57.7%) approaches Belady's (59.8%); GS-DRRIP keeps the best Z
 * hit rate.
 */

#include <iostream>

#include "bench/bench_util.hh"

using namespace gllc;

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv);
    const SweepResult sweep =
        cli.apply(SweepConfig()
            .policies({"DRRIP", "GS-DRRIP", "GSPZTC", "GSPZTC+TSE",
                       "GSPC", "GSPC+UCD", "Belady"})
            .characterize(true))
            .run();
    benchBanner("Figure 13: per-policy stream behaviour (means)",
                sweep);

    struct Acc
    {
        double tex_hits = 0, tex_acc = 0;
        double cons = 0, prod = 0;
        double rt_hits = 0, rt_acc = 0;
        double z_hits = 0, z_acc = 0;
    };
    std::map<std::string, Acc> acc;
    for (const SweepCell &cell : sweep.cells()) {
        Acc &a = acc[cell.key.policy];
        const LlcStats &s = cell.result.stats;
        a.tex_hits += static_cast<double>(
            s.of(StreamType::Texture).hits);
        a.tex_acc += static_cast<double>(
            s.of(StreamType::Texture).accesses);
        const Characterization &ch = cell.result.characterization.value();
        a.cons += static_cast<double>(ch.rtConsumptions);
        a.prod += static_cast<double>(ch.rtProductions);
        a.rt_hits += static_cast<double>(
            s.of(StreamType::RenderTarget).hits);
        a.rt_acc += static_cast<double>(
            s.of(StreamType::RenderTarget).accesses);
        a.z_hits += static_cast<double>(s.of(StreamType::Z).hits);
        a.z_acc += static_cast<double>(s.of(StreamType::Z).accesses);
    }

    TablePrinter tp({"policy", "TEX hit rate", "RT->TEX consumption",
                     "RT hit rate", "Z hit rate"});
    for (const std::string &p : sweep.policies()) {
        const Acc &a = acc.at(p);
        tp.addRow({p, fmtPct(safeRatio(a.tex_hits, a.tex_acc)),
                   fmtPct(safeRatio(a.cons, a.prod)),
                   fmtPct(safeRatio(a.rt_hits, a.rt_acc)),
                   fmtPct(safeRatio(a.z_hits, a.z_acc))});
    }
    tp.print(std::cout);
    return cli.finish(sweep);
}
