/**
 * @file
 * Figure 9: death ratio of each epoch of the Z-stream blocks under
 * Belady's optimal policy.
 *
 * Paper averages: E0 0.61, E1 0.38, E2 0.26 — only the first epoch
 * has a high death ratio, which is why GSPC tracks a single
 * collective reuse probability for Z instead of per-epoch state.
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
            .policies({"Belady"})
            .characterize(true))
            .run();
    benchBanner("Figure 9: Z-stream epoch death ratios under Belady",
                sweep);

    std::map<std::string, Characterization> per_app;
    Characterization all;
    for (const SweepCell &cell : sweep.cells()) {
        per_app[cell.key.app].merge(cell.result.characterization.value());
        all.merge(cell.result.characterization.value());
    }

    TablePrinter tp({"app", "death E0", "death E1", "death E2"});
    for (const std::string &app : sweep.appOrder()) {
        const Characterization &ch = per_app.at(app);
        tp.addRow({app, fmt(ch.zDeathRatio(0), 2),
                   fmt(ch.zDeathRatio(1), 2),
                   fmt(ch.zDeathRatio(2), 2)});
    }
    tp.addRow({"ALL", fmt(all.zDeathRatio(0), 2),
               fmt(all.zDeathRatio(1), 2), fmt(all.zDeathRatio(2), 2)});
    tp.print(std::cout);
    return cli.finish(sweep);
}
