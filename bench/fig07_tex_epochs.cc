/**
 * @file
 * Figure 7 (Belady's optimal policy).  Upper panel: epoch-wise
 * distribution of the intra-stream texture sampler hits.  Lower
 * panel: death ratio of each texture epoch.
 *
 * Paper averages: E0 carries 79% of intra-stream texture hits, E1
 * 15%, E2 4%, E>=3 2%; death ratios E0 0.81, E1 0.73, E2 0.53.
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
    benchBanner("Figure 7: texture sampler epochs under Belady",
                sweep);

    TablePrinter tp({"app", "E0 hits", "E1 hits", "E2 hits",
                     "E>=3 hits", "death E0", "death E1",
                     "death E2"});

    Characterization mean_ch;
    std::map<std::string, Characterization> per_app;
    for (const SweepCell &cell : sweep.cells()) {
        per_app[cell.key.app].merge(cell.result.characterization.value());
        mean_ch.merge(cell.result.characterization.value());
    }

    auto add_row = [&tp](const std::string &name,
                         const Characterization &ch) {
        double total = 0;
        for (const auto h : ch.texEpochHits)
            total += static_cast<double>(h);
        std::vector<std::string> row{name};
        for (unsigned k = 0; k < Characterization::kEpochs; ++k) {
            row.push_back(fmtPct(safeRatio(
                static_cast<double>(ch.texEpochHits[k]), total)));
        }
        for (unsigned k = 0; k < 3; ++k)
            row.push_back(fmt(ch.texDeathRatio(k), 2));
        tp.addRow(std::move(row));
    };

    for (const std::string &app : sweep.appOrder())
        add_row(app, per_app.at(app));
    add_row("ALL", mean_ch);
    tp.print(std::cout);
    return cli.finish(sweep);
}
