/**
 * @file
 * Figure 6.  Upper panel: texture sampler LLC hits split into
 * inter-stream (render target consumption) and intra-stream,
 * normalized to Belady's total texture hits.  Lower panel: the
 * percentage of render target blocks consumed by the sampler.
 *
 * Paper averages: 55% of Belady's texture hits are inter-stream;
 * Belady consumes 51% of RT blocks vs 16% (DRRIP) and 13% (NRU);
 * Assassin's Creed peaks near 90% potential consumption.
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
            .policies({"Belady", "DRRIP", "NRU"})
            .characterize(true))
            .run();
    benchBanner("Figure 6: inter-stream texture reuse", sweep);

    const auto inter = sweep.totalsByApp([](const RunResult &r) {
        return static_cast<double>(r.characterization.value().interTexHits);
    });
    const auto intra = sweep.totalsByApp([](const RunResult &r) {
        return static_cast<double>(r.characterization.value().intraTexHits);
    });
    const auto produced = sweep.totalsByApp([](const RunResult &r) {
        return static_cast<double>(r.characterization.value().rtProductions);
    });
    const auto consumed = sweep.totalsByApp([](const RunResult &r) {
        return static_cast<double>(r.characterization.value().rtConsumptions);
    });

    std::vector<std::string> header{"app"};
    for (const auto &p : sweep.policies()) {
        header.push_back(p + " inter");
        header.push_back(p + " intra");
    }
    TablePrinter upper(header);

    for (const std::string &app : sweep.appOrder()) {
        const double belady_total =
            inter.at(app).at("Belady") + intra.at(app).at("Belady");
        std::vector<std::string> row{app};
        for (const auto &p : sweep.policies()) {
            row.push_back(
                fmt(safeRatio(inter.at(app).at(p), belady_total), 3));
            row.push_back(
                fmt(safeRatio(intra.at(app).at(p), belady_total), 3));
        }
        upper.addRow(std::move(row));
    }
    std::cout << "upper panel: texture hits, inter/intra, "
              << "normalized to Belady total\n";
    upper.print(std::cout);

    std::vector<std::string> header2{"app"};
    for (const auto &p : sweep.policies())
        header2.push_back(p);
    TablePrinter lower(header2);
    std::vector<double> mean_rate(sweep.policies().size(), 0.0);
    std::size_t apps = 0;
    for (const std::string &app : sweep.appOrder()) {
        std::vector<std::string> row{app};
        for (std::size_t i = 0; i < sweep.policies().size(); ++i) {
            const std::string &p = sweep.policies()[i];
            const double rate = safeRatio(consumed.at(app).at(p),
                                          produced.at(app).at(p));
            mean_rate[i] += rate;
            row.push_back(fmtPct(rate));
        }
        lower.addRow(std::move(row));
        ++apps;
    }
    std::vector<std::string> mean_row{"MEAN"};
    for (double r : mean_rate)
        mean_row.push_back(fmtPct(r / static_cast<double>(apps)));
    lower.addRow(std::move(mean_row));

    std::cout << "\nlower panel: % of RT blocks consumed by the "
              << "texture sampler\n";
    lower.print(std::cout);
    return cli.finish(sweep);
}
