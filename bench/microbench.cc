/**
 * @file
 * CLI front end of the replay hot-path benchmark (bench/hotpath.hh).
 *
 * Prints a throughput table per policy and, with --json, emits the
 * "gllc-hotpath-v1" report the CI perf-regression job diffs against
 * the checked-in BENCH_hotpath.json baseline (tools/check_perf.py).
 *
 * Flags:
 *   --json <path>      write the machine-readable report
 *   --accesses <n>     synthetic trace length (default 2000000)
 *   --repeats <n>      timed repeats per (trace, policy) cell
 *   --real-frames <n>  cached real frames per policy (default 1)
 *   --policy <name>    measure one policy (repeatable; default all)
 *
 * GLLC_SCALE scales the real traces as everywhere else; the
 * re-baseline workflow is documented in README.md.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/hotpath.hh"
#include "common/logging.hh"

using namespace gllc;

namespace
{

std::uint64_t
parseCount(const std::string &flag, const char *value)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0')
        fatal("%s expects a number, got \"%s\"", flag.c_str(), value);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    HotpathOptions options;
    std::string json_path;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto need_value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("%s requires a value", flag.c_str());
            return argv[++i];
        };
        if (flag == "--json") {
            json_path = need_value();
        } else if (flag == "--accesses") {
            options.syntheticAccesses =
                static_cast<std::size_t>(parseCount(flag,
                                                    need_value()));
        } else if (flag == "--repeats") {
            options.repeats =
                static_cast<std::uint32_t>(parseCount(flag,
                                                      need_value()));
        } else if (flag == "--real-frames") {
            options.realFrames =
                static_cast<std::uint32_t>(parseCount(flag,
                                                      need_value()));
        } else if (flag == "--policy") {
            options.policies.emplace_back(need_value());
        } else {
            fatal("unknown flag \"%s\"", flag.c_str());
        }
    }

    const HotpathReport report = runHotpathBench(options);
    writeHotpathTable(std::cout, report);

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os)
            fatal("cannot write %s", json_path.c_str());
        writeHotpathJson(os, report);
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}
