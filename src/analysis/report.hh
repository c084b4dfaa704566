/**
 * @file
 * Machine-readable result export.
 *
 * The benchmark harnesses print human-readable tables; for plotting
 * or regression tracking, the same sweep results can be dumped as
 * CSV (one row per (application, frame, policy) cell with the
 * common metrics, ready for any dataframe tool) or as JSON (the
 * sweep configuration plus the same per-cell records).  These two
 * functions are the only writers; every harness exports through
 * them (SweepResult::writeCsv / writeJson forward here).
 */

#ifndef GLLC_ANALYSIS_REPORT_HH
#define GLLC_ANALYSIS_REPORT_HH

#include <iosfwd>

#include "analysis/sweep.hh"

namespace gllc
{

/**
 * Write every sweep cell as a CSV row:
 *   app,frame,policy,accesses,hits,misses,writebacks,
 *   tex_hit_rate,rt_hit_rate,z_hit_rate,
 *   rt_productions,rt_consumptions,inter_tex_hits,intra_tex_hits
 * The last four are empty for a cell without a characterization.
 */
void writeSweepCsv(const SweepResult &result, std::ostream &os);

/**
 * Write the sweep as one JSON object: {"scale", "llc", "policies",
 * "cells"} where cells carry the same fields as the CSV rows, the
 * characterization keys only when the cell has one.
 */
void writeSweepJson(const SweepResult &result, std::ostream &os);

} // namespace gllc

#endif // GLLC_ANALYSIS_REPORT_HH
