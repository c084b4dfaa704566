/**
 * @file
 * Binary serialization of frame traces.
 *
 * Generating a frame trace costs far more than replaying it, so the
 * harnesses can cache traces on disk: `tracegen` writes them and any
 * replay tool loads them back.  The format is a fixed little-endian
 * header followed by the packed MemAccess records, with a
 * per-section checksum so bit rot in a cached trace is detected
 * instead of silently skewing results:
 *
 *   magic    "GLLCTRC3"                      8 bytes
 *   names    u32 length + bytes, twice       (trace name, app name)
 *   u32      frameIndex
 *   u64 x 6  FrameWork counters
 *   u64      access count
 *   u64      header checksum (fnv1a64 of the bytes after the magic)
 *   records  16-byte MemAccess entries
 *   u64      record checksum (laneHash64 of the record bytes)
 *
 * Readers also accept version 2 ("GLLCTRC2"), the same layout with an
 * fnv1a64 record checksum (byte-serial, so it took most of a write's
 * or a read's time), and the checksum-free version 1 ("GLLCTRC1").
 *
 * Robustness contract: the try* readers never abort.  Malformed
 * input of any kind — wrong magic, unsupported version, truncation,
 * absurd declared sizes, out-of-range stream tags, checksum
 * mismatches — comes back as a typed Error, which is what lets the
 * sweep engine quarantine a rotten cached trace and regenerate it
 * instead of dying hours into a batch run.  The fault-injection
 * sites trace.bitflip / trace.truncate (common/fault.hh) corrupt
 * reads on demand to keep those paths tested.  The unprefixed
 * readers are legacy wrappers that fatal() on error.
 *
 * Files are written with writeFileAtomically() (common/durable_file):
 * a reader sees a whole trace or none, even across a killed writer,
 * but nothing is fsync'd, so a power loss can lose a trace file.
 */

#ifndef GLLC_TRACE_TRACE_IO_HH
#define GLLC_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "common/result.hh"
#include "trace/frame_trace.hh"

namespace gllc
{

/** Serialize @p trace to a stream (always the current version). */
void writeTrace(const FrameTrace &trace, std::ostream &os);

/**
 * Serialize @p trace to a file, atomically (see file comment); typed
 * error on I/O failure.  Concurrent writers of one path cannot tear
 * it, and the trace streams straight into the temp file.
 */
[[nodiscard]] Result<Unit> tryWriteTraceFile(const FrameTrace &trace,
                               const std::string &path);

/** Legacy wrapper over tryWriteTraceFile(); fatal on I/O failure. */
void writeTraceFile(const FrameTrace &trace, const std::string &path);

/** Deserialize a trace from a stream; typed error on bad input. */
[[nodiscard]] Result<FrameTrace> tryReadTrace(std::istream &is);

/** Deserialize a trace from a file; typed error on bad input. */
[[nodiscard]] Result<FrameTrace>
tryReadTraceFile(const std::string &path);

/** Legacy wrapper over tryReadTrace(); fatal on malformed input. */
FrameTrace readTrace(std::istream &is);

/** Legacy wrapper over tryReadTraceFile(); fatal on I/O failure. */
FrameTrace readTraceFile(const std::string &path);

} // namespace gllc

#endif // GLLC_TRACE_TRACE_IO_HH
