#include "trace/trace_io.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/durable_file.hh"
#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"

namespace gllc
{

namespace
{

constexpr char kMagicPrefix[7] = {'G', 'L', 'L', 'C', 'T', 'R', 'C'};
constexpr char kVersion1 = '1';
constexpr char kVersion2 = '2';
constexpr char kVersion3 = '3';

/** Sanity caps: declared sizes beyond these are corruption. */
constexpr std::uint32_t kMaxNameLen = 1u << 20;
constexpr std::uint64_t kMaxAccessCount = 1ull << 32;

/** Stream writer that checksums every byte it emits. */
struct SectionWriter
{
    std::ostream &os;
    std::uint64_t hash = kFnvOffset;

    void
    write(const void *data, std::size_t n)
    {
        os.write(static_cast<const char *>(data),
                 static_cast<std::streamsize>(n));
        hash = fnv1a64(data, n, hash);
    }

    template <typename T>
    void
    pod(const T &value)
    {
        write(&value, sizeof(T));
    }

    void
    str(const std::string &s)
    {
        pod<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
        write(s.data(), s.size());
    }
};

/** Stream reader that checksums every byte it consumes. */
struct SectionReader
{
    std::istream &is;
    std::uint64_t hash = kFnvOffset;

    bool
    read(void *dst, std::size_t n)
    {
        is.read(static_cast<char *>(dst),
                static_cast<std::streamsize>(n));
        if (static_cast<std::size_t>(is.gcount()) != n)
            return false;
        hash = fnv1a64(dst, n, hash);
        return true;
    }

    template <typename T>
    bool
    pod(T &value)
    {
        return read(&value, sizeof(T));
    }
};

/** Read a checksum field (stored values are not themselves hashed). */
bool
readRawU64(std::istream &is, std::uint64_t &value)
{
    is.read(reinterpret_cast<char *>(&value), sizeof(value));
    return static_cast<std::size_t>(is.gcount()) == sizeof(value);
}

Error
truncatedError(const char *what)
{
    return Error::format(ErrorCode::Truncated,
                         "trace file truncated while reading %s",
                         what);
}

} // namespace

void
writeTrace(const FrameTrace &trace, std::ostream &os)
{
    os.write(kMagicPrefix, sizeof(kMagicPrefix));
    os.put(kVersion3);

    SectionWriter header{os};
    header.str(trace.name);
    header.str(trace.app);
    header.pod<std::uint32_t>(trace.frameIndex);
    header.pod<std::uint64_t>(trace.work.shaderOps);
    header.pod<std::uint64_t>(trace.work.texelRequests);
    header.pod<std::uint64_t>(trace.work.pixelsShaded);
    header.pod<std::uint64_t>(trace.work.verticesShaded);
    header.pod<std::uint64_t>(trace.work.rawMemOps);
    header.pod<std::uint64_t>(trace.work.issueCycles);
    header.pod<std::uint64_t>(
        static_cast<std::uint64_t>(trace.accesses.size()));
    os.write(reinterpret_cast<const char *>(&header.hash),
             sizeof(header.hash));

    const std::size_t record_bytes =
        trace.accesses.size() * sizeof(MemAccess);
    os.write(reinterpret_cast<const char *>(trace.accesses.data()),
             static_cast<std::streamsize>(record_bytes));
    const std::uint64_t record_hash =
        laneHash64(trace.accesses.data(), record_bytes);
    os.write(reinterpret_cast<const char *>(&record_hash),
             sizeof(record_hash));
}

Result<Unit>
tryWriteTraceFile(const FrameTrace &trace, const std::string &path)
{
    return writeFileAtomically(
        path, [&trace](std::ostream &os) { writeTrace(trace, os); });
}

void
writeTraceFile(const FrameTrace &trace, const std::string &path)
{
    tryWriteTraceFile(trace, path).takeOrFatal();
}

Result<FrameTrace>
tryReadTrace(std::istream &is)
{
    char magic[8];
    is.read(magic, sizeof(magic));
    if (static_cast<std::size_t>(is.gcount()) != sizeof(magic))
        return truncatedError("the magic");
    if (std::memcmp(magic, kMagicPrefix, sizeof(kMagicPrefix)) != 0)
        return Error(ErrorCode::BadMagic,
                     "not a gllc trace file (bad magic)");
    const char version = magic[7];
    if (version != kVersion1 && version != kVersion2
        && version != kVersion3)
        return Error::format(ErrorCode::BadVersion,
                             "unsupported trace version '%c'",
                             version);

    SectionReader header{is};
    FrameTrace trace;
    for (std::string *s : {&trace.name, &trace.app}) {
        std::uint32_t len = 0;
        if (!header.pod(len))
            return truncatedError("a string length");
        if (len > kMaxNameLen)
            return Error::format(
                ErrorCode::LimitExceeded,
                "absurd string length %u (corrupt header)", len);
        s->assign(len, '\0');
        if (len > 0 && !header.read(s->data(), len))
            return truncatedError("a string");
    }
    if (!header.pod(trace.frameIndex))
        return truncatedError("the frame index");
    for (std::uint64_t *counter :
         {&trace.work.shaderOps, &trace.work.texelRequests,
          &trace.work.pixelsShaded, &trace.work.verticesShaded,
          &trace.work.rawMemOps, &trace.work.issueCycles}) {
        if (!header.pod(*counter))
            return truncatedError("the work counters");
    }
    std::uint64_t count = 0;
    if (!header.pod(count))
        return truncatedError("the access count");
    if (count > kMaxAccessCount)
        return Error::format(
            ErrorCode::LimitExceeded,
            "absurd access count %llu (corrupt header)",
            static_cast<unsigned long long>(count));

    if (version != kVersion1) {
        std::uint64_t stored = 0;
        if (!readRawU64(is, stored))
            return truncatedError("the header checksum");
        if (stored != header.hash)
            return Error::format(
                ErrorCode::ChecksumMismatch,
                "header checksum mismatch "
                "(stored %016llx, computed %016llx)",
                static_cast<unsigned long long>(stored),
                static_cast<unsigned long long>(header.hash));
    }

    if (faultFires(FaultSite::TraceTruncate))
        return Error(ErrorCode::Truncated,
                     "trace file truncated while reading accesses "
                     "(injected fault trace.truncate)");

    trace.accesses.resize(count);
    const std::size_t record_bytes = count * sizeof(MemAccess);
    is.read(reinterpret_cast<char *>(trace.accesses.data()),
            static_cast<std::streamsize>(record_bytes));
    if (static_cast<std::size_t>(is.gcount()) != record_bytes)
        return truncatedError("the accesses");

    // Simulated on-disk rot: flip a deterministic bit of the
    // payload before checksumming, so verification must catch it.
    if (record_bytes > 0 && faultFires(FaultSite::TraceBitflip)) {
        const std::uint64_t bit =
            faultPayload(FaultSite::TraceBitflip)
            % (record_bytes * 8);
        reinterpret_cast<unsigned char *>(
            trace.accesses.data())[bit / 8] ^=
            static_cast<unsigned char>(1u << (bit % 8));
    }

    if (version != kVersion1) {
        std::uint64_t stored = 0;
        if (!readRawU64(is, stored))
            return truncatedError("the record checksum");
        const std::uint64_t computed = version == kVersion2
            ? fnv1a64(trace.accesses.data(), record_bytes)
            : laneHash64(trace.accesses.data(), record_bytes);
        if (stored != computed)
            return Error::format(
                ErrorCode::ChecksumMismatch,
                "record checksum mismatch "
                "(stored %016llx, computed %016llx)",
                static_cast<unsigned long long>(stored),
                static_cast<unsigned long long>(computed));
    }

    // Bounds of every record: the one corruption a checksum-free
    // version-1 trace can still reveal.
    for (std::size_t i = 0; i < trace.accesses.size(); ++i) {
        const auto tag =
            static_cast<std::size_t>(trace.accesses[i].stream);
        if (tag >= kNumStreams)
            return Error::format(
                ErrorCode::Corrupt,
                "record %zu has out-of-range stream tag %zu", i,
                tag);
    }
    return trace;
}

Result<FrameTrace>
tryReadTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Error::format(ErrorCode::Io,
                             "cannot open \"%s\" for reading",
                             path.c_str());
    Result<FrameTrace> result = tryReadTrace(is);
    if (!result.ok())
        return Error(result.error().code,
                     path + ": " + result.error().context);
    return result;
}

FrameTrace
readTrace(std::istream &is)
{
    return tryReadTrace(is).takeOrFatal();
}

FrameTrace
readTraceFile(const std::string &path)
{
    return tryReadTraceFile(path).takeOrFatal();
}

} // namespace gllc
