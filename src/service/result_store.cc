#include "service/result_store.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

#include "common/durable_file.hh"

namespace gllc
{

namespace
{

std::string
keyFileName(const ResultKey &key)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "tr%016" PRIx64 "-sp%016" PRIx64 ".json",
                  key.traceHash, key.specHash);
    return buf;
}

} // namespace

ResultStore::ResultStore(std::string root) : root_(std::move(root))
{
}

std::string
ResultStore::path(const ResultKey &key) const
{
    if (root_.empty())
        return "";
    return root_ + "/" + keyFileName(key);
}

bool
ResultStore::contains(const ResultKey &key) const
{
    if (root_.empty())
        return false;
    struct stat st;
    return ::stat(path(key).c_str(), &st) == 0;
}

Result<std::string>
ResultStore::load(const ResultKey &key) const
{
    if (root_.empty())
        return Error(ErrorCode::Io, "result store disabled");
    std::ifstream is(path(key), std::ios::binary);
    if (!is)
        return Error::format(ErrorCode::Io, "no stored result at %s",
                             path(key).c_str());
    std::ostringstream buf;
    buf << is.rdbuf();
    if (!is.good() && !is.eof())
        return Error::format(ErrorCode::Io, "read failed on %s",
                             path(key).c_str());
    return buf.str();
}

Result<Unit>
ResultStore::store(const ResultKey &key, const std::string &payload)
{
    if (root_.empty())
        return Unit{};
    std::error_code mkdir_error;
    std::filesystem::create_directories(root_, mkdir_error);
    if (mkdir_error)
        return Error::format(ErrorCode::Io,
                             "cannot create store dir %s: %s",
                             root_.c_str(), mkdir_error.message().c_str());
    return writeFileAtomically(
        path(key), [&payload](std::ostream &os) { os << payload; });
}

} // namespace gllc
