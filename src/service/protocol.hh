/**
 * @file
 * Wire protocol of the gllcd sweep service.
 *
 * Framing.  Every message is one frame: a 4-byte big-endian payload
 * length followed by that many bytes of UTF-8 JSON (or, for result
 * payloads, raw report bytes).  Frames larger than kMaxFrameBytes
 * are rejected before allocation, a connection that closes mid-frame
 * surfaces as Truncated, and unparseable payloads surface as
 * Corrupt — always a typed Error on the daemon side, never a crash,
 * because clients are outside our trust boundary.
 *
 * Conversation shapes (client speaks first):
 *
 *   submit   -> envelope frame {"gllcd":1,"type":"submit",
 *                               "tenant":T,"priority":P}
 *            -> spec frame     SweepJobSpec::toJson() bytes
 *            <- result frame   {"gllcd":1,"type":"result",...}
 *               payload frame  exact writeSweepJson() bytes
 *               (or one error frame)
 *   status_v2-> envelope frame {"gllcd":1,"type":"status_v2"}
 *            <- status frame   {"gllcd":1,"type":"status_v2",
 *                               "uptime_seconds":...,"queue":{...},
 *                               "jobs":{...},"workers":{...},
 *                               "latency_ms":{...},...}
 *
 * A submit the daemon refuses to queue (bounded admission) is
 * answered with a shed frame {"gllcd":1,"type":"shed","reason":R,
 * "retry_after_ms":N} instead of a result header.  Clients surface
 * it as an Overloaded error and should back off for roughly the
 * hinted interval before retrying.
 *
 * IO deadlines.  Every helper below takes a timeout in milliseconds
 * (0 = wait forever, the legacy behavior).  A bounded read or write
 * polls the fd with the remaining budget and surfaces an expired
 * deadline as a Timeout error, so a slowloris peer — one that sends
 * a partial header and then nothing — costs a connection thread at
 * most the deadline, never forever.  These wrappers (plus
 * worker.cc's pipe reader) are the only sanctioned raw-fd IO in
 * src/service/; gllc-lint enforces that.
 *
 * status_v2 is the one status request: queue depth per priority
 * class, job counters, worker crashes and cell timeouts, cache hit
 * rate, and rolling p50/p95 latency quantiles read from the metrics
 * registry — what gllc-top polls and `gllc-submit --status` prints.
 * A plain "status" request is an unknown type (InvalidArgument).
 *
 * The spec travels as its own frame, byte-for-byte the canonical
 * SweepJobSpec serialization, so the daemon parses it with the same
 * parseSweepJobSpec() every other consumer uses and the envelope
 * never needs to nest documents.
 *
 * Errors cross the wire as {"gllcd":1,"type":"error","code":
 * "<errorCodeName>","message":...} and reconstruct into the same
 * typed Error the daemon produced locally.
 */

#ifndef GLLC_SERVICE_PROTOCOL_HH
#define GLLC_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "analysis/job_spec.hh"
#include "common/result.hh"

namespace gllc
{

/** Protocol version pinned into every envelope. */
constexpr std::uint32_t kServiceProtocolVersion = 1;

/** Sanity cap on one frame (64 MB covers any realistic report). */
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/**
 * Write one length-prefixed frame to @p fd within @p timeout_ms
 * (0 = wait forever).  LimitExceeded when the payload exceeds
 * kMaxFrameBytes; Timeout when the deadline expires mid-write; Io
 * when the peer is gone.
 */
[[nodiscard]] Result<Unit>
writeFrame(int fd, const std::string &payload, int timeout_ms = 0);

/**
 * Read one frame from @p fd into @p payload within @p timeout_ms
 * (0 = wait forever).  ok(false) on a clean close (EOF before any
 * header byte) — the peer simply hung up; Truncated when the stream
 * ends inside a frame, LimitExceeded when the header declares more
 * than kMaxFrameBytes, Timeout when the deadline expires with the
 * frame incomplete, Io on read errors.
 */
[[nodiscard]] Result<bool>
readFrame(int fd, std::string &payload, int timeout_ms = 0);

/**
 * Read up to @p cap bytes once @p fd turns readable, within
 * @p timeout_ms (0 = wait forever).  ok(0) means EOF; Timeout when
 * nothing became readable in time; Io on read errors.  For callers
 * (the exposition HTTP listener) that parse their own stream
 * framing but must still bound hostile peers.
 */
[[nodiscard]] Result<std::size_t>
readSomeDeadline(int fd, char *buf, std::size_t cap,
                 int timeout_ms);

/**
 * Write all @p len bytes within @p timeout_ms (0 = wait forever).
 * Timeout when the deadline expires mid-write; Io when the peer is
 * gone.
 */
[[nodiscard]] Result<Unit>
writeAllDeadline(int fd, const char *buf, std::size_t len,
                 int timeout_ms);

/**
 * True when the peer of socket @p fd has hung up (orderly close or
 * error state).  Non-blocking, never consumes stream bytes: the
 * daemon probes waiting submitters with this so a job whose client
 * vanished can be cancelled before it ever dispatches.
 */
bool peerClosed(int fd);

/** What a request envelope asks for. */
enum class RequestType : std::uint8_t
{
    Submit,
    StatusV2,
};

/** Parsed request envelope (the spec arrives in its own frame). */
struct RequestEnvelope
{
    RequestType type = RequestType::Submit;
    std::string tenant = "default";
    int priority = 0;
};

/** Serialize a submit envelope. */
std::string submitEnvelopeJson(const std::string &tenant,
                               int priority);

/** Serialize a status_v2 (telemetry status) envelope. */
std::string statusV2EnvelopeJson();

/**
 * Parse a request envelope.  Corrupt for non-JSON, BadMagic for a
 * document that is not a gllcd envelope, BadVersion for a protocol
 * we do not speak, InvalidArgument for an unknown request type.
 */
[[nodiscard]] Result<RequestEnvelope>
parseRequestEnvelope(const std::string &json);

/** Header of a successful job response (payload frame follows). */
struct ResultHeader
{
    std::uint64_t jobId = 0;
    bool cached = false;            ///< served from the result store
    std::uint64_t specHash = 0;     ///< SweepJobSpec::contentHash()
    std::uint64_t traceHash = 0;    ///< SweepJobSpec::traceHash()
    std::uint32_t quarantined = 0;  ///< cells that failed permanently
    double wallSeconds = 0.0;       ///< 0 for cache hits
};

std::string resultHeaderJson(const ResultHeader &header);

/** Serialize a typed Error as an error frame. */
std::string errorFrameJson(const Error &error);

/**
 * Why (and for how long) the daemon refused to queue a submit.
 * Reasons are stable wire strings: "queue_full", "tenant_quota",
 * "conn_limit", "shutdown".
 */
struct ShedInfo
{
    std::string reason;
    int retryAfterMs = 0;  ///< client backoff hint, milliseconds
};

/** Serialize a load-shed response as a shed frame. */
std::string shedFrameJson(const ShedInfo &shed);

/**
 * Classify a response frame: fills exactly one of @p header (result;
 * caller then reads the payload frame) or @p error (the daemon's
 * typed Error, reconstructed).  Returns false for an error frame.
 * A shed frame also returns false, with @p error carrying
 * ErrorCode::Overloaded and, when @p shed is non-null, the parsed
 * reason and retry-after hint.
 */
[[nodiscard]] Result<bool>
parseResponseFrame(const std::string &json, ResultHeader &header,
                   Error &error, ShedInfo *shed = nullptr);

} // namespace gllc

#endif // GLLC_SERVICE_PROTOCOL_HH
