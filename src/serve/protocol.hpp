/**
 * @file
 * The daemon's wire protocol: newline-delimited JSON, one request and
 * one response object per line, explicitly versioned. The same messages
 * travel over both transports (Unix-domain socket and the file-drop
 * fallback), so everything here is transport-agnostic plain text.
 *
 * Requests:
 *
 *   {"v": 1, "op": "submit", "id": "c1-0", "workload": "mm",
 *    "size": 256, "mode": "photon", "gpu": "r9nano",
 *    "backend": "detailed"}
 *
 * "backend" is optional (still protocol v1): requests without it mean
 * the detailed backend, so pre-backend clients keep working unchanged.
 *   {"v": 1, "op": "status",   "id": "c1-1"}
 *   {"v": 1, "op": "cache",    "id": "c1-2"}
 *   {"v": 1, "op": "ping",     "id": "c1-3"}
 *   {"v": 1, "op": "shutdown", "id": "c1-4"}
 *
 * Responses always carry {"v", "id", "ok"} (plus "error" when !ok);
 * submit responses add the job result (cycles, insts, cache_hit,
 * dedup_collapsed, answer_cached, ...), status/cache responses add the
 * server counters. answer_cached and answers_cached are optional (still
 * protocol v1): an older daemon's lines lack them and decode as
 * false / 0.
 * Unknown keys are ignored on decode, so additions are backward
 * compatible within a version; a major layout change bumps
 * kProtocolVersion and old peers are rejected with a diagnostic.
 */

#ifndef PHOTON_SERVE_PROTOCOL_HPP
#define PHOTON_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <string>

#include "serve/server.hpp"
#include "service/campaign.hpp"

namespace photon::serve {

/** Wire-format version; peers reject lines from a newer major. */
inline constexpr std::uint32_t kProtocolVersion = 1;

/** Request operations. */
enum class Op
{
    Submit,   ///< run (or dedup/cache-serve) one simulation job
    Status,   ///< queue depth, workers, counters
    Cache,    ///< shared-store contents + hit/miss/insert counters
    Ping,     ///< liveness probe
    Shutdown, ///< graceful drain: finish in-flight, checkpoint, exit
};

const char *opName(Op op);

/** One decoded request line. */
struct Request
{
    std::uint32_t v = kProtocolVersion;
    Op op = Op::Ping;
    std::string id;          ///< client-chosen correlation id
    service::JobSpec spec{}; ///< submit only
};

/** One response line: the envelope plus op-specific sections. */
struct Response
{
    std::uint32_t v = kProtocolVersion;
    std::string id;
    bool ok = false;
    std::string error;

    bool hasResult = false;
    ServeResult result{}; ///< submit

    bool hasStatus = false;
    ServerStatus status{}; ///< status / cache
};

/** Serialize to one JSON line (no trailing newline). */
std::string encodeRequest(const Request &request);
std::string encodeResponse(const Response &response);

/** Decode one line; false + @p error on malformed input or a version
 *  mismatch (@p out untouched on failure). */
bool decodeRequest(const std::string &line, Request &out,
                   std::string *error = nullptr);
bool decodeResponse(const std::string &line, Response &out,
                    std::string *error = nullptr);

} // namespace photon::serve

#endif // PHOTON_SERVE_PROTOCOL_HPP
