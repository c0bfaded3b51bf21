#include "server/protocol.hh"

#include <cmath>
#include <stdexcept>

#include "bench_common.hh"

namespace apir {
namespace server {

namespace {

[[noreturn]] void
reject(const std::string &what)
{
    throw std::runtime_error(what);
}

double
numberField(const JsonValue &v, const char *key)
{
    if (!v.isNumber())
        reject(std::string("'") + key + "' must be a number");
    return v.asNumber();
}

bool
boolField(const JsonValue &v, const char *key)
{
    if (!v.isBool())
        reject(std::string("'") + key + "' must be true or false");
    return v.asBool();
}

const std::string &
stringField(const JsonValue &v, const char *key)
{
    if (!v.isString())
        reject(std::string("'") + key + "' must be a string");
    return v.asString();
}

uint32_t
seedField(const JsonValue &v)
{
    double d = numberField(v, "seed");
    if (d < 0 || d > 4294967295.0 || d != std::floor(d))
        reject("'seed' must be an unsigned 32-bit integer");
    return static_cast<uint32_t>(d);
}

Priority
priorityField(const JsonValue &v)
{
    const std::string &s = stringField(v, "priority");
    if (s == "high")
        return Priority::High;
    if (s == "normal")
        return Priority::Normal;
    if (s == "low")
        return Priority::Low;
    reject("'priority' must be \"high\", \"normal\" or \"low\" (got \"" +
           s + "\")");
}

Request::Op
opField(const JsonValue &v)
{
    const std::string &s = stringField(v, "op");
    if (s == "sim")
        return Request::Op::Sim;
    if (s == "ping")
        return Request::Op::Ping;
    if (s == "stats")
        return Request::Op::Stats;
    if (s == "shutdown")
        return Request::Op::Shutdown;
    reject("unknown op \"" + s +
           "\" (expected sim, ping, stats or shutdown)");
}

} // namespace

const char *
priorityName(Priority p)
{
    switch (p) {
      case Priority::High:   return "high";
      case Priority::Normal: return "normal";
      case Priority::Low:    return "low";
    }
    return "?";
}

Request
parseRequest(const std::string &line)
{
    JsonValue doc;
    try {
        doc = JsonValue::parse(line);
    } catch (const std::runtime_error &e) {
        reject(std::string("bad request JSON: ") + e.what());
    }
    if (!doc.isObject())
        reject("request must be a JSON object");

    Request req;
    bool sawApp = false;
    bool sawOp = false;
    for (const auto &[key, val] : doc.members()) {
        if (key == "op") {
            req.op = opField(val);
            sawOp = true;
        } else if (key == "app") {
            req.sim.app = stringField(val, "app");
            sawApp = true;
        } else if (key == "scale") {
            req.sim.scale = numberField(val, "scale");
            if (!(req.sim.scale > 0.0))
                reject("'scale' must be positive");
        } else if (key == "seed") {
            req.sim.seed = seedField(val);
        } else if (key == "priority") {
            req.sim.priority = priorityField(val);
        } else if (key == "config") {
            req.sim.config = stringField(val, "config");
        } else if (key == "set") {
            if (!val.isArray())
                reject("'set' must be an array of "
                       "\"section.key=value\" strings");
            for (size_t i = 0; i < val.size(); ++i)
                req.sim.sets.push_back(stringField(val.at(i), "set"));
        } else if (key == "fast_forward") {
            req.sim.fastForward = boolField(val, "fast_forward");
        } else if (key == "bandwidth_scale") {
            req.sim.bandwidthScale =
                numberField(val, "bandwidth_scale");
            if (!(req.sim.bandwidthScale > 0.0))
                reject("'bandwidth_scale' must be positive");
        } else if (key == "verify") {
            req.sim.verify = boolField(val, "verify");
        } else if (key == "checkpoint_save") {
            const std::string &s = stringField(val, "checkpoint_save");
            size_t colon = s.find(':');
            if (colon == std::string::npos || colon == 0 ||
                colon + 1 >= s.size())
                reject("'checkpoint_save' must be \"<cycle>:<prefix>\" "
                       "or \"auto:<prefix>\" (got \"" + s + "\")");
            const std::string cyc = s.substr(0, colon);
            if (cyc == "auto") {
                req.sim.checkpointSaveAuto = true;
            } else {
                uint64_t cycle = 0;
                for (char c : cyc) {
                    if (c < '0' || c > '9')
                        reject("'checkpoint_save' cycle must be an "
                               "unsigned integer or \"auto\" (got \"" +
                               cyc + "\")");
                    cycle = cycle * 10 + static_cast<uint64_t>(c - '0');
                }
                req.sim.checkpointSaveCycle = cycle;
            }
            req.sim.checkpointSavePrefix = s.substr(colon + 1);
        } else if (key == "checkpoint_restore") {
            req.sim.checkpointRestorePrefix =
                stringField(val, "checkpoint_restore");
            if (req.sim.checkpointRestorePrefix.empty())
                reject("'checkpoint_restore' must be a non-empty "
                       "prefix");
        } else {
            // Same philosophy as parseOptions: a typoed knob must
            // not silently simulate something else.
            reject("unknown request key '" + key + "'");
        }
    }

    if (req.op == Request::Op::Sim && !sawApp)
        reject("simulation requests require 'app' (" +
               bench::benchNameList() + ")");
    if (req.op != Request::Op::Sim && sawApp)
        reject("'app' is only valid on sim requests");
    (void)sawOp;
    return req;
}

std::string
serializeRequest(const SimRequest &req)
{
    JsonValue doc = JsonValue::object();
    doc.set("app", JsonValue::str(req.app));
    doc.set("scale", JsonValue::number(req.scale));
    doc.set("seed", JsonValue::number(req.seed));
    doc.set("priority",
            JsonValue::str(priorityName(req.priority)));
    if (!req.config.empty())
        doc.set("config", JsonValue::str(req.config));
    if (!req.sets.empty()) {
        JsonValue sets = JsonValue::array();
        for (const std::string &s : req.sets)
            sets.push(JsonValue::str(s));
        doc.set("set", std::move(sets));
    }
    if (!req.fastForward)
        doc.set("fast_forward", JsonValue::boolean(false));
    if (req.bandwidthScale != 1.0)
        doc.set("bandwidth_scale", JsonValue::number(req.bandwidthScale));
    if (req.verify)
        doc.set("verify", JsonValue::boolean(true));
    if (!req.checkpointSavePrefix.empty())
        doc.set("checkpoint_save",
                JsonValue::str((req.checkpointSaveAuto
                                    ? std::string("auto")
                                    : std::to_string(
                                          req.checkpointSaveCycle)) +
                               ":" + req.checkpointSavePrefix));
    if (!req.checkpointRestorePrefix.empty())
        doc.set("checkpoint_restore",
                JsonValue::str(req.checkpointRestorePrefix));
    return doc.dump();
}

std::string
errorResponse(const std::string &msg)
{
    JsonValue doc = JsonValue::object();
    doc.set("status", JsonValue::str("error"));
    doc.set("error", JsonValue::str(msg));
    return doc.dump();
}

std::string
busyResponse(unsigned retryAfterMs)
{
    JsonValue doc = JsonValue::object();
    doc.set("status", JsonValue::str("busy"));
    doc.set("retry_after_ms", JsonValue::number(retryAfterMs));
    return doc.dump();
}

std::string
eventResponse(const std::string &event)
{
    JsonValue doc = JsonValue::object();
    doc.set("status", JsonValue::str("ok"));
    doc.set("event", JsonValue::str(event));
    return doc.dump();
}

} // namespace server
} // namespace apir
