#include "server/protocol.hh"

#include <cerrno>
#include <cstring>

#include "common/fault.hh"

namespace rppm {
namespace server {

namespace {

/** Write all of @p n bytes via the fault-aware transfer helper
 *  (common/fault.hh: EINTR retry, partial-write resumption,
 *  MSG_NOSIGNAL, net.send.partial injection point). */
void
writeAll(int fd, const void *data, size_t n)
{
    const io::XferResult r = io::sendFull(fd, data, n);
    if (r.status != io::XferResult::Ok)
        throw ProtocolError(std::string("write failed: ") +
                            std::strerror(r.error));
}

/** Read exactly @p n bytes. Returns false on EOF before the first byte
 *  when @p eof_ok; EOF mid-read always throws (a torn frame). */
bool
readAll(int fd, void *out, size_t n, bool eof_ok)
{
    const io::XferResult r = io::recvFull(fd, out, n);
    switch (r.status) {
    case io::XferResult::Ok:
        return true;
    case io::XferResult::Eof:
        if (eof_ok)
            return false;
        throw ProtocolError("connection closed mid-frame (short read)");
    case io::XferResult::Err:
        if (r.error == ECONNRESET)
            throw ProtocolError("connection closed mid-frame (short read)");
        throw ProtocolError(std::string("read failed: ") +
                            std::strerror(r.error));
    }
    throw ProtocolError("unreachable");
}

/** Begin a message payload container. */
BinWriter
payloadWriter()
{
    return BinWriter(kWireMagic, kWireVersion);
}

/** Bind a reader to a message payload, validating magic + version. */
BinReader
payloadReader(std::string_view payload)
{
    return BinReader(payload, kWireMagic, kWireVersion);
}

void
expectEnd(BinReader &in)
{
    if (!in.atEnd())
        in.fail("trailing bytes in message payload");
}

void
encodeCache(BinWriter &out, const CacheConfig &c)
{
    out.str(c.name);
    out.u32(c.sizeBytes);
    out.u32(c.assoc);
    out.u32(c.lineBytes);
    out.u32(c.latency);
}

CacheConfig
decodeCache(BinReader &in)
{
    CacheConfig c;
    c.name = in.str("cache name");
    c.sizeBytes = in.u32("cache size");
    c.assoc = in.u32("cache assoc");
    c.lineBytes = in.u32("cache line bytes");
    c.latency = in.u32("cache latency");
    return c;
}

} // namespace

void
writeFrame(int fd, MsgType type, std::string_view payload)
{
    if (payload.size() > kMaxFramePayload)
        throw ProtocolError("payload exceeds kMaxFramePayload");
    char header[16];
    const uint32_t magic = kFrameMagic;
    const uint32_t t = static_cast<uint32_t>(type);
    const uint64_t len = payload.size();
    std::memcpy(header, &magic, 4);
    std::memcpy(header + 4, &t, 4);
    std::memcpy(header + 8, &len, 8);
    writeAll(fd, header, sizeof(header));
    if (!payload.empty())
        writeAll(fd, payload.data(), payload.size());
}

bool
readFrame(int fd, Frame &out)
{
    char header[16];
    if (!readAll(fd, header, sizeof(header), /*eof_ok=*/true))
        return false;
    uint32_t magic = 0, type = 0;
    uint64_t len = 0;
    std::memcpy(&magic, header, 4);
    std::memcpy(&type, header + 4, 4);
    std::memcpy(&len, header + 8, 8);
    if (magic != kFrameMagic)
        throw ProtocolError("bad frame magic");
    if (len > kMaxFramePayload)
        throw ProtocolError("frame payload exceeds kMaxFramePayload");
    out.type = static_cast<MsgType>(type);
    out.payload.resize(static_cast<size_t>(len));
    if (len > 0)
        readAll(fd, out.payload.data(), out.payload.size(),
                /*eof_ok=*/false);
    return true;
}

// ------------------------------------------------------------- messages ---

std::string
encodeHello(const HelloMsg &msg)
{
    BinWriter out = payloadWriter();
    out.str(msg.clientName);
    return out.data();
}

HelloMsg
decodeHello(std::string_view payload)
{
    BinReader in = payloadReader(payload);
    HelloMsg msg;
    msg.clientName = in.str("client name");
    expectEnd(in);
    return msg;
}

std::string
encodeHelloOk(const HelloOkMsg &msg)
{
    BinWriter out = payloadWriter();
    out.str(msg.serverName);
    out.u32(msg.version);
    return out.data();
}

HelloOkMsg
decodeHelloOk(std::string_view payload)
{
    BinReader in = payloadReader(payload);
    HelloOkMsg msg;
    msg.serverName = in.str("server name");
    msg.version = in.u32("server version");
    expectEnd(in);
    return msg;
}

void
encodeConfig(BinWriter &out, const MulticoreConfig &cfg)
{
    out.str(cfg.name);
    out.u64(cfg.cores.size());
    for (const CoreConfig &core : cfg.cores) {
        out.f64(core.frequencyGHz);
        out.u32(core.dispatchWidth);
        out.u32(core.robSize);
        out.u32(core.issueQueueSize);
        out.u32(core.frontendDepth);
        out.u32(core.mshrs);
        out.u32(core.memLatency);
        out.u32(core.branch.totalBytes);
        out.u32(core.branch.historyBits);
        encodeCache(out, core.l1i);
        encodeCache(out, core.l1d);
        encodeCache(out, core.l2);
        out.u64(core.fus.size());
        for (const FuConfig &fu : core.fus) {
            out.u32(fu.latency);
            out.u32(fu.count);
            out.u32(fu.interval);
        }
    }
    out.u64(cfg.mapping.threadToCore.size());
    for (uint32_t c : cfg.mapping.threadToCore)
        out.u32(c);
    encodeCache(out, cfg.llc);
    out.u32(cfg.memBusCycles);
}

MulticoreConfig
decodeConfig(BinReader &in)
{
    MulticoreConfig cfg;
    cfg.name = in.str("config name");
    const uint64_t num_cores = in.u64("core count");
    if (num_cores > in.remainingBytes())
        in.fail("core count exceeds payload size");
    cfg.cores.resize(num_cores);
    for (uint64_t i = 0; i < num_cores; ++i) {
        CoreConfig &core = cfg.cores[i];
        core.frequencyGHz = in.f64("core frequency");
        core.dispatchWidth = in.u32("dispatch width");
        core.robSize = in.u32("rob size");
        core.issueQueueSize = in.u32("issue queue size");
        core.frontendDepth = in.u32("frontend depth");
        core.mshrs = in.u32("mshrs");
        core.memLatency = in.u32("mem latency");
        core.branch.totalBytes = in.u32("branch bytes");
        core.branch.historyBits = in.u32("branch history bits");
        core.l1i = decodeCache(in);
        core.l1d = decodeCache(in);
        core.l2 = decodeCache(in);
        const uint64_t fus = in.u64("fu count");
        if (fus != core.fus.size())
            in.fail("fu table size mismatch");
        for (FuConfig &fu : core.fus) {
            fu.latency = in.u32("fu latency");
            fu.count = in.u32("fu unit count");
            fu.interval = in.u32("fu issue interval");
        }
    }
    const uint64_t mapping = in.u64("mapping size");
    if (mapping > in.remainingBytes())
        in.fail("mapping size exceeds payload size");
    cfg.mapping.threadToCore.resize(mapping);
    for (uint64_t i = 0; i < mapping; ++i)
        cfg.mapping.threadToCore[i] = in.u32("mapping entry");
    cfg.llc = decodeCache(in);
    cfg.memBusCycles = in.u32("mem bus cycles");
    return cfg;
}

std::string
encodeRequest(const RequestMsg &msg)
{
    BinWriter out = payloadWriter();
    out.u32(msg.id);
    out.u8(static_cast<uint8_t>(msg.kind));
    out.str(msg.workload);
    out.str(msg.evaluator);
    out.u32(msg.profiler.microTraceLength);
    out.u64(msg.profiler.microTraceInterval);
    out.u32(msg.profiler.quantum);
    out.u32(msg.profiler.lineBytes);
    out.u8(msg.profiler.detectInvalidation ? 1 : 0);
    out.f64(msg.rppm.sync.syncOpCost);
    out.u8(static_cast<uint8_t>(eq1OptionsBits(msg.rppm.eq1)));
    out.u32(msg.deadlineMs); // v2
    out.u64(msg.configs.size());
    for (const MulticoreConfig &cfg : msg.configs)
        encodeConfig(out, cfg);
    return out.data();
}

RequestMsg
decodeRequest(std::string_view payload)
{
    BinReader in = payloadReader(payload);
    RequestMsg msg;
    msg.id = in.u32("request id");
    const uint8_t kind = in.u8("workload ref kind");
    if (kind > static_cast<uint8_t>(WorkloadRefKind::TracePath))
        in.fail("unknown workload ref kind");
    msg.kind = static_cast<WorkloadRefKind>(kind);
    msg.workload = in.str("workload ref");
    msg.evaluator = in.str("evaluator");
    msg.profiler.microTraceLength = in.u32("micro-trace length");
    msg.profiler.microTraceInterval = in.u64("micro-trace interval");
    msg.profiler.quantum = in.u32("quantum");
    msg.profiler.lineBytes = in.u32("line bytes");
    msg.profiler.detectInvalidation = in.u8("detect invalidation") != 0;
    msg.rppm.sync.syncOpCost = in.f64("sync op cost");
    msg.rppm.eq1 = eq1OptionsFromBits(in.u8("eq1 bits"));
    msg.deadlineMs = in.u32("deadline ms"); // v2
    const uint64_t configs = in.u64("config count");
    if (configs > in.remainingBytes())
        in.fail("config count exceeds payload size");
    msg.configs.reserve(configs);
    for (uint64_t i = 0; i < configs; ++i)
        msg.configs.push_back(decodeConfig(in));
    expectEnd(in);
    return msg;
}

std::string
encodeResult(const ResultMsg &msg)
{
    BinWriter out = payloadWriter();
    out.u32(msg.id);
    out.u64(msg.cell);
    out.str(msg.config);
    out.f64(msg.cycles);
    out.f64(msg.seconds);
    out.u64(msg.threadSeconds.size());
    for (double v : msg.threadSeconds)
        out.f64(v);
    return out.data();
}

ResultMsg
decodeResult(std::string_view payload)
{
    BinReader in = payloadReader(payload);
    ResultMsg msg;
    msg.id = in.u32("request id");
    msg.cell = in.u64("cell index");
    msg.config = in.str("config name");
    msg.cycles = in.f64("cycles");
    msg.seconds = in.f64("seconds");
    const uint64_t threads = in.u64("thread count");
    if (threads > in.remainingBytes())
        in.fail("thread count exceeds payload size");
    msg.threadSeconds.reserve(threads);
    for (uint64_t i = 0; i < threads; ++i)
        msg.threadSeconds.push_back(in.f64("thread seconds"));
    expectEnd(in);
    return msg;
}

std::string
encodeDone(const DoneMsg &msg)
{
    BinWriter out = payloadWriter();
    out.u32(msg.id);
    out.u64(msg.cells);
    return out.data();
}

DoneMsg
decodeDone(std::string_view payload)
{
    BinReader in = payloadReader(payload);
    DoneMsg msg;
    msg.id = in.u32("request id");
    msg.cells = in.u64("cell count");
    expectEnd(in);
    return msg;
}

std::string
encodeError(const ErrorMsg &msg)
{
    BinWriter out = payloadWriter();
    out.u32(msg.id);
    out.str(msg.message);
    return out.data();
}

ErrorMsg
decodeError(std::string_view payload)
{
    BinReader in = payloadReader(payload);
    ErrorMsg msg;
    msg.id = in.u32("request id");
    msg.message = in.str("error message");
    expectEnd(in);
    return msg;
}

std::string
encodeBusy(const BusyMsg &msg)
{
    BinWriter out = payloadWriter();
    out.u32(msg.id);
    out.u32(msg.retryAfterMs);
    return out.data();
}

BusyMsg
decodeBusy(std::string_view payload)
{
    BinReader in = payloadReader(payload);
    BusyMsg msg;
    msg.id = in.u32("request id");
    msg.retryAfterMs = in.u32("retry-after ms");
    expectEnd(in);
    return msg;
}

std::string
encodeShutdown()
{
    return payloadWriter().data();
}

void
decodeShutdown(std::string_view payload)
{
    BinReader in = payloadReader(payload);
    expectEnd(in);
}

} // namespace server
} // namespace rppm
