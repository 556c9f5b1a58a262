#include "serve/wire.h"

#include <cstring>

#include "common/logging.h"

namespace flexnerfer {
namespace wire {
namespace {

void
AppendU8(std::string& out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
AppendU16(std::string& out, std::uint16_t v)
{
    for (int i = 0; i < 2; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
}

void
AppendU32(std::string& out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
}

void
AppendU64(std::string& out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
}

void
AppendF64(std::string& out, double v)
{
    static_assert(sizeof(double) == sizeof(std::uint64_t),
                  "IEEE-754 double expected");
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    AppendU64(out, bits);
}

void
AppendString(std::string& out, const std::string& s)
{
    AppendU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

/// Cursor over a decoded payload; every read bounds-checks against the
/// declared payload size so a truncated or padded frame dies loudly.
class Reader {
public:
    Reader(const std::string& frame, std::size_t begin, std::size_t end)
        : frame_(frame), pos_(begin), end_(end)
    {
    }

    std::uint8_t
    U8()
    {
        Need(1);
        return static_cast<std::uint8_t>(frame_[pos_++]);
    }

    std::uint16_t
    U16()
    {
        Need(2);
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i) {
            v |= static_cast<std::uint16_t>(
                     static_cast<std::uint8_t>(frame_[pos_ + i]))
                 << (8 * i);
        }
        pos_ += 2;
        return v;
    }

    std::uint32_t
    U32()
    {
        Need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(frame_[pos_ + i]))
                 << (8 * i);
        }
        pos_ += 4;
        return v;
    }

    std::uint64_t
    U64()
    {
        Need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(frame_[pos_ + i]))
                 << (8 * i);
        }
        pos_ += 8;
        return v;
    }

    double
    F64()
    {
        const std::uint64_t bits = U64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    String()
    {
        const std::uint32_t size = U32();
        Need(size);
        std::string s = frame_.substr(pos_, size);
        pos_ += size;
        return s;
    }

    /// The payload must be fully consumed — trailing bytes mean the
    /// sender serialized a newer shape than this decoder understands.
    void
    Finish() const
    {
        if (pos_ != end_) {
            Fatal("wire: frame payload has " + std::to_string(end_ - pos_) +
                  " undecoded trailing byte(s) - version skew?");
        }
    }

private:
    void
    Need(std::size_t bytes) const
    {
        if (pos_ + bytes > end_) {
            Fatal("wire: truncated frame (needed " + std::to_string(bytes) +
                  " more byte(s) at offset " + std::to_string(pos_) + ")");
        }
    }

    const std::string& frame_;
    std::size_t pos_;
    std::size_t end_;
};

std::string
Frame(MessageType type, const std::string& payload)
{
    std::string out;
    out.reserve(kHeaderSize + payload.size());
    AppendU32(out, kMagic);
    AppendU16(out, kVersion);
    AppendU8(out, static_cast<std::uint8_t>(type));
    AppendU8(out, 0);  // reserved
    AppendU32(out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload);
    return out;
}

/// Validates the header and returns a payload reader.
Reader
OpenFrame(const std::string& frame, MessageType expected)
{
    if (frame.size() < kHeaderSize) {
        Fatal("wire: frame shorter than header (" +
              std::to_string(frame.size()) + " bytes)");
    }
    Reader header(frame, 0, kHeaderSize);
    const std::uint32_t magic = header.U32();
    if (magic != kMagic) {
        Fatal("wire: bad magic 0x" + std::to_string(magic) +
              " - not a FlexNeRFer wire frame");
    }
    const std::uint16_t version = header.U16();
    if (version != kVersion) {
        Fatal("wire: version " + std::to_string(version) +
              " does not match expected " + std::to_string(kVersion));
    }
    const std::uint8_t type = header.U8();
    if (type != static_cast<std::uint8_t>(expected)) {
        Fatal("wire: message type " + std::to_string(type) +
              " does not match expected " +
              std::to_string(static_cast<std::uint8_t>(expected)));
    }
    header.U8();  // reserved
    const std::uint32_t payload_size = header.U32();
    if (kHeaderSize + payload_size != frame.size()) {
        Fatal("wire: header declares " + std::to_string(payload_size) +
              " payload byte(s) but frame carries " +
              std::to_string(frame.size() - kHeaderSize));
    }
    return Reader(frame, kHeaderSize, frame.size());
}

void
AppendFrameCost(std::string& out, const FrameCost& cost)
{
    AppendF64(out, cost.latency_ms);
    AppendF64(out, cost.energy_mj);
    AppendF64(out, cost.gemm_ms);
    AppendF64(out, cost.encoding_ms);
    AppendF64(out, cost.other_ms);
    AppendF64(out, cost.codec_ms);
    AppendF64(out, cost.dram_ms);
    AppendF64(out, cost.gemm_utilization);
    AppendF64(out, cost.gemm_macs);
    AppendF64(out, cost.critical_path_ms);
}

FrameCost
ReadFrameCost(Reader& reader)
{
    FrameCost cost;
    cost.latency_ms = reader.F64();
    cost.energy_mj = reader.F64();
    cost.gemm_ms = reader.F64();
    cost.encoding_ms = reader.F64();
    cost.other_ms = reader.F64();
    cost.codec_ms = reader.F64();
    cost.dram_ms = reader.F64();
    cost.gemm_utilization = reader.F64();
    cost.gemm_macs = reader.F64();
    cost.critical_path_ms = reader.F64();
    return cost;
}

}  // namespace

std::string
EncodeSceneRequest(const SceneRequest& request)
{
    std::string payload;
    AppendString(payload, request.scene);
    AppendU64(payload, static_cast<std::uint64_t>(request.tier));
    AppendU64(payload, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(request.priority)));
    AppendF64(payload, request.deadline_ms);
    AppendF64(payload, request.arrival_ms);
    return Frame(MessageType::kSceneRequest, payload);
}

SceneRequest
DecodeSceneRequest(const std::string& frame)
{
    Reader reader = OpenFrame(frame, MessageType::kSceneRequest);
    SceneRequest request;
    request.scene = reader.String();
    request.tier = static_cast<std::size_t>(reader.U64());
    request.priority =
        static_cast<int>(static_cast<std::int64_t>(reader.U64()));
    request.deadline_ms = reader.F64();
    request.arrival_ms = reader.F64();
    reader.Finish();
    return request;
}

std::string
EncodeRenderResult(const RenderResult& result)
{
    std::string payload;
    AppendU8(payload, static_cast<std::uint8_t>(result.status));
    AppendString(payload, result.scene);
    AppendU64(payload, static_cast<std::uint64_t>(result.tier));
    AppendFrameCost(payload, result.cost);
    AppendF64(payload, result.queue_wait_ms);
    AppendF64(payload, result.latency_ms);
    AppendU64(payload, static_cast<std::uint64_t>(result.batch_elements));
    return Frame(MessageType::kRenderResult, payload);
}

RenderResult
DecodeRenderResult(const std::string& frame)
{
    Reader reader = OpenFrame(frame, MessageType::kRenderResult);
    RenderResult result;
    const std::uint8_t status = reader.U8();
    if (status > static_cast<std::uint8_t>(RequestStatus::kFailedTransport)) {
        Fatal("wire: unknown request status " + std::to_string(status));
    }
    result.status = static_cast<RequestStatus>(status);
    result.scene = reader.String();
    result.tier = static_cast<std::size_t>(reader.U64());
    result.cost = ReadFrameCost(reader);
    result.queue_wait_ms = reader.F64();
    result.latency_ms = reader.F64();
    result.batch_elements = static_cast<std::size_t>(reader.U64());
    reader.Finish();
    return result;
}

std::string
EncodeSnapshot(const WireSnapshot& snapshot)
{
    std::string payload;
    AppendU64(payload, snapshot.shard);
    AppendU64(payload, snapshot.submitted);
    AppendU64(payload, snapshot.accepted);
    AppendU64(payload, snapshot.rejected_queue_full);
    AppendU64(payload, snapshot.shed_deadline);
    AppendU64(payload, snapshot.completed);
    AppendF64(payload, snapshot.busy_ms);
    AppendF64(payload, snapshot.p50_latency_ms);
    AppendF64(payload, snapshot.p99_latency_ms);
    return Frame(MessageType::kShardSnapshot, payload);
}

WireSnapshot
DecodeSnapshot(const std::string& frame)
{
    Reader reader = OpenFrame(frame, MessageType::kShardSnapshot);
    WireSnapshot snapshot;
    snapshot.shard = reader.U64();
    snapshot.submitted = reader.U64();
    snapshot.accepted = reader.U64();
    snapshot.rejected_queue_full = reader.U64();
    snapshot.shed_deadline = reader.U64();
    snapshot.completed = reader.U64();
    snapshot.busy_ms = reader.F64();
    snapshot.p50_latency_ms = reader.F64();
    snapshot.p99_latency_ms = reader.F64();
    reader.Finish();
    return snapshot;
}

}  // namespace wire
}  // namespace flexnerfer
