#include "serve/wire.h"

#include <cstdio>
#include <cstring>

#include "common/logging.h"

namespace flexnerfer {
namespace wire {
namespace {

/// Writes one frame into a caller-owned buffer: the header first, with
/// a placeholder payload size that Close() patches once the payload is
/// in. Multi-byte fields go in as one little-endian chunk each.
class Writer {
public:
    Writer(std::string& out, MessageType type, std::size_t payload_bytes)
        : out_(out)
    {
        out_.clear();
        const std::size_t frame_bytes = kHeaderSize + payload_bytes;
        if (out_.capacity() < frame_bytes) out_.reserve(frame_bytes);
        U32(kMagic);
        U16(kVersion);
        U8(static_cast<std::uint8_t>(type));
        U8(0);  // reserved
        U32(0);  // payload size, patched by Close()
    }

    void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void U16(std::uint16_t v) { Put<2>(v); }
    void U32(std::uint32_t v) { Put<4>(v); }
    void U64(std::uint64_t v) { Put<8>(v); }

    void
    F64(double v)
    {
        static_assert(sizeof(double) == sizeof(std::uint64_t),
                      "IEEE-754 double expected");
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        U64(bits);
    }

    void
    String(const std::string& s)
    {
        U32(static_cast<std::uint32_t>(s.size()));
        out_.append(s);
    }

    /// Patches the header's payload size (offset 8, after magic,
    /// version, type and reserved) to what was written.
    void
    Close()
    {
        char size[4];
        LittleEndian<4>(out_.size() - kHeaderSize, size);
        std::memcpy(&out_[kHeaderSize - 4], size, sizeof(size));
    }

private:
    template <int N>
    static void
    LittleEndian(std::uint64_t v, char* bytes)
    {
        for (int i = 0; i < N; ++i) {
            bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
        }
    }

    template <int N>
    void
    Put(std::uint64_t v)
    {
        char bytes[N];
        LittleEndian<N>(v, bytes);
        out_.append(bytes, N);
    }

    std::string& out_;
};

/// Cursor over a decoded payload; every read bounds-checks against the
/// declared payload size so a truncated or padded frame dies loudly.
class Reader {
public:
    Reader(std::string_view frame, std::size_t begin, std::size_t end)
        : frame_(frame), pos_(begin), end_(end)
    {
    }

    std::uint8_t
    U8()
    {
        Need(1);
        return static_cast<std::uint8_t>(frame_[pos_++]);
    }

    std::uint16_t U16() { return static_cast<std::uint16_t>(Get<2>()); }
    std::uint32_t U32() { return static_cast<std::uint32_t>(Get<4>()); }
    std::uint64_t U64() { return Get<8>(); }

    double
    F64()
    {
        const std::uint64_t bits = U64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    /// Reads a length-prefixed string into @p s, reusing its capacity.
    void
    String(std::string& s)
    {
        const std::uint32_t size = U32();
        Need(size);
        s.assign(frame_.data() + pos_, size);
        pos_ += size;
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
    template <int N>
    std::uint64_t
    Get()
    {
        Need(N);
        std::uint64_t v = 0;
        for (int i = 0; i < N; ++i) {
            v |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(frame_[pos_ + i]))
                 << (8 * i);
        }
        pos_ += N;
        return v;
    }

    void
    Need(std::size_t bytes) const
    {
        if (pos_ + bytes > end_) {
            Fatal("wire: truncated frame (needed " + std::to_string(bytes) +
                  " more byte(s) at offset " + std::to_string(pos_) + ")");
        }
    }

    std::string_view frame_;
    std::size_t pos_;
    std::size_t end_;
};

/// Validates the header and returns a payload reader.
Reader
OpenFrame(std::string_view frame, MessageType expected)
{
    if (frame.size() < kHeaderSize) {
        Fatal("wire: frame shorter than header (" +
              std::to_string(frame.size()) + " bytes)");
    }
    Reader header(frame, 0, kHeaderSize);
    const std::uint32_t magic = header.U32();
    if (magic != kMagic) {
        char hex[16];
        std::snprintf(hex, sizeof(hex), "0x%08x",
                      static_cast<unsigned>(magic));
        Fatal(std::string("wire: bad magic ") + hex +
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

/// Encoded sizes of the fixed-width payload parts (Writer reserve hints).
constexpr std::size_t kFrameCostBytes = 10 * 8;
constexpr std::size_t kStringPrefixBytes = 4;

void
WriteFrameCost(Writer& writer, const FrameCost& cost)
{
    writer.F64(cost.latency_ms);
    writer.F64(cost.energy_mj);
    writer.F64(cost.gemm_ms);
    writer.F64(cost.encoding_ms);
    writer.F64(cost.other_ms);
    writer.F64(cost.codec_ms);
    writer.F64(cost.dram_ms);
    writer.F64(cost.gemm_utilization);
    writer.F64(cost.gemm_macs);
    writer.F64(cost.critical_path_ms);
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

void
EncodeSceneRequest(const SceneRequest& request, std::string& out)
{
    Writer writer(out, MessageType::kSceneRequest,
                  kStringPrefixBytes + request.scene.size() + 4 * 8);
    writer.String(request.scene);
    writer.U64(static_cast<std::uint64_t>(request.tier));
    writer.U64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(request.priority)));
    writer.F64(request.deadline_ms);
    writer.F64(request.arrival_ms);
    writer.Close();
}

std::string
EncodeSceneRequest(const SceneRequest& request)
{
    std::string frame;
    EncodeSceneRequest(request, frame);
    return frame;
}

void
DecodeSceneRequest(std::string_view frame, SceneRequest& out)
{
    Reader reader = OpenFrame(frame, MessageType::kSceneRequest);
    reader.String(out.scene);
    out.tier = static_cast<std::size_t>(reader.U64());
    out.priority =
        static_cast<int>(static_cast<std::int64_t>(reader.U64()));
    out.deadline_ms = reader.F64();
    out.arrival_ms = reader.F64();
    reader.Finish();
}

SceneRequest
DecodeSceneRequest(std::string_view frame)
{
    SceneRequest request;
    DecodeSceneRequest(frame, request);
    return request;
}

void
EncodeRenderResult(const RenderResult& result, std::string& out)
{
    Writer writer(out, MessageType::kRenderResult,
                  1 + kStringPrefixBytes + result.scene.size() + 8 +
                      kFrameCostBytes + 3 * 8);
    writer.U8(static_cast<std::uint8_t>(result.status));
    writer.String(result.scene);
    writer.U64(static_cast<std::uint64_t>(result.tier));
    WriteFrameCost(writer, result.cost);
    writer.F64(result.queue_wait_ms);
    writer.F64(result.latency_ms);
    writer.U64(static_cast<std::uint64_t>(result.batch_elements));
    writer.Close();
}

std::string
EncodeRenderResult(const RenderResult& result)
{
    std::string frame;
    EncodeRenderResult(result, frame);
    return frame;
}

void
DecodeRenderResult(std::string_view frame, RenderResult& out)
{
    Reader reader = OpenFrame(frame, MessageType::kRenderResult);
    const std::uint8_t status = reader.U8();
    if (status > static_cast<std::uint8_t>(RequestStatus::kFailedTransport)) {
        Fatal("wire: unknown request status " + std::to_string(status));
    }
    out.status = static_cast<RequestStatus>(status);
    reader.String(out.scene);
    out.tier = static_cast<std::size_t>(reader.U64());
    out.cost = ReadFrameCost(reader);
    out.queue_wait_ms = reader.F64();
    out.latency_ms = reader.F64();
    out.batch_elements = static_cast<std::size_t>(reader.U64());
    reader.Finish();
}

RenderResult
DecodeRenderResult(std::string_view frame)
{
    RenderResult result;
    DecodeRenderResult(frame, result);
    return result;
}

std::string
EncodeSnapshot(const WireSnapshot& snapshot)
{
    std::string frame;
    Writer writer(frame, MessageType::kShardSnapshot, 9 * 8);
    writer.U64(snapshot.shard);
    writer.U64(snapshot.submitted);
    writer.U64(snapshot.accepted);
    writer.U64(snapshot.rejected_queue_full);
    writer.U64(snapshot.shed_deadline);
    writer.U64(snapshot.completed);
    writer.F64(snapshot.busy_ms);
    writer.F64(snapshot.p50_latency_ms);
    writer.F64(snapshot.p99_latency_ms);
    writer.Close();
    return frame;
}

WireSnapshot
DecodeSnapshot(std::string_view frame)
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
