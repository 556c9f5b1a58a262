/**
 * @file
 * Versioned wire format for the cross-host cluster shape.
 *
 * The simulated cluster keeps plans, prepared handles, and plan caches
 * strictly shard-local — only *descriptions* cross the wire: scene
 * requests, render results, and telemetry snapshots. Each
 * message is a length-prefixed binary frame:
 *
 *     [magic u32][version u16][type u8][reserved u8][payload u32][payload...]
 *
 * Encoding is explicit little-endian byte serialization (no struct
 * memcpy), so frames are identical across hosts and the decode side can
 * be validated byte-for-byte. A frame is one contiguous buffer: the
 * encoder writes the header with a placeholder size, appends the
 * payload, then patches the size. Hot paths encode into and decode out
 * of buffers they reuse (the two-argument overloads).
 *
 * Any malformed frame — wrong magic, wrong version, wrong message
 * type, a size that disagrees with the header, or an unknown result
 * status — is a `Fatal` error mentioning "wire", because a version
 * skew between controller and shard is an operator error, not a
 * recoverable fault.
 *
 * Determinism contract: Encode(x) is a pure function of x, and
 * Decode(Encode(x)) == x field-for-field (FrameCost has exact
 * operator==). The live submit path round-trips every request through
 * the codec when a transport is attached, so drift between in-process
 * and wire shapes cannot hide.
 */
#ifndef FLEXNERFER_SERVE_WIRE_H_
#define FLEXNERFER_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/render_service.h"

namespace flexnerfer {
namespace wire {

/// Frame magic: "FNRW" (FlexNeRFer wire).
inline constexpr std::uint32_t kMagic = 0x464E5257u;
/// Current format version. Decoders reject any other version.
inline constexpr std::uint16_t kVersion = 1;
/// Fixed header size in bytes.
inline constexpr std::size_t kHeaderSize = 12;

/// Message type tags carried in the frame header. Tag 2 is retired and
/// not reused, so the remaining tags keep their values.
enum class MessageType : std::uint8_t {
    kSceneRequest = 1,
    kRenderResult = 3,
    kShardSnapshot = 4,
};

/// The per-shard telemetry summary a controller pulls over the wire to
/// reconcile merged cluster counters against shard-local truth.
struct WireSnapshot {
    std::uint64_t shard = 0;
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t completed = 0;
    double busy_ms = 0.0;
    double p50_latency_ms = 0.0;
    double p99_latency_ms = 0.0;
};

/// Encoders into a caller-owned buffer: @p out is overwritten with the
/// whole frame (header and payload written in place), and its capacity
/// is kept, so a buffer reused across messages stops allocating.
void EncodeSceneRequest(const SceneRequest& request, std::string& out);
void EncodeRenderResult(const RenderResult& result, std::string& out);

/// Encoders returning a fresh frame: pure functions of their argument.
std::string EncodeSceneRequest(const SceneRequest& request);
std::string EncodeRenderResult(const RenderResult& result);
std::string EncodeSnapshot(const WireSnapshot& snapshot);

/// Decoders: `Fatal` (message contains "wire") on magic/version/type
/// mismatch, on any frame whose size disagrees with its header, and on a
/// result status outside `RequestStatus`. Bounds follow @p frame, not
/// any larger buffer it views. The two-argument forms overwrite every
/// field of @p out, reusing its string capacity.
void DecodeSceneRequest(std::string_view frame, SceneRequest& out);
void DecodeRenderResult(std::string_view frame, RenderResult& out);
SceneRequest DecodeSceneRequest(std::string_view frame);
RenderResult DecodeRenderResult(std::string_view frame);
WireSnapshot DecodeSnapshot(std::string_view frame);

}  // namespace wire
}  // namespace flexnerfer

#endif  // FLEXNERFER_SERVE_WIRE_H_
