// Namespaced flow-id allocation for Tracer::flow_begin/flow_end.
//
// Flow arrows are matched purely by their 64-bit id, and several
// subsystems mint ids independently: the wire path hashes
// (src, dst, tag, seq), the offload path uses the request's span id, and
// future sources (RPC requests, trace exemplars) will mint their own.
// Two independent allocators sharing the full 64-bit space can collide —
// an FNV hash of one wire message can land exactly on the packed id of an
// unrelated offload — and a collision cross-links two arrows into one
// nonsense diagonal in the viewer.  Reserving the top byte for the source
// class makes ids from different subsystems disjoint by construction; the
// low 56 bits remain per-class (2^56 hash space keeps the wire path's
// accidental-collision odds negligible).
#pragma once

#include <cstdint>

namespace pm2::sim {

/// Flow-arrow source classes.  Each class owns the 56-bit id space below
/// its tag byte; add new sources here rather than minting raw ids.
enum class FlowClass : std::uint8_t {
  kWire = 1,     // sender injection -> receiver delivery (hashed identity)
  kOffload = 2,  // isend post -> tasklet pickup (request span id)
  kRpc = 3,      // rpc request lineage (reserved)
  kTrace = 4,    // causal-trace exemplar links (reserved)
};

inline constexpr std::uint64_t kFlowLowMask = (std::uint64_t{1} << 56) - 1;

/// Compose a namespaced flow id: top byte = source class, low 56 bits =
/// the class-local identity (masked, so a wide hash cannot leak upward).
[[nodiscard]] constexpr std::uint64_t flow_id(FlowClass cls,
                                              std::uint64_t low) noexcept {
  return (static_cast<std::uint64_t>(cls) << 56) | (low & kFlowLowMask);
}

/// The source class a namespaced id was minted under.
[[nodiscard]] constexpr FlowClass flow_class(std::uint64_t id) noexcept {
  return static_cast<FlowClass>(id >> 56);
}

}  // namespace pm2::sim
