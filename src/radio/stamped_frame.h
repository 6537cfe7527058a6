// A frame as the sending radio puts it on the air: its bytes and a stamp.
#pragma once

#include <cstdint>

#include "common/assert.h"
#include "common/types.h"

namespace omni::radio {

/// A nonzero stamp names one exact byte string for the whole run, so a
/// receiver that has already decoded a stamp may trust an equal one without
/// reading the bytes again. The sending radio packs its medium uid (bits
/// 32-62) with a per-radio sequence (bits 0-31) that advances only when an
/// advertisement's or publish's bytes change; bit 63 is set on NAN stamps
/// and clear on BLE ones, so the two media never share a stamp. Datagrams,
/// follow-ups and fault-corrupted copies carry 0: receivers always decode
/// those.
struct StampedFrame {
  Bytes bytes;
  std::uint64_t stamp = 0;
};

/// Advance radio `uid`'s sequence `seq` and return its stamp on the medium
/// tagged `medium_bit` (0 for BLE, 1 for NAN).
inline std::uint64_t next_stamp(std::uint64_t medium_bit, std::uint32_t uid,
                                std::uint32_t& seq) {
  ++seq;
  OMNI_ASSERTF(seq != 0 && uid < (1u << 31),
               "stamp out of range: radio uid %u, sequence %u", uid, seq);
  return (medium_bit << 63) | (std::uint64_t{uid} << 32) | seq;
}

}  // namespace omni::radio
