// Context-beacon encryption (paper §3.4).
//
// "Beacons for sharing context can be encrypted using symmetric encryption.
// The key to decrypt the beacon could be shared out of band" — this module
// provides that: a symmetric cipher sealing whole packed structs so that
// only devices provisioned with the shared key can read (or even parse)
// context and address beacons.
//
// Construction: XTEA-64 in counter mode with a 64-bit per-message nonce and
// a 4-byte integrity tag. XTEA is a real block cipher and adequate for the
// simulated testbed; a production deployment would swap in AES-GCM behind
// the same interface.
//
// Sealed wire format:  [0xE0][8-byte nonce][4-byte tag][ciphertext...]
// 0xE0 can never be a valid PacketKind, so receivers unambiguously
// distinguish sealed from plain packets.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "common/types.h"

namespace omni {

/// Marker byte identifying a sealed packet.
inline constexpr std::uint8_t kSealedPacketMarker = 0xE0;
/// Header overhead of a sealed packet (marker + nonce + tag).
inline constexpr std::size_t kSealOverhead = 1 + 8 + 4;

class BeaconCipher {
 public:
  /// Derive a 128-bit key from arbitrary key material (e.g. a passphrase
  /// provisioned out of band).
  explicit BeaconCipher(std::span<const std::uint8_t> key_material);

  /// Encrypt and authenticate `plain` under `nonce`. Nonces must not repeat
  /// for distinct messages under one key; OmniManager uses a counter.
  Bytes seal(std::span<const std::uint8_t> plain, std::uint64_t nonce) const;

  /// Decrypt and verify a sealed packet. nullopt on wrong key, tampering,
  /// or malformed input.
  std::optional<Bytes> open(std::span<const std::uint8_t> sealed) const;

  /// True if the buffer carries the sealed-packet marker.
  static bool looks_sealed(std::span<const std::uint8_t> wire) {
    return !wire.empty() && wire[0] == kSealedPacketMarker;
  }

 private:
  /// One 64-bit XTEA block encryption.
  std::uint64_t encrypt_block(std::uint64_t block) const;
  /// Keystream byte i under `nonce`.
  void keystream(std::uint64_t nonce, std::size_t length,
                 std::uint8_t* out) const;
  std::uint32_t tag(std::span<const std::uint8_t> plain,
                    std::uint64_t nonce) const;

  std::array<std::uint32_t, 4> key_{};
};

}  // namespace omni
