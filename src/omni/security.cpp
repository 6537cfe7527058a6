#include "omni/security.h"

#include <cstring>

#include "common/byte_buffer.h"
#include "common/hash.h"

namespace omni {

namespace {
constexpr std::uint32_t kXteaDelta = 0x9E3779B9;
constexpr int kXteaRounds = 32;
}  // namespace

BeaconCipher::BeaconCipher(std::span<const std::uint8_t> key_material) {
  // Stretch arbitrary key material into 4 x 32-bit subkeys via seeded FNV.
  std::uint64_t h1 = fnv1a64(key_material);
  std::uint64_t h2 = fnv1a64(key_material, h1 ^ 0x5bd1e995u);
  key_[0] = static_cast<std::uint32_t>(h1);
  key_[1] = static_cast<std::uint32_t>(h1 >> 32);
  key_[2] = static_cast<std::uint32_t>(h2);
  key_[3] = static_cast<std::uint32_t>(h2 >> 32);
}

std::uint64_t BeaconCipher::encrypt_block(std::uint64_t block) const {
  std::uint32_t v0 = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t v1 = static_cast<std::uint32_t>(block);
  std::uint32_t sum = 0;
  for (int i = 0; i < kXteaRounds; ++i) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key_[sum & 3]);
    sum += kXteaDelta;
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key_[(sum >> 11) & 3]);
  }
  return (static_cast<std::uint64_t>(v0) << 32) | v1;
}

void BeaconCipher::keystream(std::uint64_t nonce, std::size_t length,
                             std::uint8_t* out) const {
  std::uint64_t counter = 0;
  std::size_t produced = 0;
  while (produced < length) {
    std::uint64_t block = encrypt_block(nonce ^ counter);
    ++counter;
    for (int i = 0; i < 8 && produced < length; ++i, ++produced) {
      out[produced] = static_cast<std::uint8_t>(block >> (8 * (7 - i)));
    }
  }
}

std::uint32_t BeaconCipher::tag(std::span<const std::uint8_t> plain,
                                std::uint64_t nonce) const {
  // CBC-MAC style tag over the plaintext, keyed by the cipher itself.
  std::uint64_t acc = encrypt_block(nonce ^ 0xA5A5A5A5A5A5A5A5ull);
  std::uint64_t block = 0;
  int fill = 0;
  for (std::uint8_t b : plain) {
    block = (block << 8) | b;
    if (++fill == 8) {
      acc = encrypt_block(acc ^ block);
      block = 0;
      fill = 0;
    }
  }
  // Final partial block carries the length to prevent extension games.
  block = (block << 8) | (plain.size() & 0xff);
  acc = encrypt_block(acc ^ block);
  return static_cast<std::uint32_t>(acc ^ (acc >> 32));
}

Bytes BeaconCipher::seal(std::span<const std::uint8_t> plain,
                         std::uint64_t nonce) const {
  ByteWriter w(plain.size() + kSealOverhead);
  w.u8(kSealedPacketMarker);
  w.u64(nonce);
  w.u32(tag(plain, nonce));
  Bytes cipher(plain.size());
  keystream(nonce, cipher.size(), cipher.data());
  for (std::size_t i = 0; i < plain.size(); ++i) cipher[i] ^= plain[i];
  w.raw(cipher);
  return std::move(w).take();
}

std::optional<Bytes> BeaconCipher::open(
    std::span<const std::uint8_t> sealed) const {
  if (sealed.size() < kSealOverhead || sealed[0] != kSealedPacketMarker) {
    return std::nullopt;
  }
  ByteReader r(sealed.subspan(1));
  std::uint64_t nonce = r.u64().value();
  std::uint32_t expected_tag = r.u32().value();
  std::span<const std::uint8_t> body = sealed.subspan(kSealOverhead);
  Bytes plain(body.size());
  // Keystream generated straight into `plain`, then XORed with the
  // ciphertext in place — no temporary buffer.
  keystream(nonce, plain.size(), plain.data());
  for (std::size_t i = 0; i < body.size(); ++i) plain[i] ^= body[i];
  if (tag(plain, nonce) != expected_tag) return std::nullopt;
  return plain;
}

}  // namespace omni
