// Byte-level serialization of packets.
//
// All multi-byte fields are network byte order (big-endian).  Parse errors
// are reported via std::optional rather than exceptions: a malformed frame on
// a network is an expected input, not a programming error.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/buffer.h"
#include "net/packet.h"

namespace redplane::net {

/// Appends big-endian integers to a byte buffer.  Exposed for the RedPlane
/// protocol codec, which extends packets with its own header.  Each call
/// appends one whole field; reserve the vector first to write without
/// reallocating.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::byte>& out) : out_(out) {}

  void U8(std::uint8_t v) { out_.push_back(std::byte{v}); }
  void U16(std::uint16_t v) { Field(v); }
  void U32(std::uint32_t v) { Field(v); }
  void U64(std::uint64_t v) { Field(v); }
  void Bytes(std::span<const std::byte> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  /// Appends `n` zero bytes.
  void Zeros(std::size_t n) { out_.resize(out_.size() + n); }

  std::size_t Size() const { return out_.size(); }
  /// Overwrites a previously written 16-bit field at `offset`.
  void PatchU16(std::size_t offset, std::uint16_t v) {
    assert(offset + 2 <= out_.size());
    StoreBE(out_.data() + offset, v);
  }

 private:
  template <typename T>
  void Field(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    StoreBE(out_.data() + at, v);
  }

  std::vector<std::byte>& out_;
};

/// Reads big-endian integers from a byte buffer; all reads are bounds
/// checked and flip a sticky error flag on overrun (a failed read returns 0
/// and consumes nothing).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t U8() { return Field<std::uint8_t>(); }
  std::uint16_t U16() { return Field<std::uint16_t>(); }
  std::uint32_t U32() { return Field<std::uint32_t>(); }
  std::uint64_t U64() { return Field<std::uint64_t>(); }
  /// Copies the next `out.size()` bytes into `out`.
  void Read(std::span<std::byte> out) {
    if (!Ensure(out.size())) return;
    std::copy_n(data_.data() + pos_, out.size(), out.data());
    pos_ += out.size();
  }
  void Skip(std::size_t n) {
    if (Ensure(n)) pos_ += n;
  }

  /// Bytes consumed so far.
  std::size_t Position() const { return pos_; }
  std::size_t Remaining() const { return data_.size() - pos_; }
  bool ok() const { return ok_; }

 private:
  bool Ensure(std::size_t n) {
    if (n > data_.size() - pos_) ok_ = false;
    return ok_;
  }
  template <typename T>
  T Field() {
    if (!Ensure(sizeof(T))) return 0;
    const T v = LoadBE<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Number of bytes Serialize(p) produces.
std::size_t SerializedSize(const Packet& p);

/// Appends the wire bytes of `p` (Ethernet/IP/UDP-or-TCP/payload) to the
/// writer: exactly SerializedSize(p) bytes.  Pad bytes are emitted as zeros.
/// Length and checksum fields are computed.
void SerializeInto(const Packet& p, ByteWriter& w);

/// Serializes a packet to wire bytes, in one exactly-sized allocation.
std::vector<std::byte> Serialize(const Packet& p);

/// Parses wire bytes back into a structured packet.  The parsed packet's
/// `payload` is a zero-copy slice of `wire` holding everything after the
/// innermost recognized header (pad bytes are not distinguishable from
/// payload on the wire, so they come back inside `payload`).  Returns
/// nullopt on malformed input or bad checksums.
std::optional<Packet> Parse(const BufferView& wire);

/// --- batch envelope (DESIGN.md §10) ---
///
/// Frames N already-encoded messages as one payload:
///
///   magic(u16) | count(u16) | { len(u32) | bytes }*count
///
/// The envelope is payload-agnostic: sub-messages are opaque byte runs, so
/// the net layer never re-serializes (or even understands) what it wraps.
/// The magic is distinct from any inner protocol's so a one-lookahead
/// classifier can tell envelope from single message.

/// First two payload bytes of a batch envelope frame.
constexpr std::uint16_t kBatchMagic = 0xB47C;

/// Number of framing bytes for an envelope of `count` sub-messages (header
/// plus per-sub length prefixes); used for bandwidth accounting.
constexpr std::size_t BatchOverheadBytes(std::size_t count) {
  return 4 + 4 * count;
}

/// True if `payload` starts with the batch magic.
bool IsBatchFrame(const BufferView& payload);

/// Concatenates already-encoded sub-messages into one envelope frame.  One
/// backing-store allocation; each sub-message is memcpy'd verbatim — no
/// re-serialization of its contents.  An empty span yields a valid empty
/// envelope (count 0).
BufferView EncodeBatchEnvelope(std::span<const BufferView> msgs);

/// Zero-copy view of a parsed envelope: `at(i)` slices share the frame's
/// backing buffer, so unpacking a batch allocates nothing but the offset
/// table.
class BatchView {
 public:
  /// Validates the magic, the count, and every sub-message length against
  /// the frame bounds; nullopt on truncation or trailing garbage.
  static std::optional<BatchView> Parse(BufferView frame);

  std::size_t size() const { return subs_.size(); }
  bool empty() const { return subs_.empty(); }
  const BufferView& at(std::size_t i) const { return subs_[i]; }
  const std::vector<BufferView>& subs() const { return subs_; }

 private:
  std::vector<BufferView> subs_;
};

}  // namespace redplane::net
