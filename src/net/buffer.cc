#include "net/buffer.h"

#include <cstring>

namespace redplane::net {

namespace {
// Per thread, like every other piece of simulation state (DESIGN.md §8).
thread_local std::uint64_t t_deep_copies = 0;
thread_local std::uint64_t t_allocations = 0;
}  // namespace

Buffer Buffer::FromVector(std::vector<std::byte>&& bytes) {
  ++t_allocations;
  return Buffer(
      std::make_shared<std::vector<std::byte>>(std::move(bytes)));
}

Buffer Buffer::CopyOf(std::span<const std::byte> bytes) {
  ++t_allocations;
  ++t_deep_copies;
  return Buffer(std::make_shared<std::vector<std::byte>>(bytes.begin(),
                                                         bytes.end()));
}

std::uint64_t Buffer::DeepCopies() { return t_deep_copies; }

std::uint64_t Buffer::Allocations() { return t_allocations; }

void Buffer::ResetCounters() {
  t_deep_copies = 0;
  t_allocations = 0;
}

std::byte* BufferView::EnsureUnique() {
  if (!buffer_.unique()) {
    // Clone just the viewed range; the view re-bases onto the clone.
    *this = BufferView(Buffer::CopyOf(span()));
  }
  return buffer_.data_->data() + offset_;
}

void BufferView::Patch(std::size_t offset,
                       std::span<const std::byte> bytes) {
  if (offset + bytes.size() > len_ || bytes.empty()) return;
  std::memcpy(EnsureUnique() + offset, bytes.data(), bytes.size());
}

bool operator==(const BufferView& a, const BufferView& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size()) == 0);
}

}  // namespace redplane::net
