// QueryLabel: a query's display text, rendered once at submit into one
// immutable, reference-counted heap block.
//
// A label never changes after submit, yet it appears in every published
// snapshot row. The scheduler's record, the service's per-query column
// and each row hold handles to the same block, so building a row copies
// a pointer and dropping a snapshot frees no strings. The block is a
// single allocation (a 4-byte count followed by the characters; the
// length lives in the handle), so a handle costs one malloc chunk the
// size of a std::string's heap buffer, and the handle itself is half a
// std::string. The count is atomic and the text is immutable, so
// handles may be copied and dropped on any thread: the ticker builds
// rows, readers drop the snapshots that carry them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

namespace mqpi {

class QueryLabel {
 public:
  QueryLabel() noexcept = default;
  /// Copies `text` into a fresh block; empty text allocates nothing.
  explicit QueryLabel(std::string_view text);

  QueryLabel(const QueryLabel& other) noexcept
      : block_(other.block_), size_(other.size_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  QueryLabel(QueryLabel&& other) noexcept
      : block_(other.block_), size_(other.size_) {
    other.block_ = nullptr;
    other.size_ = 0;
  }
  QueryLabel& operator=(const QueryLabel& other) noexcept {
    QueryLabel copy(other);
    Swap(copy);
    return *this;
  }
  QueryLabel& operator=(QueryLabel&& other) noexcept {
    QueryLabel moved(std::move(other));
    Swap(moved);
    return *this;
  }
  ~QueryLabel() { Release(); }

  /// The text; data() is not NUL-terminated.
  std::string_view view() const noexcept { return {data(), size_}; }
  operator std::string_view() const noexcept { return view(); }
  const char* data() const noexcept {
    return block_ != nullptr ? reinterpret_cast<const char*>(block_ + 1) : "";
  }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::string str() const { return std::string(view()); }

  friend bool operator==(const QueryLabel& a, const QueryLabel& b) noexcept {
    return a.view() == b.view();
  }
  friend bool operator==(const QueryLabel& a, std::string_view b) noexcept {
    return a.view() == b;
  }

 private:
  /// Header of the heap block; the characters follow it.
  struct Block {
    std::atomic<std::uint32_t> refs{1};
  };

  void Swap(QueryLabel& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(size_, other.size_);
  }
  void Release() noexcept;

  Block* block_ = nullptr;
  std::size_t size_ = 0;
};

std::ostream& operator<<(std::ostream& os, const QueryLabel& label);

}  // namespace mqpi
