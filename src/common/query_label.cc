#include "common/query_label.h"

#include <cstring>
#include <new>
#include <ostream>

namespace mqpi {

QueryLabel::QueryLabel(std::string_view text) : size_(text.size()) {
  if (text.empty()) return;
  void* raw = ::operator new(sizeof(Block) + text.size());
  block_ = new (raw) Block;
  std::memcpy(reinterpret_cast<char*>(block_ + 1), text.data(), text.size());
}

void QueryLabel::Release() noexcept {
  if (block_ == nullptr) return;
  // acq_rel: the last owner's free happens after every other owner's
  // reads of the text.
  if (block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    block_->~Block();
    ::operator delete(block_);
  }
  block_ = nullptr;
}

std::ostream& operator<<(std::ostream& os, const QueryLabel& label) {
  return os << label.view();
}

}  // namespace mqpi
