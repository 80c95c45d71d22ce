#include "common/intern.h"

#include <cassert>
#include <mutex>

namespace nagano {

InternId StringInterner::Intern(std::string_view s) {
  {
    std::shared_lock lock(mutex_);
    auto it = index_.find(s);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  auto it = index_.find(s);  // re-check: raced with another interner
  if (it != index_.end()) return it->second;
  const auto id = static_cast<InternId>(storage_.size());
  storage_.emplace_back(s);
  index_.emplace(std::string_view(storage_.back()), id);
  return id;
}

InternId StringInterner::Lookup(std::string_view s) const {
  std::shared_lock lock(mutex_);
  auto it = index_.find(s);
  return it == index_.end() ? kInvalidInternId : it->second;
}

std::string_view StringInterner::Name(InternId id) const {
  std::shared_lock lock(mutex_);
  assert(id < storage_.size());
  return storage_[id];
}

}  // namespace nagano
