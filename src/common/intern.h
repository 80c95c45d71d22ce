// Thread-safe string interner. ODG node names (URLs, database keys) are
// interned to dense 32-bit ids so graph storage and traversal work on
// integers.
#pragma once

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace nagano {

using InternId = uint32_t;
constexpr InternId kInvalidInternId = UINT32_MAX;

class StringInterner {
 public:
  // Returns the id for `s`, creating one if unseen. Ids are dense,
  // starting at 0, stable for the interner's lifetime.
  InternId Intern(std::string_view s);

  // kInvalidInternId if unseen. Never allocates.
  InternId Lookup(std::string_view s) const;

  // The interned string; id must be valid. The view stays valid for the
  // interner's lifetime (storage is a deque, never reallocated).
  std::string_view Name(InternId id) const;

 private:
  // Reader/writer: lookups far outnumber first-time interns once the site
  // is built, and the re-render path resolves every name through here.
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string_view, InternId> index_;
  std::deque<std::string> storage_;
};

}  // namespace nagano
