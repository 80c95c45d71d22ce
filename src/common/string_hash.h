// Transparent string hashing for unordered containers keyed by
// std::string: with std::equal_to<> as the key equality, find() takes a
// std::string_view and builds no key.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>

namespace nagano {

struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace nagano
