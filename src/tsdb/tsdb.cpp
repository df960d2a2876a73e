#include "tsdb/tsdb.hpp"

#include <algorithm>

namespace ruru {

void TagSet::normalize() const {
  if (normalized_) return;
  std::sort(tags_.begin(), tags_.end());
  normalized_ = true;
}

const std::string& TagSet::canonical() const {
  if (canonical_valid_) return canonical_;
  normalize();
  canonical_.clear();
  for (const auto& [k, v] : tags_) {
    if (!canonical_.empty()) canonical_.push_back(',');
    canonical_ += k;
    canonical_.push_back('=');
    canonical_ += v;
  }
  canonical_valid_ = true;
  return canonical_;
}

}  // namespace ruru
