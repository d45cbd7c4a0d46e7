#include "spans.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace perfbench {

void SpanRecorder::write(std::ostream& os) const {
  struct Fold {
    std::uint64_t count{0};
    std::int64_t total_ns{0};
    std::int64_t max_ns{0};
  };
  // Keyed by (parent index or -1, name).
  std::map<std::pair<std::int64_t, SpanName>, Fold> folds;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t parent = s.parent == Span::kNoParent
                                    ? std::int64_t{-1}
                                    : static_cast<std::int64_t>(s.parent);
    if (s.name == SpanName::kSubmit || s.name == SpanName::kInvoke) {
      Fold& f = folds[{parent, s.name}];
      ++f.count;
      f.total_ns += s.duration_ns();
      f.max_ns = std::max(f.max_ns, s.duration_ns());
      continue;
    }
    os << "span " << s.run << ' ' << i << ' ' << parent << ' '
       << to_string(s.name) << ' ' << s.start_ns << ' ' << s.end_ns << '\n';
  }
  for (const auto& [key, f] : folds) {
    os << "calls " << run_ << ' ' << key.first << ' ' << to_string(key.second)
       << ' ' << f.count << ' ' << f.total_ns << ' ' << f.max_ns << '\n';
  }
}

}  // namespace perfbench
