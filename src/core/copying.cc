#include "core/copying.h"

#include <algorithm>
#include <sstream>

#include "util/strings.h"

namespace slimfast {

std::vector<CopyingRelation> TopCopyingRelations(const SlimFastModel& model,
                                                 int32_t top_k) {
  const ParamLayout& layout = model.layout();
  const auto& pairs = model.instance().model->copy_pairs;
  std::vector<CopyingRelation> relations;
  relations.reserve(pairs.size());
  for (size_t c = 0; c < pairs.size(); ++c) {
    double w = model.weights()[static_cast<size_t>(layout.copy_offset) + c];
    relations.push_back(CopyingRelation{pairs[c].first, pairs[c].second, w});
  }
  std::sort(relations.begin(), relations.end(),
            [](const CopyingRelation& a, const CopyingRelation& b) {
              return a.weight > b.weight;
            });
  if (top_k >= 0 && static_cast<size_t>(top_k) < relations.size()) {
    relations.resize(static_cast<size_t>(top_k));
  }
  return relations;
}

std::string CopyingRelationsToString(
    const std::vector<CopyingRelation>& relations) {
  std::ostringstream out;
  out << PadRight("source A", 10) << PadRight("source B", 10)
      << "copying weight\n";
  for (const CopyingRelation& r : relations) {
    out << PadRight(std::to_string(r.source_a), 10)
        << PadRight(std::to_string(r.source_b), 10)
        << FormatDouble(r.weight, 4) << "\n";
  }
  return out.str();
}

}  // namespace slimfast
