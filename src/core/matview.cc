#include "core/matview.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace popdb {

void MatViewRegistry::Register(TableSet set, SharedRows rows,
                               std::vector<int> sorted_positions) {
  auto view = std::find_if(views_.begin(), views_.end(),
                           [set](const AvailableMatView& v) {
                             return v.set == set;
                           });
  if (view == views_.end()) {
    view = views_.insert(views_.end(), AvailableMatView{});
    view->name = StrFormat("tmpmv_%zu_0x%llx", views_.size() - 1,
                           static_cast<unsigned long long>(set));
    view->set = set;
  }
  view->card = static_cast<double>(rows->size());
  view->rows = std::move(rows);
  view->sorted_positions = std::move(sorted_positions);
}

}  // namespace popdb
