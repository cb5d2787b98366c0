#include "hslb/allocation.hpp"

#include <sstream>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace hslb {

const TaskAllocation& Allocation::find(const std::string& task) const {
  for (const auto& t : tasks)
    if (t.task == task) return t;
  HSLB_EXPECTS(!"allocation task not found");
  return tasks.front();  // unreachable
}

bool Allocation::contains(const std::string& task) const {
  for (const auto& t : tasks)
    if (t.task == task) return true;
  return false;
}

long long Allocation::total_nodes() const {
  long long total = 0;
  for (const auto& t : tasks) total += t.nodes;
  return total;
}

std::string Allocation::str() const {
  std::ostringstream out;
  for (const auto& t : tasks) {
    out << strings::format("%-12s %8lld nodes   %#12.6g s\n", t.task.c_str(),
                           t.nodes, t.predicted_seconds);
  }
  out << strings::format("%-12s %8s         %#12.6g s\n", "total", "",
                         predicted_total);
  return out.str();
}

}  // namespace hslb
