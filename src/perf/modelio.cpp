#include "perf/modelio.hpp"

#include <unordered_set>

#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"

namespace hslb::perf {

std::string models_to_csv(const std::vector<NamedModel>& models) {
  csv::Document doc;
  doc.header = {"task", "a", "b", "c", "d", "min_nodes", "max_nodes"};
  for (const auto& m : models) {
    doc.rows.push_back({m.task, strings::format("%.17g", m.model.a),
                        strings::format("%.17g", m.model.b),
                        strings::format("%.17g", m.model.c),
                        strings::format("%.17g", m.model.d),
                        std::to_string(m.min_nodes),
                        std::to_string(m.max_nodes)});
  }
  return csv::write(doc);
}

std::vector<NamedModel> models_from_csv(const std::string& text) {
  const auto doc = csv::parse(text);
  const auto ct = doc.column("task");
  const auto ca = doc.column("a");
  const auto cb = doc.column("b");
  const auto cc = doc.column("c");
  const auto cd = doc.column("d");
  // Node-range columns are optional for hand-written files.
  const bool has_range =
      [&] {
        for (const auto& h : doc.header)
          if (h == "min_nodes") return true;
        return false;
      }();
  std::vector<NamedModel> out;
  std::unordered_set<std::string> seen;
  for (const auto& row : doc.rows) {
    NamedModel m;
    m.task = row[ct];
    m.model.a = strings::to_double(row[ca]);
    m.model.b = strings::to_double(row[cb]);
    m.model.c = strings::to_double(row[cc]);
    m.model.d = strings::to_double(row[cd]);
    if (has_range) {
      m.min_nodes = strings::to_int(row[doc.column("min_nodes")]);
      m.max_nodes = strings::to_int(row[doc.column("max_nodes")]);
    }
    HSLB_EXPECTS(m.model.valid());
    HSLB_EXPECTS(seen.insert(m.task).second);  // task names are unique
    out.push_back(std::move(m));
  }
  return out;
}

void save_models(const std::string& path, const std::vector<NamedModel>& models) {
  csv::write_file(path, csv::parse(models_to_csv(models)));
}

std::vector<NamedModel> load_models(const std::string& path) {
  return models_from_csv(csv::write(csv::read_file(path)));
}

}  // namespace hslb::perf
