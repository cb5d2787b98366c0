// CSV persistence for fitted performance models, so the Fit and Solve
// steps can run as separate processes (the authors' workflow: timing files
// -> AMPL fitting script -> allocation script).
//
// Format: task,a,b,c,d[,min_nodes,max_nodes]
#pragma once

#include <string>
#include <vector>

#include "perf/model.hpp"

namespace hslb::perf {

struct NamedModel {
  std::string task;
  Model model;
  long long min_nodes = 1;
  long long max_nodes = 0;  ///< 0 = unspecified
};

std::string models_to_csv(const std::vector<NamedModel>& models);
/// Throws ContractViolation on a malformed file, a model failing
/// Model::valid(), or a repeated task name.
std::vector<NamedModel> models_from_csv(const std::string& text);

void save_models(const std::string& path, const std::vector<NamedModel>& models);
std::vector<NamedModel> load_models(const std::string& path);

}  // namespace hslb::perf
