#include "service/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "perf/model.hpp"
#include "sim/noise.hpp"

namespace hslb::service {

namespace {

/// Quantizes to 6 significant digits via a printf round-trip, so values
/// that agree to measurement precision canonicalize identically (and the
/// signature never depends on sub-tolerance noise). Infinity and zero are
/// fixed points.
double quantize(double v) {
  if (!std::isfinite(v) || v == 0.0) return v == 0.0 ? 0.0 : v;
  return strings::to_double(strings::format("%.6g", v));
}

Objective parse_objective_token(const std::string& s) {
  if (s == "min-max") return Objective::MinMax;
  if (s == "max-min") return Objective::MaxMin;
  if (s == "min-sum") return Objective::MinSum;
  throw std::invalid_argument("unknown objective '" + s +
                              "' (expected min-max, max-min, or min-sum)");
}

std::string objective_token(Objective o) {
  switch (o) {
    case Objective::MinMax: return "min-max";
    case Objective::MaxMin: return "max-min";
    case Objective::MinSum: return "min-sum";
  }
  return "min-max";
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Encodes the solve-kind task list: name:a:b:c:d:min:max entries joined
/// with ';'. Task names therefore must not contain ':' or ';'.
std::string encode_tasks(const std::vector<SolveTaskSpec>& tasks) {
  std::vector<std::string> parts;
  parts.reserve(tasks.size());
  for (const auto& t : tasks) {
    parts.push_back(strings::format("%s:%g:%g:%g:%g:%lld:%lld",
                                    t.name.c_str(), t.a, t.b, t.c, t.d,
                                    t.min_nodes, t.max_nodes));
  }
  return strings::join(parts, ";");
}

std::vector<SolveTaskSpec> decode_tasks(const std::string& s) {
  std::vector<SolveTaskSpec> out;
  for (const auto& part : strings::split(s, ';')) {
    if (part.empty()) continue;
    const auto f = strings::split(part, ':');
    if (f.size() != 7) {
      throw std::invalid_argument(
          "bad task spec '" + part +
          "' (expected name:a:b:c:d:min_nodes:max_nodes)");
    }
    SolveTaskSpec t;
    t.name = f[0];
    t.a = strings::to_double(f[1]);
    t.b = strings::to_double(f[2]);
    t.c = strings::to_double(f[3]);
    t.d = strings::to_double(f[4]);
    t.min_nodes = strings::to_int(f[5]);
    t.max_nodes = strings::to_int(f[6]);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

std::string to_string(RequestKind k) {
  return k == RequestKind::Solve ? "solve" : "fmo";
}

Request canonicalize(const Request& r) {
  Request c = r;
  if (c.budget < 1) throw std::invalid_argument("budget must be >= 1");

  if (c.kind == RequestKind::Solve) {
    if (c.tasks.empty())
      throw std::invalid_argument("solve request needs at least one task");
    // Neutralize the fmo-kind fields so they cannot leak into the
    // signature of a solve instance.
    c.family.clear();
    c.fragments = 0;
    c.system_seed = 0;
    c.bench_seed = 0;
    c.noise_cv = 0.0;
    c.fit_points = 0;
    c.repetitions = 0;
    c.link_gb = std::numeric_limits<double>::infinity();
    c.mem_gb = std::numeric_limits<double>::infinity();
    c.page_s_per_gb = 0.0;

    std::sort(c.tasks.begin(), c.tasks.end(),
              [](const SolveTaskSpec& a, const SolveTaskSpec& b) {
                return a.name < b.name;
              });
    std::unordered_set<std::string> seen;
    long long floor_sum = 0;
    for (auto& t : c.tasks) {
      if (t.name.empty() ||
          t.name.find_first_of(":;= \t") != std::string::npos) {
        throw std::invalid_argument("bad task name '" + t.name + "'");
      }
      if (!seen.insert(t.name).second)
        throw std::invalid_argument("duplicate task name '" + t.name + "'");
      if (t.max_nodes == 0) t.max_nodes = c.budget;
      if (t.min_nodes < 1 || t.min_nodes > t.max_nodes) {
        throw std::invalid_argument("task '" + t.name +
                                    "': need 1 <= min_nodes <= max_nodes");
      }
      floor_sum += t.min_nodes;
      t.a = quantize(t.a);
      t.b = quantize(t.b);
      t.c = quantize(t.c);
      t.d = quantize(t.d);
      if (!perf::Model{t.a, t.b, t.c, t.d}.valid()) {
        throw std::invalid_argument(
            "task '" + t.name +
            "': a, b, c, d must be finite with a, b, d >= 0");
      }
    }
    if (floor_sum > c.budget) {
      throw std::invalid_argument(
          "budget is below the sum of task node floors");
    }
  } else {
    c.tasks.clear();
    c.family = lower(c.family);
    if (c.family != "water" && c.family != "peptide" && c.family != "comm") {
      throw std::invalid_argument("unknown family '" + c.family +
                                  "' (expected water, peptide, or comm)");
    }
    if (c.fragments < 1)
      throw std::invalid_argument("fragments must be >= 1");
    if (c.budget < c.fragments) {
      throw std::invalid_argument(
          "budget must be >= fragments (HSLB gives every fragment a node)");
    }
    if (c.fit_points < 2)
      throw std::invalid_argument("fit_points must be >= 2");
    if (c.repetitions < 1)
      throw std::invalid_argument("repetitions must be >= 1");
    c.noise_cv = quantize(c.noise_cv);
    if (!sim::NoiseModel::valid_cv(c.noise_cv)) {
      throw std::invalid_argument(
          "noise_cv must be >= 0 and at most 1.34e154 (a finite square)");
    }
    // inf is the unmodeled machine; anything else must be a real capacity.
    if (!(c.link_gb > 0.0) || !(c.mem_gb > 0.0))
      throw std::invalid_argument("link_gb and mem_gb must be > 0");
    if (!std::isfinite(c.page_s_per_gb) || c.page_s_per_gb < 0.0)
      throw std::invalid_argument("page_s_per_gb must be finite and >= 0");
    if (c.page_s_per_gb > 0.0 && !std::isfinite(c.mem_gb)) {
      throw std::invalid_argument(
          "page_s_per_gb requires mem_gb (paging needs a memory capacity)");
    }
    c.link_gb = quantize(c.link_gb);
    c.mem_gb = quantize(c.mem_gb);
    c.page_s_per_gb = quantize(c.page_s_per_gb);
  }
  return c;
}

std::uint64_t signature(const Request& c) {
  hash::Fnv1a h;
  h.mix(std::string_view(to_string(c.kind)));
  h.mix(std::string_view(objective_token(c.objective)));
  h.mix(static_cast<std::uint64_t>(c.budget));
  if (c.kind == RequestKind::Solve) {
    h.mix(static_cast<std::uint64_t>(c.tasks.size()));
    for (const auto& t : c.tasks) {
      h.mix(std::string_view(t.name));
      h.mix(t.a).mix(t.b).mix(t.c).mix(t.d);
      h.mix(static_cast<std::uint64_t>(t.min_nodes));
      h.mix(static_cast<std::uint64_t>(t.max_nodes));
    }
  } else {
    h.mix(std::string_view(c.family));
    h.mix(static_cast<std::uint64_t>(c.fragments));
    h.mix(c.system_seed).mix(c.bench_seed);
    h.mix(c.noise_cv);
    h.mix(static_cast<std::uint64_t>(c.fit_points));
    h.mix(static_cast<std::uint64_t>(c.repetitions));
    h.mix(c.link_gb).mix(c.mem_gb).mix(c.page_s_per_gb);
  }
  return h.value();
}

double signature_distance(const Request& a, const Request& b) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // A donor seed lifts only into the same variable space: two solve-kind
  // requests of one objective with the same tasks by name and bounds
  // structure. An fmo-kind request runs no tree, so nothing lifts into it.
  if (a.kind != RequestKind::Solve || b.kind != RequestKind::Solve ||
      a.objective != b.objective || a.tasks.size() != b.tasks.size())
    return kInf;

  // Relative gap of two nonnegative parameters: 0 when equal.
  auto rel = [](double x, double y) {
    if (x == y) return 0.0;
    return std::fabs(x - y) / std::max({std::fabs(x), std::fabs(y), 1e-12});
  };
  // Node-count distance on a log2 scale (doubling the budget is "one step
  // away" regardless of absolute size).
  auto log_gap = [](long long x, long long y) {
    return std::fabs(std::log2(static_cast<double>(std::max(x, 1LL))) -
                     std::log2(static_cast<double>(std::max(y, 1LL))));
  };

  double d = 2.0 * log_gap(a.budget, b.budget);
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const auto& ta = a.tasks[i];
    const auto& tb = b.tasks[i];
    if (ta.name != tb.name) return kInf;
    d += rel(ta.a, tb.a) + rel(ta.b, tb.b) + rel(ta.c, tb.c) +
         rel(ta.d, tb.d);
    d += 0.5 * (log_gap(ta.min_nodes, tb.min_nodes) +
                log_gap(ta.max_nodes, tb.max_nodes));
  }
  return d;
}

std::string Response::to_line() const {
  std::string line = strings::format(
      "sig=%016llx status=%s objective=%.17g predicted=%.17g actual=%.17g "
      "lambda=%.17g warm=%d fallback=%d bnb_nodes=%zu bnb_cuts=%zu alloc=",
      static_cast<unsigned long long>(signature), status.c_str(),
      objective_value, predicted_total, actual_total, percent_imbalance,
      warm_seeded ? 1 : 0, audit_fallback ? 1 : 0, bnb_nodes, bnb_cuts);
  std::vector<std::string> parts;
  parts.reserve(allocation.tasks.size());
  for (const auto& t : allocation.tasks)
    parts.push_back(strings::format("%s:%lld", t.task.c_str(), t.nodes));
  line += strings::join(parts, ";");
  return line;
}

Request parse_request(const std::string& raw) {
  const std::string line = strings::trim(raw);
  std::istringstream in(line);
  std::string kind_token;
  in >> kind_token;
  Request r;
  if (kind_token == "solve") {
    r.kind = RequestKind::Solve;
  } else if (kind_token == "fmo") {
    r.kind = RequestKind::Fmo;
  } else {
    throw std::invalid_argument("request must start with 'solve' or 'fmo', "
                                "got '" + kind_token + "'");
  }
  std::string pair;
  while (in >> pair) {
    const auto eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("expected key=value, got '" + pair + "'");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "objective") {
      r.objective = parse_objective_token(value);
    } else if (key == "budget" || key == "nodes") {
      r.budget = strings::to_int(value);
    } else if (key == "tasks") {
      r.tasks = decode_tasks(value);
    } else if (key == "family") {
      r.family = value;
    } else if (key == "fragments") {
      r.fragments = strings::to_int(value);
    } else if (key == "system_seed") {
      r.system_seed = static_cast<std::uint64_t>(strings::to_int(value));
    } else if (key == "bench_seed") {
      r.bench_seed = static_cast<std::uint64_t>(strings::to_int(value));
    } else if (key == "noise_cv") {
      r.noise_cv = strings::to_double(value);
    } else if (key == "fit_points") {
      r.fit_points = strings::to_int(value);
    } else if (key == "reps") {
      r.repetitions = strings::to_int(value);
    } else if (key == "link_gb") {
      r.link_gb = strings::to_double(value);
    } else if (key == "mem_gb") {
      r.mem_gb = strings::to_double(value);
    } else if (key == "page_s_per_gb") {
      r.page_s_per_gb = strings::to_double(value);
    } else {
      throw std::invalid_argument("unknown request key '" + key + "'");
    }
  }
  return r;
}

std::string format_request(const Request& r) {
  std::string line = to_string(r.kind);
  line += strings::format(" objective=%s budget=%lld",
                          objective_token(r.objective).c_str(), r.budget);
  if (r.kind == RequestKind::Solve) {
    line += " tasks=" + encode_tasks(r.tasks);
  } else {
    line += strings::format(
        " family=%s fragments=%lld system_seed=%llu bench_seed=%llu "
        "noise_cv=%g fit_points=%lld reps=%lld",
        r.family.c_str(), r.fragments,
        static_cast<unsigned long long>(r.system_seed),
        static_cast<unsigned long long>(r.bench_seed), r.noise_cv,
        r.fit_points, r.repetitions);
    if (std::isfinite(r.link_gb))
      line += strings::format(" link_gb=%g", r.link_gb);
    if (std::isfinite(r.mem_gb)) line += strings::format(" mem_gb=%g", r.mem_gb);
    if (r.page_s_per_gb > 0.0)
      line += strings::format(" page_s_per_gb=%g", r.page_s_per_gb);
  }
  return line;
}

std::vector<Request> load_script(std::istream& in) {
  std::vector<Request> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = strings::trim(line);
    if (t.empty() || t[0] == '#') continue;
    out.push_back(parse_request(t));
  }
  return out;
}

std::vector<Request> load_script_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open script '" + path + "'");
  return load_script(in);
}

}  // namespace hslb::service
