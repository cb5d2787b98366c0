// Seeded text mutator for the parser fuzz loops (service requests, model
// CSVs). A valid input is split into fields at the given separator
// characters; one to three edits then turn a field into a hostile token
// (nan, inf, -1, 1e308, empty, text), drop or duplicate a field, or swap a
// separator for another. Deterministic for a given Rng state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace hslb::fuzz {

inline std::string mutate(const std::string& text,
                          const std::string& separators, Rng& rng) {
  static const char* const kTokens[] = {"nan", "inf",  "-inf", "-1",
                                        "1e308", "",   "text", "1e-320"};
  // Alternating field, separator, field, ..., field.
  std::vector<std::string> parts(1);
  for (char ch : text) {
    if (separators.find(ch) == std::string::npos) {
      parts.back() += ch;
    } else {
      parts.emplace_back(1, ch);
      parts.emplace_back();
    }
  }
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::size_t edits = 1 + pick(3);
  for (std::size_t e = 0; e < edits && parts.size() > 1; ++e) {
    const std::size_t field = 2 * pick((parts.size() + 1) / 2);
    // The separator next to the field: after it, or before the last one.
    const std::size_t sep = field + 1 < parts.size() ? field + 1 : field - 1;
    switch (pick(4)) {
      case 0:
        parts[field] = kTokens[pick(std::size(kTokens))];
        break;
      case 1:
        parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(field, sep)),
                    parts.begin() + static_cast<std::ptrdiff_t>(
                                        std::max(field, sep) + 1));
        break;
      case 2: {
        const std::vector<std::string> copy{parts[std::min(field, sep)],
                                            parts[std::max(field, sep)]};
        parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(field, sep)),
                     copy.begin(), copy.end());
        break;
      }
      default:
        parts[sep] = std::string(1, separators[pick(separators.size())]);
        break;
    }
  }
  std::string out;
  for (const auto& p : parts) out += p;
  return out;
}

}  // namespace hslb::fuzz
