// Shared helpers for the figure/table generator binaries.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"

namespace agbench {

/// Standard banner: which paper artefact this binary regenerates.
inline void banner(const std::string& artefact, const std::string& description) {
  std::cout << "==============================================================\n"
            << artefact << " — " << description << "\n"
            << "Paper: Wang et al., \"Design and Implementation of a Highly\n"
            << "Efficient DGEMM for 64-bit ARMv8 Multi-Core Processors\", ICPP'15\n"
            << "==============================================================\n";
}

/// Emit a table as text, or CSV when --csv was passed.
inline void emit(const ag::CliArgs& args, const ag::Table& table) {
  if (args.get_bool("csv", false))
    std::cout << table.to_csv();
  else
    std::cout << table.to_text();
}

/// Parse a comma-separated --sizes list (or the list of another flag),
/// with a default.
inline std::vector<std::int64_t> size_list(const ag::CliArgs& args,
                                           std::vector<std::int64_t> fallback,
                                           const std::string& flag = "sizes") {
  const std::string raw = args.get(flag, "");
  if (raw.empty()) return fallback;
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos < raw.size()) {
    std::size_t next = raw.find(',', pos);
    if (next == std::string::npos) next = raw.size();
    out.push_back(std::stoll(raw.substr(pos, next - pos)));
    pos = next + 1;
  }
  return out;
}

}  // namespace agbench
