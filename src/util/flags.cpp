#include "util/flags.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace acp::util {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    if (arg.rfind("no-", 0) == 0) {
      values_[arg.substr(3)] = "false";
      continue;
    }
    // "--name value" if the next token is not itself a flag; else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::string Flags::get_string(const std::string& name, const std::string& def) const {
  read_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  read_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& name, double def) const {
  read_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name, bool def) const {
  read_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

void Flags::require_writable_path(const std::string& flag, const std::string& path) {
  if (path.empty()) return;
  if (path == "true") {
    std::fprintf(stderr, "error: --%s requires a PATH value\n", flag.c_str());
    std::exit(2);
  }
  // Append mode probes writability without truncating anything that is
  // already there; the real sink re-opens the file when it writes.
  std::ofstream probe(path, std::ios::app);
  if (!probe) {
    std::fprintf(stderr, "error: cannot open %s for writing (--%s)\n", path.c_str(), flag.c_str());
    std::exit(2);
  }
}

std::vector<std::string> Flags::unknown_flags() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    (void)v;
    if (!read_.count(k)) out.push_back(k);
  }
  return out;
}

void Flags::exit_on_unknown_flags() const {
  const std::vector<std::string> unknown = unknown_flags();
  if (unknown.empty()) return;
  for (const std::string& f : unknown) {
    std::fprintf(stderr, "error: unknown flag --%s\n", f.c_str());
  }
  std::string known;
  for (const auto& [name, read] : read_) {
    (void)read;
    known += " --" + name;
  }
  std::fprintf(stderr, "flags:%s\n", known.c_str());
  std::exit(2);
}

}  // namespace acp::util
