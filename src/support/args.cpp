#include "support/args.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace eagle::support {

std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    if (comma > pos) items.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return items;
}

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

ArgParser& ArgParser::AddInt(const std::string& name, std::int64_t v,
                             const std::string& help) {
  Flag f;
  f.kind = Kind::kInt;
  f.help = help;
  f.int_value = v;
  flags_[name] = std::move(f);
  return *this;
}

ArgParser& ArgParser::AddDouble(const std::string& name, double v,
                                const std::string& help) {
  Flag f;
  f.kind = Kind::kDouble;
  f.help = help;
  f.double_value = v;
  flags_[name] = std::move(f);
  return *this;
}

ArgParser& ArgParser::AddBool(const std::string& name, bool v,
                              const std::string& help) {
  Flag f;
  f.kind = Kind::kBool;
  f.help = help;
  f.bool_value = v;
  flags_[name] = std::move(f);
  return *this;
}

ArgParser& ArgParser::AddString(const std::string& name, const std::string& v,
                                const std::string& help) {
  Flag f;
  f.kind = Kind::kString;
  f.help = help;
  f.string_value = v;
  flags_[name] = std::move(f);
  return *this;
}

namespace {

// Prints "<program>: <message>" on one line and exits 2, the status the
// graph and cluster importers use for unusable input.
[[noreturn]] void ExitUsageError(const std::string& program,
                                 const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", program.c_str(), message.c_str());
  std::exit(2);
}

// True when all of `text` is one number of type T. std::from_chars stops
// at the first character it cannot use, so a trailing "x" in "4x" shows
// as an unconsumed tail instead of being dropped.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, *out);
  return error == std::errc() && end == last;
}

}  // namespace

bool ArgParser::Parse(int argc, char** argv) {
  program_ = argc > 0 && argv[0] != nullptr ? argv[0] : "";
  if (const auto slash = program_.rfind('/'); slash != std::string::npos) {
    program_.erase(0, slash + 1);
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      ExitUsageError(program_,
                     "unknown flag --" + name + " (--help lists flags)");
    }
    Flag& flag = it->second;
    if (!has_value) {
      if (flag.kind == Kind::kBool) {
        flag.bool_value = true;
        continue;
      }
      if (i + 1 >= argc) {
        ExitUsageError(program_, "flag --" + name + " expects a value");
      }
      value = argv[++i];
    }
    bool ok = true;
    switch (flag.kind) {
      case Kind::kInt:
        ok = ParseWhole(value, &flag.int_value);
        break;
      case Kind::kDouble:
        ok = ParseWhole(value, &flag.double_value);
        break;
      case Kind::kBool:
        flag.bool_value = value == "true" || value == "1";
        ok = flag.bool_value || value == "false" || value == "0";
        break;
      case Kind::kString:
        flag.string_value = value;
        break;
    }
    if (!ok) {
      ExitUsageError(program_,
                     "invalid value '" + value + "' for --" + name);
    }
  }
  return true;
}

void ArgParser::ExitBadValue(const std::string& name,
                             const std::string& message) const {
  ExitUsageError(program_, "--" + name + ": " + message);
}

const ArgParser::Flag& ArgParser::Find(const std::string& name,
                                       Kind kind) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.kind != kind) {
    throw std::invalid_argument("flag --" + name +
                                " not registered with that type");
  }
  return it->second;
}

std::int64_t ArgParser::GetInt(const std::string& name) const {
  return Find(name, Kind::kInt).int_value;
}
double ArgParser::GetDouble(const std::string& name) const {
  return Find(name, Kind::kDouble).double_value;
}
bool ArgParser::GetBool(const std::string& name) const {
  return Find(name, Kind::kBool).bool_value;
}
const std::string& ArgParser::GetString(const std::string& name) const {
  return Find(name, Kind::kString).string_value;
}

std::string ArgParser::Usage() const {
  std::ostringstream os;
  if (!description_.empty()) os << description_ << "\n";
  os << "Flags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name;
    switch (flag.kind) {
      case Kind::kInt: os << "=<int> (default " << flag.int_value << ")"; break;
      case Kind::kDouble:
        os << "=<float> (default " << flag.double_value << ")";
        break;
      case Kind::kBool:
        os << " (default " << (flag.bool_value ? "true" : "false") << ")";
        break;
      case Kind::kString:
        os << "=<str> (default \"" << flag.string_value << "\")";
        break;
    }
    os << "\n      " << flag.help << "\n";
  }
  return os.str();
}

}  // namespace eagle::support
