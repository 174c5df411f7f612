// Tiny CLI flag parser used by benches and examples.
//
// Flags are of the form --name=value or --name value; bare --name sets a
// boolean flag to true. A command line the parser cannot take exits the
// program with status 2 and a one-line diagnostic, so typos in bench
// invocations fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace eagle::support {

// The non-empty items of a comma-separated flag value, in order
// ("a,,b," → {"a", "b"}).
std::vector<std::string> SplitList(const std::string& list);

class ArgParser {
 public:
  explicit ArgParser(std::string program_description = "");

  // Registration. `help` is shown by --help. Returns *this for chaining.
  ArgParser& AddInt(const std::string& name, std::int64_t default_value,
                    const std::string& help);
  ArgParser& AddDouble(const std::string& name, double default_value,
                       const std::string& help);
  ArgParser& AddBool(const std::string& name, bool default_value,
                     const std::string& help);
  ArgParser& AddString(const std::string& name,
                       const std::string& default_value,
                       const std::string& help);

  // Parses argv. On --help prints usage and returns false (caller should
  // exit 0). An unknown flag, a missing value, or a value that is not
  // wholly of the flag's type ("abc" or "4x" for an int) prints one line
  // to stderr, e.g. "bench_faults: invalid value 'abc' for --threads",
  // and exits with status 2.
  bool Parse(int argc, char** argv);

  std::int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;
  // String flag `name` converted by `parse`. A value that `parse` rejects
  // by throwing std::invalid_argument prints one line,
  // "<program>: --<name>: <what()>", and exits with status 2, as a
  // malformed value does in Parse().
  template <typename Parse>
  auto GetParsed(const std::string& name, Parse&& parse) const {
    const std::string& value = GetString(name);
    try {
      return parse(value);
    } catch (const std::invalid_argument& error) {
      ExitBadValue(name, error.what());
    }
  }

  // Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string Usage() const;

 private:
  enum class Kind { kInt, kDouble, kBool, kString };
  struct Flag {
    Kind kind;
    std::string help;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    std::string string_value;
  };

  const Flag& Find(const std::string& name, Kind kind) const;
  [[noreturn]] void ExitBadValue(const std::string& name,
                                 const std::string& message) const;

  std::string description_;
  std::string program_;  // argv[0]'s last path component, set by Parse()
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace eagle::support
