// Tiny declarative command-line parser shared by the example CLIs
// (flow_cli, lint_cli, matrix_cli) and the benchmark drivers — replaces
// their previously hand-rolled, subtly inconsistent argc/argv loops.
//
//   tp::util::ArgParser parser("flow_cli", "convert a benchmark ...");
//   parser.add_value("--circuit", &circuit, "built-in benchmark name",
//                    "NAME");
//   parser.add_flag("--stats", &show_stats, "print structural statistics");
//   parser.parse_or_exit(argc, argv);
//
// Supported syntax: `--name VALUE` for values (repeatable for list
// targets), bare `--name` for flags, and positional operands collected
// into an optional std::vector<std::string>. `--help` prints a uniform
// usage block (flag column, metavar, help text) and exits 0; unknown or
// malformed arguments print the same block to stderr and exit 2.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tp::util {

class ArgParser {
 public:
  ArgParser(std::string program, std::string summary);

  /// Bare boolean switch: present sets *target to true.
  void add_flag(std::string name, bool* target, std::string help);

  /// `--name VALUE` options for the common target types. A number must be
  /// the whole value and fit its target: trailing characters, a '-' for a
  /// std::size_t, or an out-of-range value is a usage error.
  void add_value(std::string name, std::string* target, std::string help,
                 std::string metavar = "VALUE");
  void add_value(std::string name, std::size_t* target, std::string help,
                 std::string metavar = "N");
  void add_value(std::string name, int* target, std::string help,
                 std::string metavar = "N");
  void add_value(std::string name, double* target, std::string help,
                 std::string metavar = "X");
  /// Repeatable `--name VALUE`; each occurrence appends.
  void add_list(std::string name, std::vector<std::string>* target,
                std::string help, std::string metavar = "VALUE");

  /// Collects non-flag operands (default: operands are a usage error).
  void add_positionals(std::vector<std::string>* target, std::string metavar,
                       std::string help);

  /// Parses argv. Returns true on success; false with *error set on an
  /// unknown flag, missing value, or malformed number. `--help` is
  /// reported via *help_requested without touching any target.
  bool parse(int argc, char** argv, std::string* error,
             bool* help_requested);

  /// parse() + the uniform exit protocol: --help prints usage to stdout
  /// and exits 0; errors print the message and usage to stderr and exit
  /// 2.
  void parse_or_exit(int argc, char** argv);

  /// The uniform usage/help block.
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kFlag, kString, kSize, kInt, kDouble, kList };
  struct Option {
    std::string name;
    std::string metavar;
    std::string help;
    Kind kind;
    void* target;
  };

  bool apply(const Option& option, const std::string& value,
             std::string* error);

  std::string program_;
  std::string summary_;
  std::vector<Option> options_;
  std::vector<std::string>* positionals_ = nullptr;
  std::string positional_metavar_;
  std::string positional_help_;
};

}  // namespace tp::util
