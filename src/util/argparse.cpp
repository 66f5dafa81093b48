#include "src/util/argparse.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace tp::util {

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void ArgParser::add_flag(std::string name, bool* target, std::string help) {
  options_.push_back(Option{std::move(name), "", std::move(help),
                            Kind::kFlag, target});
}

void ArgParser::add_value(std::string name, std::string* target,
                          std::string help, std::string metavar) {
  options_.push_back(Option{std::move(name), std::move(metavar),
                            std::move(help), Kind::kString, target});
}

void ArgParser::add_value(std::string name, std::size_t* target,
                          std::string help, std::string metavar) {
  options_.push_back(Option{std::move(name), std::move(metavar),
                            std::move(help), Kind::kSize, target});
}

void ArgParser::add_value(std::string name, int* target, std::string help,
                          std::string metavar) {
  options_.push_back(Option{std::move(name), std::move(metavar),
                            std::move(help), Kind::kInt, target});
}

void ArgParser::add_value(std::string name, double* target,
                          std::string help, std::string metavar) {
  options_.push_back(Option{std::move(name), std::move(metavar),
                            std::move(help), Kind::kDouble, target});
}

void ArgParser::add_list(std::string name,
                         std::vector<std::string>* target, std::string help,
                         std::string metavar) {
  options_.push_back(Option{std::move(name), std::move(metavar),
                            std::move(help), Kind::kList, target});
}

void ArgParser::add_positionals(std::vector<std::string>* target,
                                std::string metavar, std::string help) {
  positionals_ = target;
  positional_metavar_ = std::move(metavar);
  positional_help_ = std::move(help);
}

namespace {

// Parses all of `text` as a T into *out, which is left untouched on
// failure: no leading whitespace, no sign but the '-' a signed target
// allows, no trailing characters, and the value must fit in T.
template <class T>
bool parse_number(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace

bool ArgParser::apply(const Option& option, const std::string& value,
                      std::string* error) {
  bool ok = true;
  switch (option.kind) {
    case Kind::kFlag:
      *static_cast<bool*>(option.target) = true;
      break;
    case Kind::kString:
      *static_cast<std::string*>(option.target) = value;
      break;
    case Kind::kSize:
      ok = parse_number(value, static_cast<std::size_t*>(option.target));
      break;
    case Kind::kInt:
      ok = parse_number(value, static_cast<int*>(option.target));
      break;
    case Kind::kDouble:
      ok = parse_number(value, static_cast<double*>(option.target));
      break;
    case Kind::kList:
      static_cast<std::vector<std::string>*>(option.target)->push_back(value);
      break;
  }
  if (!ok) *error = "invalid value '" + value + "' for " + option.name;
  return ok;
}

bool ArgParser::parse(int argc, char** argv, std::string* error,
                      bool* help_requested) {
  *help_requested = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      *help_requested = true;
      return true;
    }
    const auto it =
        std::find_if(options_.begin(), options_.end(),
                     [&](const Option& o) { return o.name == arg; });
    if (it == options_.end()) {
      if (!arg.empty() && arg[0] != '-' && positionals_ != nullptr) {
        positionals_->push_back(arg);
        continue;
      }
      *error = "unknown argument '" + arg + "'";
      return false;
    }
    std::string value;
    if (it->kind != Kind::kFlag) {
      if (i + 1 >= argc) {
        *error = it->name + " requires a " + it->metavar + " argument";
        return false;
      }
      value = argv[++i];
    }
    if (!apply(*it, value, error)) return false;
  }
  return true;
}

void ArgParser::parse_or_exit(int argc, char** argv) {
  std::string error;
  bool help = false;
  if (!parse(argc, argv, &error, &help)) {
    std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), error.c_str(),
                 usage().c_str());
    std::exit(2);
  }
  if (help) {
    std::fputs(usage().c_str(), stdout);
    std::exit(0);
  }
}

std::string ArgParser::usage() const {
  std::string text = "usage: " + program_ + " [options]";
  if (positionals_ != nullptr) {
    text += " [" + positional_metavar_ + "...]";
  }
  text += "\n  " + summary_ + "\n\noptions:\n";
  std::size_t width = 0;
  std::vector<std::string> lefts;
  lefts.reserve(options_.size());
  for (const Option& option : options_) {
    std::string left = option.name;
    if (option.kind != Kind::kFlag) left += " " + option.metavar;
    width = std::max(width, left.size());
    lefts.push_back(std::move(left));
  }
  for (std::size_t i = 0; i < options_.size(); ++i) {
    text += "  " + lefts[i];
    text.append(width - lefts[i].size() + 2, ' ');
    text += options_[i].help + "\n";
  }
  text += "  --help";
  text.append(width > 6 ? width - 6 + 2 : 2, ' ');
  text += "print this help and exit\n";
  if (positionals_ != nullptr && !positional_help_.empty()) {
    text += "\n" + positional_metavar_ + ": " + positional_help_ + "\n";
  }
  return text;
}

}  // namespace tp::util
