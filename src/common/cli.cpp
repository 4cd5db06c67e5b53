#include "common/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace am {

namespace {

/// Full-string integer parse; the whole token must be consumed.
template <typename Int>
bool parse_full(const std::string& s, Int& out) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last && !s.empty();
}

bool parse_full_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool is_bool_token(const std::string& v) {
  return v == "true" || v == "false" || v == "1" || v == "0" || v == "yes" ||
         v == "no" || v == "on" || v == "off";
}

const char* kind_name(CliParser::FlagKind kind) {
  switch (kind) {
    case CliParser::FlagKind::kString:  return "a string";
    case CliParser::FlagKind::kInt:     return "an integer";
    case CliParser::FlagKind::kUint64:  return "an unsigned integer";
    case CliParser::FlagKind::kDouble:  return "a number";
    case CliParser::FlagKind::kBool:    return "a boolean (true/false)";
    case CliParser::FlagKind::kIntList: return "a comma-separated integer list";
    case CliParser::FlagKind::kEndpoint:
      return "an endpoint (host:port or unix:path)";
  }
  return "a value";
}

bool value_matches_kind(const std::string& v, CliParser::FlagKind kind) {
  switch (kind) {
    case CliParser::FlagKind::kString:
      return true;
    case CliParser::FlagKind::kInt: {
      std::int64_t i;
      return parse_full(v, i);
    }
    case CliParser::FlagKind::kUint64: {
      std::uint64_t u;
      return parse_full(v, u);
    }
    case CliParser::FlagKind::kDouble: {
      double d;
      return parse_full_double(v, d);
    }
    case CliParser::FlagKind::kBool:
      return is_bool_token(v);
    case CliParser::FlagKind::kIntList: {
      if (v.empty() || v.back() == ',') return false;
      std::stringstream ss(v);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        std::int64_t i;
        if (!parse_full(tok, i)) return false;
      }
      return true;
    }
    case CliParser::FlagKind::kEndpoint:
      return CliParser::is_endpoint(v);
  }
  return false;
}

}  // namespace

bool CliParser::is_endpoint(const std::string& value) {
  if (value.rfind("unix:", 0) == 0) return value.size() > 5;
  // host:port — split on the LAST colon so a future bracketed-IPv6 host
  // with embedded colons keeps working; host and port must be non-empty.
  const auto colon = value.find_last_of(':');
  if (colon == std::string::npos || colon == 0) return false;
  const std::string port = value.substr(colon + 1);
  std::uint64_t p = 0;
  if (!parse_full(port, p)) return false;
  return p <= 65535;
}

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_flag(const std::string& name, const std::string& help,
                         const std::string& default_value, FlagKind kind) {
  if (flags_.contains(name)) {
    throw std::logic_error("duplicate flag: " + name);
  }
  flags_[name] = Flag{help, default_value, kind, false};
  order_.push_back(name);
}

bool CliParser::parse(int argc, const char* const* argv) {
  if (argc > 0) {
    const std::string argv0 = argv[0];
    const auto slash = argv0.find_last_of('/');
    program_name_ =
        slash == std::string::npos ? argv0 : argv0.substr(slash + 1);
    command_line_.clear();
    for (int i = 0; i < argc; ++i) {
      if (i > 0) command_line_ += ' ';
      command_line_ += argv[i];
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cerr << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unexpected positional argument: " << arg << "\n" << usage();
      return false;
    }
    arg.erase(0, 2);
    std::string key = arg;
    std::string value;
    bool have_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    }
    auto it = flags_.find(key);
    if (it == flags_.end()) {
      std::cerr << "unknown flag: --" << key << "\n" << usage();
      return false;
    }
    if (!have_value) {
      // Accept "--key value" when the next token is not itself a flag;
      // otherwise treat as boolean true.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (!value_matches_kind(value, it->second.kind)) {
      std::cerr << "invalid value for --" << key << ": '" << value
                << "' is not " << kind_name(it->second.kind) << "\n"
                << usage();
      return false;
    }
    it->second.value = value;
    it->second.set = true;
  }
  return true;
}

bool CliParser::has(const std::string& name) const {
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second.set;
}

std::string CliParser::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) throw std::logic_error("unregistered flag: " + name);
  return it->second.value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  return std::strtoll(get(name).c_str(), nullptr, 10);
}

std::uint64_t CliParser::get_uint64(const std::string& name) const {
  return std::strtoull(get(name).c_str(), nullptr, 10);
}

double CliParser::get_double(const std::string& name) const {
  return std::strtod(get(name).c_str(), nullptr);
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::vector<std::int64_t> CliParser::get_int_list(const std::string& name) const {
  std::vector<std::int64_t> out;
  std::stringstream ss(get(name));
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::strtoll(tok.c_str(), nullptr, 10));
  }
  return out;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name;
    if (!f.value.empty()) os << " (default: " << f.value << ")";
    os << "\n      " << f.help << "\n";
  }
  return os.str();
}

int run_main(int (*body)(int, const char* const*), int argc,
             const char* const* argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace am
