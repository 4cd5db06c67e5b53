// Minimal command-line flag parser shared by the bench and example binaries.
// Accepts --key=value, --key value and boolean --key forms; anything the
// binary did not register is an error so typos fail loudly instead of being
// silently ignored mid-experiment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace am {

class CliParser {
 public:
  /// Declared type of a flag's value. parse() rejects a command line whose
  /// value does not parse as the declared kind, so "--threads=abc" is a
  /// loud startup error instead of a silent 0 deep inside a sweep.
  enum class FlagKind : std::uint8_t {
    kString,
    kInt,      ///< full-string signed integer
    kUint64,   ///< full-string unsigned 64-bit integer
    kDouble,   ///< full-string floating point
    kBool,     ///< true/false/1/0/yes/no/on/off
    kIntList,  ///< non-empty comma-separated signed integers
    kEndpoint, ///< socket endpoint: host:port (port 0-65535) or unix:path
  };

  /// True when @p value is a well-formed socket endpoint ("host:port" with a
  /// numeric port in [0, 65535], or "unix:path" with a non-empty path). The
  /// service binaries validate --listen/--connect with this at parse time.
  static bool is_endpoint(const std::string& value);

  CliParser(std::string program_description);

  /// Registers a flag; @p help shows up in usage output. Values supplied on
  /// the command line are validated against @p kind during parse().
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value = "",
                FlagKind kind = FlagKind::kString);

  /// Parses argv. Returns false (after printing usage/diagnostics to stderr)
  /// on unknown flags, malformed input, or --help.
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  /// True when @p name was registered, whether or not it was given.
  bool registered(const std::string& name) const {
    return flags_.contains(name);
  }
  std::string get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// Full-range unsigned parse (seeds are 64-bit; get_int would clip them).
  std::uint64_t get_uint64(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Comma-separated list of integers, e.g. "--threads=1,2,4,8".
  std::vector<std::int64_t> get_int_list(const std::string& name) const;

  std::string usage() const;

  /// Basename of argv[0] as seen by the last parse() ("" before parse).
  const std::string& program_name() const noexcept { return program_name_; }
  /// The command line as invoked, space-joined — report provenance.
  const std::string& command_line() const noexcept { return command_line_; }

 private:
  struct Flag {
    std::string help;
    std::string value;
    FlagKind kind = FlagKind::kString;
    bool set = false;
  };
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::string program_name_;
  std::string command_line_;
};

/// Runs a binary's body, turning an escaping exception (a flag value naming
/// no machine, say) into a one-line "error: ..." on stderr and exit status 1.
int run_main(int (*body)(int, const char* const*), int argc,
             const char* const* argv);

}  // namespace am
