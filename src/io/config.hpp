// Minimal run-configuration file format: `key = value` lines, `#` comments,
// blank lines ignored.  Used by the antmd_run driver so a simulation can be
// described in a text file instead of code.
#pragma once

#include <map>
#include <set>
#include <string>

namespace antmd::io {

class RunConfig {
 public:
  /// Parses a config file; throws ConfigError on I/O or syntax errors.
  static RunConfig from_file(const std::string& path);
  /// Parses config text directly (testing convenience).
  static RunConfig from_string(const std::string& text);

  /// has(), the getters and require_string() all mark `key` as read.
  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters with defaults; typed getters throw ConfigError when the
  /// stored text does not parse.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Required variants: throw when the key is absent.
  [[nodiscard]] std::string require_string(const std::string& key) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  /// Throws ConfigError listing, sorted, every key present in the file
  /// that no getter has read.  A driver calls it once it has read all its
  /// settings, so a misspelt or unsupported key fails the run instead of
  /// being silently ignored.
  void require_all_read() const;

 private:
  /// Marks `key` read and returns its entry (entries_.end() when absent).
  std::map<std::string, std::string>::const_iterator find(
      const std::string& key) const;

  std::map<std::string, std::string> entries_;
  mutable std::set<std::string> read_;
};

}  // namespace antmd::io
