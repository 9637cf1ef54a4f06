// Minimal --key=value / --flag command-line parser shared by all bench
// drivers. Accessors mark keys as used so drivers can warn about typos
// via unused_keys() — a sweep silently running defaults because of a
// misspelled flag is the most expensive bug a benchmark can have.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace la::bench {

class Options {
 public:
  Options(int argc, char** argv);

  bool has(const std::string& key) const;

  std::uint64_t get_uint(const std::string& key, std::uint64_t def) const;
  double get_double(const std::string& key, double def) const;
  std::string get_string(const std::string& key, std::string def) const;
  // Durations with an s/ms/us/ns suffix ("10ms", "250us", "1s"); a bare
  // number is nanoseconds. Returns nanoseconds.
  std::uint64_t get_duration_ns(const std::string& key,
                                std::uint64_t def) const;

  // Comma-separated lists: --n=1024,4096,16384 (durations as above)
  std::vector<std::uint64_t> get_uint_list(
      const std::string& key, std::vector<std::uint64_t> def) const;
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> def) const;
  std::vector<std::uint64_t> get_duration_ns_list(
      const std::string& key, std::vector<std::uint64_t> def) const;
  std::vector<std::string> get_string_list(
      const std::string& key, std::vector<std::string> def) const;

  // Keys that were passed on the command line but never queried.
  std::vector<std::string> unused_keys() const;

 private:
  const std::string* lookup(const std::string& key) const;
  template <typename T, typename Parse>
  std::vector<T> get_list(const std::string& key, std::vector<T> def,
                          Parse parse) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

}  // namespace la::bench
