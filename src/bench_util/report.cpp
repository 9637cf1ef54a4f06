#include "bench_util/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace la::bench {
namespace {

std::string quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string render_double(double value) {
  // JSON has no NaN/Inf; null keeps the document parseable and makes the
  // bad measurement impossible to mistake for a real zero.
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace

JsonObject& JsonObject::set_rendered(std::string key, std::string rendered) {
  for (const auto& [existing, value] : fields_) {
    if (existing == key) {
      throw std::logic_error("BenchReport: duplicate JSON key: " + key);
    }
  }
  fields_.emplace_back(std::move(key), std::move(rendered));
  return *this;
}

JsonObject& JsonObject::set(std::string key, std::string_view value) {
  return set_rendered(std::move(key), quote(value));
}

JsonObject& JsonObject::set(std::string key, const char* value) {
  return set(std::move(key), std::string_view(value));
}

JsonObject& JsonObject::set(std::string key, std::uint64_t value) {
  return set_rendered(std::move(key), std::to_string(value));
}

JsonObject& JsonObject::set(std::string key, std::uint32_t value) {
  return set(std::move(key), static_cast<std::uint64_t>(value));
}

JsonObject& JsonObject::set(std::string key, int value) {
  return set_rendered(std::move(key), std::to_string(value));
}

JsonObject& JsonObject::set(std::string key, double value) {
  return set_rendered(std::move(key), render_double(value));
}

JsonObject& JsonObject::set(std::string key, bool value) {
  return set_rendered(std::move(key), value ? "true" : "false");
}

JsonObject& JsonObject::set_object(std::string key, const JsonObject& value) {
  return set_rendered(std::move(key), value.render());
}

std::string JsonObject::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += quote(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

JsonObject probe_stats_json(const stats::TrialStats& trials) {
  JsonObject out;
  out.set("operations", trials.operations())
      .set("avg", trials.average())
      .set("stddev", trials.stddev())
      .set("worst", trials.worst_case())
      .set("p99", trials.p99())
      .set("p999", trials.p999());
  return out;
}

const std::string& git_describe() {
  static const std::string described = [] {
    std::string out = "unknown";
#if !defined(_WIN32)
    if (FILE* pipe =
            ::popen("git describe --always --dirty 2>/dev/null", "r")) {
      char buf[128];
      if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
        std::string line(buf);
        while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
          line.pop_back();
        }
        if (!line.empty()) out = line;
      }
      ::pclose(pipe);
    }
#endif
    return out;
  }();
  return described;
}

BenchReport::BenchReport(std::string bench_name)
    : bench_(std::move(bench_name)) {}

JsonObject& BenchReport::add_run() {
  runs_.emplace_back();
  return runs_.back();
}

std::string BenchReport::render() const {
  std::string out = "{\n";
  out += "  \"schema\": \"levelarray-bench-v1\",\n";
  out += "  \"bench\": " + quote(bench_) + ",\n";
  out += "  \"git\": " + quote(git_describe()) + ",\n";
  out += "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    out += "    " + runs_[i].render();
    if (i + 1 != runs_.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool BenchReport::write_file(const std::string& path,
                             std::ostream& err) const {
  // Render (and so read `git describe --dirty`) before opening: opening
  // truncates the file, and regenerating a committed snapshot in place
  // would otherwise always stamp the clean commit "-dirty".
  const std::string text = render();
  std::ofstream file(path);
  if (!file) {
    err << bench_ << ": cannot open --json path " << path << "\n";
    return false;
  }
  file << text;
  file.flush();
  if (!file) {
    err << bench_ << ": failed writing --json path " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace la::bench
