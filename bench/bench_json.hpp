// The one writer behind the benches' BENCH_*.json files: one key per
// line, and a list of rows (a sweep's "results") one row per line. The
// layout is a contract: bench/run_decode_bench.sh reads single lines of
// it with awk, and EXPERIMENTS.md quotes its numbers as printed.
#pragma once

#include <concepts>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace ktrace::bench {

class JsonObject {
 public:
  JsonObject& add(const char* key, bool value) { return raw(key, value ? "true" : "false"); }
  template <std::integral T>
  JsonObject& add(const char* key, T value) { return raw(key, std::to_string(value)); }
  /// `value` with `decimals` digits after the point.
  JsonObject& add(const char* key, double value, int decimals) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.*f", decimals, value);
    return raw(key, text);
  }
  JsonObject& add(const char* key, const char* value) {
    return raw(key, "\"" + std::string(value) + "\"");
  }
  JsonObject& add(const char* key, const JsonObject& object) {
    return raw(key, object.render("{", ", ", "}"));
  }
  /// One row per line.
  JsonObject& add(const char* key, const std::vector<JsonObject>& rows) {
    std::string text = "[";
    for (const JsonObject& row : rows) {
      text += (text.size() == 1 ? "\n    " : ",\n    ") + row.render("{", ", ", "}");
    }
    return raw(key, text + "\n  ]");
  }

  /// The whole object, one key per line.
  std::string document() const { return render("{\n  ", ",\n  ", "\n}\n"); }

 private:
  JsonObject& raw(const char* key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }
  std::string render(const char* open, const char* separator, const char* close) const {
    std::string text = open;
    for (size_t i = 0; i < fields_.size(); ++i) {
      text += (i == 0 ? "\"" : separator + std::string("\"")) + fields_[i].first + "\": " +
              fields_[i].second;
    }
    return text + close;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Prints `doc` to stdout and, when `out` is set, writes it there too.
inline void writeBenchJson(const JsonObject& doc, const std::string& out) {
  const std::string text = doc.document();
  std::fputs(text.c_str(), stdout);
  if (!out.empty()) {
    std::ofstream(out) << text;
    std::fprintf(stderr, "wrote %s\n", out.c_str());
  }
}

}  // namespace ktrace::bench
