#ifndef MLCS_COMMON_JSON_WRITER_H_
#define MLCS_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace mlcs {

/// The one streaming JSON writer outside the crash path (which must stay
/// allocation-free, obs/crash_dump.cc): every BENCH_<name>.json and the
/// Chrome trace export are written through it. Commas and key/value
/// pairing are tracked per open container; strings are escaped (quote,
/// backslash, control characters).
class JsonWriter {
 public:
  void BeginObject() {
    Comma();
    out_ << '{';
    stack_.push_back(true);
  }
  void EndObject() {
    out_ << '}';
    stack_.pop_back();
  }
  void BeginArray() {
    Comma();
    out_ << '[';
    stack_.push_back(true);
  }
  void EndArray() {
    out_ << ']';
    stack_.pop_back();
  }
  void Key(const std::string& name) {
    Comma();
    WriteString(name);
    out_ << ':';
    pending_value_ = true;
  }
  void Value(const std::string& v) {
    Comma();
    WriteString(v);
  }
  void Value(const char* v) { Value(std::string(v)); }
  void Value(double v) {
    Comma();
    std::ostringstream s;
    s.precision(12);
    s << v;
    out_ << s.str();
  }
  void Value(uint64_t v) {
    Comma();
    out_ << v;
  }
  void Value(int64_t v) {
    Comma();
    out_ << v;
  }
  void Value(int v) {
    Comma();
    out_ << v;
  }
  void Value(bool v) {
    Comma();
    out_ << (v ? "true" : "false");
  }

  template <typename T>
  void Field(const std::string& name, T v) {
    Key(name);
    Value(v);
  }

  std::string str() const { return out_.str(); }

  /// Writes the accumulated document to `path` with a trailing newline.
  [[nodiscard]] bool WriteTo(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << out_.str() << '\n';
    return static_cast<bool>(f);
  }

 private:
  void Comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;  // this value belongs to the key just written
    }
    if (!stack_.empty() && !stack_.back()) out_ << ',';
    if (!stack_.empty()) stack_.back() = false;
  }
  void WriteString(const std::string& s) {
    out_ << '"';
    for (char c : s) {
      switch (c) {
        case '"':
          out_ << "\\\"";
          break;
        case '\\':
          out_ << "\\\\";
          break;
        case '\n':
          out_ << "\\n";
          break;
        case '\t':
          out_ << "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ << buf;
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
  }

  std::ostringstream out_;
  /// One flag per open container: true = no element written yet.
  std::vector<bool> stack_;
  bool pending_value_ = false;
};

}  // namespace mlcs

#endif  // MLCS_COMMON_JSON_WRITER_H_
