#include "core/registry.hpp"

#include <cstdio>
#include <sstream>

#include "core/decode.hpp"
#include "core/packing.hpp"
#include "util/table.hpp"

namespace ktrace {

Registry::Registry() {
  // The infrastructure's own events are always known.
  add({Major::Control, static_cast<uint16_t>(ControlMinor::Filler),
       KT_TR(TRACE_CONTROL_FILLER), "", "filler"});
  add({Major::Control, static_cast<uint16_t>(ControlMinor::BufferAnchor),
       KT_TR(TRACE_CONTROL_BUFFER_ANCHOR), "64 64",
       "buffer anchor ts %0[%llu] seq %1[%llu]"});
  add({Major::Monitor, static_cast<uint16_t>(MonitorMinor::Heartbeat),
       KT_TR(TRACE_MONITOR_HEARTBEAT), "64 64 64 64 64 64 64 64 64 64 64",
       "heartbeat #%0[%llu] bufseq %1[%llu] events %2[%llu] words %3[%llu] "
       "retries %4[%llu] dropped %6[%llu] consumed %8[%llu] lost %9[%llu]"});
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

void Registry::add(EventDescriptor desc) {
  std::lock_guard lock(mutex_);
  events_[key(desc.major, desc.minor)] = std::move(desc);
}

void Registry::addAll(std::span<const EventDescriptor> descs) {
  for (const auto& d : descs) add(d);
}

const EventDescriptor* Registry::find(Major major, uint16_t minor) const {
  std::lock_guard lock(mutex_);
  const auto it = events_.find(key(major, minor));
  return it == events_.end() ? nullptr : &it->second;
}

std::string Registry::eventName(Major major, uint16_t minor) const {
  if (const EventDescriptor* d = find(major, minor)) return d->name;
  return util::strprintf("major%u/minor%u", static_cast<uint32_t>(major), minor);
}

size_t Registry::size() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

bool parseFormatTokens(const std::string& format, std::vector<std::string>& out) {
  out.clear();
  std::istringstream in(format);
  std::string tok;
  while (in >> tok) {
    if (tok != "8" && tok != "16" && tok != "32" && tok != "64" && tok != "str") {
      return false;
    }
    out.push_back(tok);
  }
  return true;
}

bool Registry::decodeValues(const EventDescriptor& desc,
                            std::span<const uint64_t> data,
                            std::vector<FieldValue>& out) const {
  out.clear();
  std::vector<std::string> tokens;
  if (!parseFormatTokens(desc.format, tokens)) return false;

  size_t word = 0;       // index of the word currently being unpacked
  uint32_t bitOffset = 0;  // next free bit within that word (packing cursor)
  for (const std::string& tok : tokens) {
    if (tok == "str") {
      if (bitOffset != 0) {  // strings start on a fresh word
        ++word;
        bitOffset = 0;
      }
      if (word >= data.size()) return false;
      FieldValue v;
      v.isString = true;
      const size_t consumed = unpackString(data.data() + word, data.size() - word, v.str);
      if (consumed == 0) return false;
      word += consumed;
      out.push_back(std::move(v));
      continue;
    }
    const uint32_t width = tok == "8" ? 8 : tok == "16" ? 16 : tok == "32" ? 32 : 64;
    if (bitOffset + width > 64) {  // does not fit: advance to the next word
      ++word;
      bitOffset = 0;
    }
    if (word >= data.size()) return false;
    FieldValue v;
    v.num = (data[word] >> bitOffset) &
            (width == 64 ? ~0ull : ((1ull << width) - 1));
    bitOffset += width;
    if (bitOffset == 64) {
      ++word;
      bitOffset = 0;
    }
    out.push_back(std::move(v));
  }
  return true;
}

std::string applyDisplayTemplate(const std::string& display,
                                 std::span<const FieldValue> values) {
  std::string out;
  out.reserve(display.size() + 32);
  size_t i = 0;
  while (i < display.size()) {
    const char c = display[i];
    if (c != '%') {
      out.push_back(c);
      ++i;
      continue;
    }
    if (i + 1 < display.size() && display[i + 1] == '%') {
      out.push_back('%');
      i += 2;
      continue;
    }
    // Parse %N[fmt].
    size_t j = i + 1;
    size_t n = 0;
    bool haveDigit = false;
    while (j < display.size() && display[j] >= '0' && display[j] <= '9') {
      n = n * 10 + static_cast<size_t>(display[j] - '0');
      haveDigit = true;
      ++j;
    }
    if (!haveDigit || j >= display.size() || display[j] != '[') {
      out.push_back('%');  // not a reference: emit literally
      ++i;
      continue;
    }
    const size_t close = display.find(']', j);
    if (close == std::string::npos) {
      out.push_back('%');
      ++i;
      continue;
    }
    const std::string fmt = display.substr(j + 1, close - j - 1);
    if (n >= values.size()) {
      out += util::strprintf("<?%zu>", n);
    } else if (values[n].isString) {
      // Strings ignore numeric conversions; render the bytes directly.
      out += values[n].str;
    } else {
      char buf[64];
      // Accept the common integer conversions; anything else gets hex.
      if (fmt.find("llx") != std::string::npos || fmt.find("lx") != std::string::npos ||
          fmt.find('x') != std::string::npos) {
        std::snprintf(buf, sizeof(buf), "%llx",
                      static_cast<unsigned long long>(values[n].num));
      } else if (fmt.find("lld") != std::string::npos || fmt.find('d') != std::string::npos) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(values[n].num));
      } else {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(values[n].num));
      }
      out += buf;
    }
    i = close + 1;
  }
  return out;
}

std::string Registry::formatEvent(const DecodedEvent& event) const {
  const EventDescriptor* desc = find(event.header.major, event.header.minor);
  const std::span<const uint64_t> data(event.data.data(), event.data.size());
  if (desc != nullptr) {
    std::vector<FieldValue> values;
    if (decodeValues(*desc, data, values)) {
      if (desc->display.empty()) return desc->name;
      return applyDisplayTemplate(desc->display, values);
    }
  }
  // Unregistered or malformed: hex dump.
  std::string out = eventName(event.header.major, event.header.minor);
  for (const uint64_t w : data) out += util::strprintf(" %llx", static_cast<unsigned long long>(w));
  return out;
}

}  // namespace ktrace
