// Self-describing event registry (paper §4.4).
//
// Each event type is registered with a descriptor containing:
//   - name:    the event's symbolic name (the paper's __TR(arg) macro makes
//              the symbol usable as both constant and string; here the
//              KT_TR macro stringizes it),
//   - format:  space-separated tokens describing the payload: 8, 16, 32,
//              64 or str. Consecutive sub-64-bit tokens are packed into a
//              shared 64-bit word, matching the facility's packing macros;
//              64 and str each start a fresh word. A str occupies a length
//              word plus ceil(len/8) data words.
//   - display: a printf-like string where %N[fmt] interpolates token N
//              using the printf format `fmt`,
//
// e.g.  { KT_TR(TRACE_MEM_FCMCOM_ATCH_REG), "64 64",
//         "Region %0[%llx] attached to FCM %1[%llx]" }.
//
// Tools use the registry to print any event with no event-specific code.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/event.hpp"

namespace ktrace {

struct DecodedEvent;  // core/decode.hpp

#define KT_TR(arg) #arg

struct EventDescriptor {
  Major major = Major::Control;
  uint16_t minor = 0;
  std::string name;
  std::string format;   // "64 64 str" etc.; empty = no payload
  std::string display;  // "%0[...]"-style template; empty = name only
};

/// A decoded payload value: either a number or a string.
struct FieldValue {
  bool isString = false;
  uint64_t num = 0;
  std::string str;
};

class Registry {
 public:
  Registry();

  /// Process-wide registry; subsystems register their events at startup.
  static Registry& global();

  /// Registers (or replaces) a descriptor.
  void add(EventDescriptor desc);

  /// Convenience for bulk registration.
  void addAll(std::span<const EventDescriptor> descs);

  const EventDescriptor* find(Major major, uint16_t minor) const;

  /// Symbolic name, or "major<M>/minor<m>" when unregistered.
  std::string eventName(Major major, uint16_t minor) const;

  /// Decode an event's payload per its descriptor's format tokens.
  /// Returns false when the payload is inconsistent with the format.
  bool decodeValues(const EventDescriptor& desc,
                    std::span<const uint64_t> data,
                    std::vector<FieldValue>& out) const;

  /// Human-readable rendering of the event's payload via the descriptor's
  /// display template; falls back to a hex word dump when the event is
  /// unregistered or malformed.
  std::string formatEvent(const DecodedEvent& event) const;

  size_t size() const;

 private:
  static uint32_t key(Major major, uint16_t minor) noexcept {
    return (static_cast<uint32_t>(major) << 16) | minor;
  }

  mutable std::mutex mutex_;
  std::unordered_map<uint32_t, EventDescriptor> events_;
};

/// Applies the %N[fmt] display template to decoded values. Exposed for
/// tests. Unknown references render as "<?N>".
std::string applyDisplayTemplate(const std::string& display,
                                 std::span<const FieldValue> values);

/// Splits a format string into tokens; returns false on an unknown token.
bool parseFormatTokens(const std::string& format, std::vector<std::string>& out);

}  // namespace ktrace
