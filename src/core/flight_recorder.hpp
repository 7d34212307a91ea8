// Flight-recorder access to a trace control block (paper §4.2): the one
// ring decoder, for live in-process controls, mapped session segments and
// crash images alike.
//
// In flight-recorder mode the per-processor trace region is a circular
// buffer: when it fills, new events overwrite old ones, so the most recent
// activity is always available — e.g. from a debugger after a crash. This
// is the "function call that prints out the last set of trace events",
// with the paper's filtering controls: show only certain event types, and
// bound how many events are displayed.
//
// The snapshot is taken without stopping producers; buffers overwritten
// mid-copy fail header validation and are dropped, exactly the tool-side
// tolerance §3.1 describes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/control.hpp"
#include "core/decode.hpp"
#include "core/registry.hpp"

namespace ktrace {

struct FlightRecorderOptions {
  /// Keep only the most recent maxEvents events (0 = unlimited).
  size_t maxEvents = 64;
  /// Bit i set = include major class i (default: everything).
  uint64_t majorMask = ~0ull;
  bool includeAnchors = false;
};

/// Copies and decodes the most recent events from a control's circular
/// region, oldest first.
std::vector<DecodedEvent> flightRecorderSnapshot(const ShmTraceControl& control,
                                                 const FlightRecorderOptions& options = {});

/// Renders a snapshot as the debugger-style listing: one line per event,
/// "seconds  NAME  description".
std::string flightRecorderReport(const ShmTraceControl& control, const Registry& registry,
                                 double ticksPerSecond,
                                 const FlightRecorderOptions& options = {});

}  // namespace ktrace
