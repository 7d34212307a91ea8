// Umbrella header for the ktrace unified tracing library.
//
// Quickstart:
//
//   ktrace::FacilityConfig cfg;
//   cfg.numProcessors = 4;
//   ktrace::Facility facility(cfg);
//   facility.mask().enableAll();
//   facility.bindCurrentThread(0);
//   facility.log(ktrace::Major::App, /*minor=*/1, value0, value1);
//
// See README.md for the full tour and examples/ for runnable programs.
#pragma once

#include "core/consumer.hpp"
#include "core/control.hpp"
#include "core/decode.hpp"
#include "core/event.hpp"
#include "core/facility.hpp"
#include "core/flight_recorder.hpp"
#include "core/logger.hpp"
#include "core/mask.hpp"
#include "core/monitor.hpp"
#include "core/packing.hpp"
#include "core/registry.hpp"
#include "core/shm_session.hpp"
#include "core/sink.hpp"
#include "core/timestamp.hpp"
#include "core/trace_file.hpp"
