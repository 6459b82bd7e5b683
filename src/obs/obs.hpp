#pragma once

/// @file obs.hpp
/// Umbrella header for the `bis::obs` observability subsystem:
///   - telemetry.hpp — process-wide enable switch (`obs::set_enabled` or
///     the BIS_TRACE environment variable),
///   - metrics.hpp   — named counters / gauges / histograms,
///   - trace.hpp     — RAII spans and Chrome-trace (chrome://tracing) export,
///   - report.hpp    — per-run structured stats (RunReport).
/// See DESIGN.md §10 and README "Observability" for usage.

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
