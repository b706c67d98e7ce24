/// \file benches.h
/// Workload runners. Each fills one Record: with Args::trace off the
/// end-to-end metrics, with it on the per-layer metrics.
#pragma once

#include <map>
#include <string>

#include "common.h"
#include "trace/metrics.h"

namespace perfbench {

/// flat_dense and cell_escalate: the flat / cell flow from GDSII in to
/// a signed-off GDSII out.
Record run_flow_workload(const Args& args);

/// daemon_reuse: an in-process opcd driven over its socket by a
/// closed-loop load generator.
Record run_daemon_workload(const Args& args);

/// Counter value in a snapshot (0 when absent).
double counter(const opckit::trace::MetricsSnapshot& s, const char* name);
/// Gauge value in a snapshot (0 when absent).
double gauge(const opckit::trace::MetricsSnapshot& s, const char* name);

/// The per-layer metric names every traced run reports, with units.
/// Layers a workload does not load report 0.
const std::map<std::string, std::string>& per_layer_units();

/// Put every per-layer metric of \p values into \p rec (missing = 0).
void put_layers(Record& rec, const std::map<std::string, double>& values);

}  // namespace perfbench
