package engine

import "repro/internal/obs"

// Metrics is the engine's self-observability surface: process-wide counters
// the delivery and snapshot paths feed when Options.Metrics is set. One
// Metrics may be shared by any number of pipelines (the ingest server shares
// one across every session), since every field is concurrency-safe; nil
// disables instrumentation entirely.
//
// Instrumentation never touches collectors or tool state, so reports are
// byte-identical with metrics attached or not — the ingest obs-conformance
// test pins this — and the hot-path cost is kept off the allocation profile:
// the per-event work is one local increment, folded into the shared counters
// every metricsFlushEvery events and at every snapshot and close boundary.
type Metrics struct {
	// EventsDecoded counts source events delivered into pipelines.
	EventsDecoded *obs.Counter
	// SnapshotQuiesceNs observes the latency of each snapshot: the time to
	// clone every tool collector.
	SnapshotQuiesceNs *obs.Histogram
	// ToolPanics counts panics absorbed by instance SafeSinks.
	ToolPanics *obs.Counter
}

// NewMetrics registers the engine metric families on reg and returns the
// resolved handles. Idempotent per registry: a second call returns handles
// onto the same series.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		EventsDecoded: reg.Counter("engine_events_decoded_total", "Source events decoded and dispatched into analysis pipelines."),
		SnapshotQuiesceNs: reg.Histogram("engine_snapshot_quiesce_ns",
			"Latency of a pipeline snapshot (cloning every tool collector), nanoseconds.", obs.LatencyBuckets()),
		ToolPanics: reg.Counter("engine_tool_panics_total", "Tool panics absorbed by SafeSink isolation."),
	}
}

// metricsFlushEvery is how many locally-counted events accumulate before
// being folded into the shared EventsDecoded counter: one atomic add per
// this many events keeps the instrumented delivery path within benchmark
// noise of the uninstrumented one.
const metricsFlushEvery = 1024
