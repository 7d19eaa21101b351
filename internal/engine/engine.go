// Package engine is the analysis pipeline: it replays a recorded trace — or
// consumes a live VM event stream — through a registry of tools in one pass
// and produces one deterministic merged report.
//
// Architecture (see also the root doc.go): the pipeline runs a *tool
// registry* — any number of trace.ToolSpecs — over a single decode of the
// event stream, the way the paper's Helgrind-based tools analyse a monitored
// process inline:
//
//   - The event stream is decoded (or received from the VM) exactly once and
//     every event is delivered, in stream order, to every registered tool on
//     the caller's goroutine. Each tool sits behind its own panic-isolating
//     trace.SafeSink, so one buggy tool cannot take down its siblings.
//   - Every tool writes to a private report.Collector whose sites are
//     stamped with the global event sequence number of their first
//     occurrence. Close runs end-of-stream passes (trace.Finisher) and merges
//     all collectors deterministically (report.Merge): duplicate sites fold
//     with summed counts and the merged order is the global first-seen order
//     across every tool.
//
// Parallelism lives one level up, across independent sessions: the ingest
// server runs one pipeline per client connection, and the router tier
// spreads sessions across backend processes. Neither needs a barrier.
package engine

import (
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/trace"
)

// Options configures a pipeline.
type Options struct {
	// Deprecated: Shards is read by nothing; every pipeline is the inline
	// Sequential. The field remains only for callers that still set it.
	Shards int
	// Tools is the registry: every listed tool runs over the single decode
	// of the stream. Names must be unique. Required.
	Tools []trace.ToolSpec
	// Resolver resolves stacks and blocks at reporting time; it is handed to
	// every tool collector and to the merged result.
	Resolver trace.Resolver
	// Suppressor applies suppression rules in every tool collector.
	Suppressor report.Suppressor
	// Metrics, when non-nil, receives hot-path instrumentation (events
	// dispatched, snapshot latency, absorbed tool panics). Several pipelines
	// may share one Metrics. Instrumentation never influences analysis:
	// reports are byte-identical with or without it.
	Metrics *Metrics
}

// validateTools checks the registry invariants.
func validateTools(tools []trace.ToolSpec) error {
	if len(tools) == 0 {
		return fmt.Errorf("engine: no tools registered (set Options.Tools)")
	}
	seen := make(map[string]bool, len(tools))
	for _, spec := range tools {
		if spec.Factory == nil {
			return fmt.Errorf("engine: tool %q has no Factory", spec.Name)
		}
		if spec.Name == "" {
			return fmt.Errorf("engine: tool with empty Name")
		}
		if seen[spec.Name] {
			return fmt.Errorf("engine: duplicate tool name %q (give each registered tool a distinct report name)", spec.Name)
		}
		seen[spec.Name] = true
		switch spec.Routing {
		case trace.RouteBlock, trace.RouteBroadcast, trace.RouteSingle:
		default:
			return fmt.Errorf("engine: tool %q has unknown routing %d", spec.Name, spec.Routing)
		}
	}
	return nil
}

// Pipeline is the surface everything that runs the tool registry over a
// stream programs against — core.Run, the offline replay paths, the ingest
// server's per-session pipelines: a live event sink that can also replay
// recorded logs, finished by Close into a merged deterministic report.
// Sequential is its implementation.
type Pipeline interface {
	trace.Sink
	// ReplayLog decodes a recorded binary log once and streams it through
	// the pipeline, returning the number of events dispatched. A decode
	// error marks the run failed: Close then returns the error and no
	// partial merged report.
	ReplayLog(r io.Reader) (int64, error)
	// Events returns the number of events dispatched so far.
	Events() int64
	// Snapshot returns the deterministic merged report of everything
	// analysed so far, between events, without ending the stream or
	// perturbing the final report (see Sequential.Snapshot). It must be
	// called from the dispatching goroutine.
	Snapshot() (*report.Collector, error)
	// Close ends the stream, runs end-of-stream passes and returns the
	// merged deterministic report (see Sequential.Close).
	Close() (*report.Collector, error)
	// Tool returns the live instance of the named registered tool, nil for
	// an unknown name.
	Tool(name string) trace.Sink
	// Summaries returns the per-tool counter rollups. Only valid after
	// Close.
	Summaries() map[string]trace.ToolSummary
}

var _ Pipeline = (*Sequential)(nil)

// NewPipeline creates the inline single-pass Sequential pipeline; the
// deprecated Options field is ignored.
func NewPipeline(opt Options) (Pipeline, error) {
	s, err := NewSequential(opt)
	if err != nil {
		return nil, err
	}
	return s, nil
}
