package trace

// Routing classifies which slice of the event stream a tool's warnings
// depend on. The pipeline itself delivers the whole ordered stream to every
// tool; the class is what the ingest server's overload machinery reads to
// degrade a session soundly:
//
//   - The shed ladder drops whole tools from sessions admitted under
//     pressure, in class order: RouteSingle tools first, RouteBroadcast tools
//     next, RouteBlock tools never. Block-routed tools are the paper's core
//     race and memory detectors; the others are auxiliary checkers.
//   - Adaptive sampling drops a deterministic per-block fraction of memory
//     accesses (trace.Shard over the block ID). That is sound for RouteBlock
//     tools, whose warning-producing state is per block: every access to a
//     kept block still arrives, so a kept block's state is complete and a
//     dropped block's is absent, never torn. Sampling can then only miss
//     warnings, not invent them.
type Routing uint8

// Routing classes.
const (
	// RouteBlock tools keep their mutable warning-producing state per heap
	// block and warn only from block-carrying events (accesses, allocations,
	// frees, client requests); synchronisation, segment and thread events
	// only evolve the thread/lock/segment picture those warnings are judged
	// against. The race detectors (lockset, DJIT, hybrid) and memcheck are
	// block-routed.
	RouteBlock Routing = iota
	// RouteBroadcast tools warn from non-block events only and need none of
	// the block-carrying stream (the lock-order deadlock detector: its input
	// is the global acquire/contended/release order).
	RouteBroadcast
	// RouteSingle tools need the full, totally-ordered stream — their state
	// spans blocks in ways no per-block partition preserves (the
	// view-consistency checker correlates accesses to different blocks made
	// under one critical section).
	RouteSingle
)

func (r Routing) String() string {
	switch r {
	case RouteBlock:
		return "block-routed"
	case RouteBroadcast:
		return "broadcast"
	default:
		return "whole-stream"
	}
}

// ToolFactory builds one tool instance writing its warnings to col. The
// pipeline calls it once per registered tool; every call must return a
// fresh instance sharing no mutable state with other instances, so separate
// pipelines (one per ingest session) never share analysis state.
type ToolFactory func(col Reporter) Sink

// ToolSpec registers one analysis tool with the engine. Every detector
// package exports a Spec constructor returning its canonical entry:
// lockset.Spec, vectorclock.Spec, hybrid.Spec, deadlock.Spec, memcheck.Spec,
// highlevel.Spec. Any number of specs — several race detector configurations
// side by side, plus all auxiliary checkers — can run together over a
// single decode of the stream.
type ToolSpec struct {
	// Name identifies the tool within a run; the engine rejects duplicate
	// names. It should equal the report name the tool stamps into warnings
	// (Warning.Tool), since that name keys warning deduplication.
	Name string
	// Routing is the tool's routing class (see Routing).
	Routing Routing
	// Factory builds the tool's instance. Required.
	Factory ToolFactory
}

// Finisher is implemented by tools that run an end-of-stream analysis pass
// (the view-consistency checker accumulates views during the run and compares
// them at the end). The engine invokes Finish after the last event and before
// merging reports; warnings added from Finish are sequenced after every
// stream event, so the merged order stays deterministic.
type Finisher interface {
	Finish()
}

// ToolSummary is a tool's end-of-run counter rollup, keyed by counter name
// (e.g. "errors", "leaked-blocks", "leaked-bytes"). Summaries carry the
// dynamic counters that warning sites do not: the pipeline reports them per
// tool, and the ingest server sums them across sessions into its aggregate.
type ToolSummary map[string]int64

// Merge adds every counter of other into s.
func (s ToolSummary) Merge(other ToolSummary) {
	for k, v := range other {
		s[k] += v
	}
}

// Snapshotter is the point-in-time checkpoint capability of the engine's
// snapshot lifecycle: a reporter (report.Collector is the canonical
// implementation) that can produce a deep, independent copy of everything it
// has accumulated so far. Between events, the pipeline snapshots every tool
// collector through this interface; the copies are merged into an
// incremental mid-stream report while the originals keep accumulating, so
// taking a snapshot can never perturb the final end-of-stream report.
type Snapshotter interface {
	// SnapshotReport returns an independent deep copy of the accumulated
	// report state. The copy shares no mutable state with the original:
	// subsequent warnings added to the original must not be visible through
	// the copy, and vice versa.
	SnapshotReport() Reporter
}

// Summarizer is implemented by tools with dynamic end-of-run counters worth
// reporting beside their warnings (memcheck's error and leak totals). The
// engine collects SummaryCounts from every tool after the stream ends, keyed
// by tool name. The counters must stay meaningful when summed, since the
// ingest aggregate adds them up across sessions.
type Summarizer interface {
	SummaryCounts() ToolSummary
}
