package engine

import (
	"io"

	"repro/internal/report"
	"repro/internal/trace"
)

// Pipeline is the surface shared by Engine and Sequential: a live event sink
// that can also replay recorded logs, finished by Close into a merged
// deterministic report. Everything that runs the tool registry over a stream
// — core.Run, the offline replay paths, the ingest server's per-session
// pipelines — programs against this interface and picks the sharded or the
// inline implementation per run.
type Pipeline interface {
	trace.Sink
	// ReplayLog decodes a recorded binary log once and streams it through
	// the pipeline, returning the number of events dispatched. A decode
	// error marks the run failed: Close then returns the error and no
	// partial merged report.
	ReplayLog(r io.Reader) (int64, error)
	// Events returns the number of events dispatched so far.
	Events() int64
	// QueueLoad reports the pipeline's current dispatch backlog as a
	// fraction of capacity in [0, 1]: the fullest shard queue for the
	// sharded engine, always 0 for the inline sequential pipeline (delivery
	// is synchronous, there is no queue). Unlike the engine_queue_hwm
	// gauges, which only ratchet up, this is a live signal — the ingest
	// server's adaptive sampler keys off it. Call from the dispatching
	// goroutine.
	QueueLoad() float64
	// Snapshot quiesces the pipeline between events and returns the
	// deterministic merged report of everything analysed so far, without
	// ending the stream or perturbing the final report (see Engine.Snapshot
	// for the full contract). It must be called from the dispatching
	// goroutine.
	Snapshot() (*report.Collector, error)
	// Close ends the stream, runs end-of-stream passes and returns the
	// merged deterministic report (see Engine.Close for the full contract).
	Close() (*report.Collector, error)
	// Tool returns the live instances of the named registered tool. Only
	// valid after Close.
	Tool(name string) []trace.Sink
	// Summaries returns the per-tool counter rollups, summed across shard
	// instances. Only valid after Close.
	Summaries() map[string]trace.ToolSummary
}

var (
	_ Pipeline = (*Engine)(nil)
	_ Pipeline = (*Sequential)(nil)
)

// NewPipeline creates the sharded engine when opt.Shards > 1 and the inline
// single-pass Sequential otherwise. Both produce byte-identical reports from
// the same stream; the choice is purely a throughput decision.
func NewPipeline(opt Options) (Pipeline, error) {
	if opt.Shards > 1 {
		return New(opt)
	}
	return NewSequential(opt)
}
