package engine

import (
	"fmt"
	"io"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// toolInst is one live tool instance: a sink behind its panic isolator and a
// private collector stamping sites with the pipeline's current global
// sequence number.
type toolInst struct {
	name string
	col  *report.Collector
	sink *trace.SafeSink
}

func newToolInst(spec trace.ToolSpec, opt Options, cur *uint64) *toolInst {
	col := report.NewCollector(opt.Resolver, opt.Suppressor)
	col.SetSequencer(func() uint64 { return *cur })
	// The SafeSink isolates a panicking tool to this one instance: sibling
	// tools keep analysing; the panic surfaces as an error from Close.
	ss := trace.NewSafeSink(spec.Factory(col))
	if opt.Metrics != nil {
		ss.OnPanic = opt.Metrics.ToolPanics.Inc
	}
	return &toolInst{name: spec.Name, col: col, sink: ss}
}

// Sequential is the analysis pipeline: one instance of every registered
// tool, each with its own collector stamped with the global sequence, an
// end-of-stream Finisher pass and a deterministic merge. Every event is
// delivered inline to every tool on the caller's goroutine, in registration
// order, so every tool sees the full ordered stream.
//
// Sequential implements trace.Sink, so it attaches to a live VM with
// AddTool; recorded logs go through ReplayLog. All events must come from one
// goroutine, as both the VM and the log decoder guarantee.
type Sequential struct {
	opt       Options
	insts     []*toolInst
	seq       uint64 // events delivered
	cur       uint64 // sequence the collectors stamp with (seq, or seq+1 in Close)
	closed    bool
	merged    *report.Collector
	err       error
	streamErr error // first mid-stream failure (e.g. a ReplayLog decode error)

	// Instrumentation (nil-gated). metPending counts events delivered since
	// the last fold into met.EventsDecoded, so the per-event cost is a plain
	// increment.
	met        *Metrics
	metPending int64
}

// NewSequential creates the single-pass multi-tool pipeline.
func NewSequential(opt Options) (*Sequential, error) {
	if err := validateTools(opt.Tools); err != nil {
		return nil, err
	}
	s := &Sequential{opt: opt, met: opt.Metrics}
	for _, spec := range opt.Tools {
		s.insts = append(s.insts, newToolInst(spec, opt, &s.cur))
	}
	return s, nil
}

// Events returns the number of events delivered so far.
func (s *Sequential) Events() int64 { return int64(s.seq) }

// ReplayLog decodes a recorded binary log once and delivers every event to
// every tool. Call Close afterwards to obtain the merged report.
//
// A decode error (corrupt or truncated log) marks the whole run failed: the
// events delivered so far analysed only a prefix of the stream, so Close
// will return the error instead of a partial merged report.
func (s *Sequential) ReplayLog(r io.Reader) (int64, error) {
	n, err := tracelog.Each(r, func(ev *tracelog.Event) { ev.Deliver(s) })
	if s.streamErr == nil {
		s.streamErr = err
	}
	return n, err
}

// Close runs the end-of-stream passes of tools implementing trace.Finisher
// and merges the per-tool collectors into one deterministic result (see
// report.Merge): the merged order is the global first-seen order across
// every tool. The error reports the first tool panic caught by an
// instance's SafeSink; the merged collector is valid either way and holds
// everything collected up to the failure.
//
// A mid-stream failure (a ReplayLog decode error) is different: the analysed
// events are only a prefix of the intended stream, so Close returns a nil
// collector and a stable error — never a partial merged report. Close is
// idempotent: a second call returns exactly the first call's collector and
// error. Delivering events after Close is a no-op.
func (s *Sequential) Close() (*report.Collector, error) {
	if s.closed {
		return s.merged, s.err
	}
	s.closed = true
	s.flushMetrics()
	if s.streamErr != nil {
		s.err = fmt.Errorf("engine: stream failed after %d events: %w", s.seq, s.streamErr)
		return nil, s.err
	}
	s.cur = s.seq + 1 // Finish-phase warnings sort after every stream event
	cols := make([]*report.Collector, len(s.insts))
	for i, ti := range s.insts {
		ti.sink.Finish()
		cols[i] = ti.col
		if err := ti.sink.Err(); err != nil && s.err == nil {
			s.err = err
		}
	}
	s.merged = report.Merge(s.opt.Resolver, s.opt.Suppressor, cols...)
	return s.merged, s.err
}

// Snapshot returns the exact merged report a Close at this point in the
// stream would produce — minus end-of-stream Finisher passes, which must not
// run early (they may mutate tool state) — without ending the stream. Each
// tool collector is deep-copied through its trace.Snapshotter capability and
// the copies are merged exactly as Close merges the originals, so a snapshot
// manifest is always a prefix of the final manifest
// (report.PrefixConsistent), and the final report of a run with any number
// of interleaved snapshots is byte-identical to a snapshot-free run. The
// ingest server builds its periodic incremental session reports on this.
//
// Delivery is inline, so between events the collectors are already at rest:
// Snapshot must be called from the dispatching goroutine, between events.
// After Close it returns an error; after a mid-stream failure it returns the
// stream error and no collector — a snapshot of a failed prefix would be as
// misleading as a partial final report.
func (s *Sequential) Snapshot() (*report.Collector, error) {
	if s.closed {
		return nil, fmt.Errorf("engine: Snapshot after Close")
	}
	if s.streamErr != nil {
		return nil, fmt.Errorf("engine: stream failed after %d events: %w", s.seq, s.streamErr)
	}
	s.flushMetrics()
	var cloneStart time.Time
	if s.met != nil {
		cloneStart = time.Now()
	}
	cols := make([]*report.Collector, len(s.insts))
	for i, ti := range s.insts {
		cols[i] = trace.Snapshotter(ti.col).SnapshotReport().(*report.Collector)
	}
	if s.met != nil {
		s.met.SnapshotQuiesceNs.Observe(int64(time.Since(cloneStart)))
	}
	return report.Merge(s.opt.Resolver, s.opt.Suppressor, cols...), nil
}

// Summaries returns the per-tool counter rollups of every instance
// implementing trace.Summarizer, keyed by tool name. Only valid after a
// successful stream: counters of a failed stream cover only a prefix, as
// misleading as a partial merged report, and are suppressed the same way.
func (s *Sequential) Summaries() map[string]trace.ToolSummary {
	if !s.closed || s.streamErr != nil {
		return nil
	}
	out := make(map[string]trace.ToolSummary)
	for _, ti := range s.insts {
		if sum, ok := ti.sink.Unwrap().(trace.Summarizer); ok {
			out[ti.name] = sum.SummaryCounts()
		}
	}
	return out
}

// Tool returns the live instance of the named registered tool, unwrapped
// from its SafeSink; nil for an unknown name.
func (s *Sequential) Tool(name string) trace.Sink {
	for _, ti := range s.insts {
		if ti.name == name {
			return ti.sink.Unwrap()
		}
	}
	return nil
}

// deliver bumps the global sequence and hands the event callback to every
// tool in registration order.
func (s *Sequential) deliver(fn func(trace.Sink)) {
	if s.closed {
		return
	}
	s.seq++
	if s.met != nil {
		s.metPending++
		if s.metPending >= metricsFlushEvery {
			s.met.EventsDecoded.Add(s.metPending)
			s.metPending = 0
		}
	}
	s.cur = s.seq
	for _, ti := range s.insts {
		fn(ti.sink)
	}
}

// flushMetrics folds the locally-batched event count into the shared
// counter. Called at every snapshot and close boundary so the exported
// series are exact whenever anyone can observe them.
func (s *Sequential) flushMetrics() {
	if s.met != nil && s.metPending > 0 {
		s.met.EventsDecoded.Add(s.metPending)
		s.metPending = 0
	}
}

// ToolName implements trace.Sink.
func (s *Sequential) ToolName() string { return "engine-sequential" }

// Access implements trace.Sink.
func (s *Sequential) Access(a *trace.Access) {
	s.deliver(func(t trace.Sink) { t.Access(a) })
}

// Acquire implements trace.Sink.
func (s *Sequential) Acquire(t trace.ThreadID, l trace.LockID, k trace.LockKind, st trace.StackID) {
	s.deliver(func(snk trace.Sink) { snk.Acquire(t, l, k, st) })
}

// Release implements trace.Sink.
func (s *Sequential) Release(t trace.ThreadID, l trace.LockID, k trace.LockKind, st trace.StackID) {
	s.deliver(func(snk trace.Sink) { snk.Release(t, l, k, st) })
}

// Contended implements trace.Sink.
func (s *Sequential) Contended(t trace.ThreadID, l trace.LockID, st trace.StackID) {
	s.deliver(func(snk trace.Sink) { snk.Contended(t, l, st) })
}

// Alloc implements trace.Sink.
func (s *Sequential) Alloc(b *trace.Block) {
	s.deliver(func(t trace.Sink) { t.Alloc(b) })
}

// Free implements trace.Sink.
func (s *Sequential) Free(b *trace.Block, t trace.ThreadID, st trace.StackID) {
	s.deliver(func(snk trace.Sink) { snk.Free(b, t, st) })
}

// Segment implements trace.Sink. No copy is needed: delivery is inline, so
// the usual Sink contract (tools do not retain the slice) already holds.
func (s *Sequential) Segment(ss *trace.SegmentStart) {
	s.deliver(func(t trace.Sink) { t.Segment(ss) })
}

// Sync implements trace.Sink.
func (s *Sequential) Sync(ev *trace.SyncEvent) {
	s.deliver(func(t trace.Sink) { t.Sync(ev) })
}

// Request implements trace.Sink.
func (s *Sequential) Request(r *trace.Request) {
	s.deliver(func(t trace.Sink) { t.Request(r) })
}

// ThreadStart implements trace.Sink.
func (s *Sequential) ThreadStart(t, parent trace.ThreadID) {
	s.deliver(func(snk trace.Sink) { snk.ThreadStart(t, parent) })
}

// ThreadExit implements trace.Sink.
func (s *Sequential) ThreadExit(t trace.ThreadID) {
	s.deliver(func(snk trace.Sink) { snk.ThreadExit(t) })
}

var _ trace.Sink = (*Sequential)(nil)
