package engine

import (
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// Sequential is the single-goroutine counterpart of Engine: the same tool
// registry, the same per-tool collectors with global sequence stamping, the
// same end-of-stream Finisher pass and the same deterministic merge — but
// every event is delivered inline to every tool on the caller's goroutine,
// with no routing at all. It defines the reference output the sharded engine
// must reproduce byte for byte, and it is what core.Run uses when
// parallelism is off: one pass over the stream feeds all registered tools.
//
// Sequential implements trace.Sink, so it attaches to a live VM with
// AddTool; recorded logs go through ReplayLog. Routing classes are ignored —
// sequentially, every tool simply sees the full ordered stream.
type Sequential struct {
	opt       Options
	insts     []*toolInst
	seq       uint64 // events delivered
	cur       uint64 // sequence the collectors stamp with (seq, or seq+1 in Close)
	closed    bool
	merged    *report.Collector
	err       error
	streamErr error // first mid-stream failure (e.g. a ReplayLog decode error)

	// Instrumentation (nil-gated); see the Engine fields of the same names.
	met        *Metrics
	metPending int64
}

// NewSequential creates the single-pass multi-tool pipeline. Shards,
// BatchSize and QueueDepth are ignored; the tool registry rules are the same
// as New's.
func NewSequential(opt Options) (*Sequential, error) {
	opt = opt.withDefaults()
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

// QueueLoad is always 0: inline delivery has no dispatch queue to back up.
func (s *Sequential) QueueLoad() float64 { return 0 }

// ReplayLog decodes a recorded binary log once and delivers every event to
// every tool. Call Close afterwards to obtain the merged report.
//
// A decode error (corrupt or truncated log) marks the whole run failed, with
// the same contract as Engine.ReplayLog: Close will return the error instead
// of a partial merged report.
func (s *Sequential) ReplayLog(r io.Reader) (int64, error) {
	n, err := tracelog.Each(r, func(ev *tracelog.Event) { ev.Deliver(s) })
	if s.streamErr == nil {
		s.streamErr = err
	}
	return n, err
}

// Close runs the end-of-stream passes of tools implementing trace.Finisher
// and merges the per-tool collectors deterministically, mirroring
// Engine.Close — including the error contracts: a tool panic still yields
// the merged collector, while a mid-stream failure yields a nil collector
// and a stable error, never a partial merged report. Close is idempotent;
// delivering events after Close is a no-op.
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

// Summaries returns the per-tool counter rollups of every instance
// implementing trace.Summarizer (see Engine.Summaries — the two surfaces are
// computed identically, so sequential and sharded runs report the same
// totals). Only valid after Close.
func (s *Sequential) Summaries() map[string]trace.ToolSummary {
	if !s.closed || s.streamErr != nil {
		return nil
	}
	return summarize(s.insts)
}

// Tool returns the live instance of the named registered tool (always
// exactly one sequentially), unwrapped from its SafeSink; nil for an
// unknown name.
func (s *Sequential) Tool(name string) []trace.Sink {
	var out []trace.Sink
	for _, ti := range s.insts {
		if ti.name == name {
			out = append(out, ti.sink.Unwrap())
		}
	}
	return out
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
// counter, mirroring Engine.flushMetrics.
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
