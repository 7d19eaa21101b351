package engine

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/trace"
)

// ShardStat describes one shard's share of the work.
type ShardStat struct {
	Shard  int
	Events int64 // events processed by this shard (broadcasts count once per shard)
}

// Close flushes the partial batches, joins the shard workers, runs the
// end-of-stream passes of tools implementing trace.Finisher, and merges the
// per-instance collectors into one deterministic result (see report.Merge):
// the merged order is the global first-seen order across every tool and
// shard. The error reports the first tool panic caught by an instance's
// SafeSink; the merged collector is valid either way and holds everything
// collected up to the failure.
//
// A mid-stream failure (a ReplayLog decode error) is different: the analysed
// events are only a prefix of the intended stream, so Close joins the
// workers, returns a nil collector and reports the stream error — never a
// partial merged report. Close is idempotent: a second call returns exactly
// the first call's collector and error. Dispatching after Close is a no-op.
func (e *Engine) Close() (*report.Collector, error) {
	if e.closed {
		return e.merged, e.err
	}
	e.closed = true
	e.flushMetrics()
	for _, s := range e.shards {
		if s.pending != nil && len(s.pending.ev) > 0 && e.streamErr == nil {
			s.ch <- s.pending
			if e.met != nil {
				e.met.BatchesFlushed.Inc()
			}
		}
		s.pending = nil
		close(s.ch)
	}
	for _, s := range e.shards {
		<-s.done
	}
	// The workers have joined, so instance state is safe to touch from here.
	if e.streamErr != nil {
		e.err = fmt.Errorf("engine: stream failed after %d events: %w", e.seq, e.streamErr)
		return nil, e.err
	}
	// Finish-phase warnings are stamped one past the last stream sequence:
	// they sort after every stream warning regardless of which shard hosts
	// the finishing tool, exactly as in the Sequential pipeline.
	for _, ti := range e.insts {
		*ti.cur = e.seq + 1
		ti.sink.Finish()
	}
	cols := make([]*report.Collector, len(e.insts))
	for i, ti := range e.insts {
		cols[i] = ti.col
		if err := ti.sink.Err(); err != nil && e.err == nil {
			e.err = err
		}
	}
	e.merged = report.Merge(e.opt.Resolver, e.opt.Suppressor, cols...)
	return e.merged, e.err
}

// Tool returns the live instances of the named registered tool — one per
// shard for block-routed tools, exactly one for pinned tools, none for an
// unknown name. The instances are unwrapped from their SafeSinks. Only
// valid after Close: until the workers have joined, instance state is owned
// by the shard goroutines.
func (e *Engine) Tool(name string) []trace.Sink {
	if !e.closed {
		return nil
	}
	var out []trace.Sink
	for _, ti := range e.insts {
		if ti.name == name {
			out = append(out, ti.sink.Unwrap())
		}
	}
	return out
}

// Summaries returns the per-tool counter rollups of every instance
// implementing trace.Summarizer, summed per tool name — the shard-count-
// independent surface for dynamic counters like memcheck's error and leak
// totals. Only valid after Close: until the workers have joined, instance
// state is owned by the shard goroutines.
func (e *Engine) Summaries() map[string]trace.ToolSummary {
	if !e.closed || e.streamErr != nil {
		// Counters of a failed stream cover only a prefix: as misleading as
		// a partial merged report, and suppressed the same way.
		return nil
	}
	return summarize(e.insts)
}

// summarize sums SummaryCounts per tool name across instances. Shared by
// Engine and Sequential so both surfaces are computed identically.
func summarize(insts []*toolInst) map[string]trace.ToolSummary {
	out := make(map[string]trace.ToolSummary)
	for _, ti := range insts {
		sum, ok := ti.sink.Unwrap().(trace.Summarizer)
		if !ok {
			continue
		}
		s := out[ti.name]
		if s == nil {
			s = make(trace.ToolSummary)
			out[ti.name] = s
		}
		s.Merge(sum.SummaryCounts())
	}
	return out
}

// Stats returns per-shard event counts. Valid after Close.
func (e *Engine) Stats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardStat{Shard: i, Events: s.events}
	}
	return out
}
