// Package memcheck implements a minimal memory-checking tool: accesses to
// freed guest blocks and double frees. The paper leans on this capability in
// §4.2.1: the destructor annotation marks deleted memory exclusive, which is
// sound because "accesses to released memory blocks" are the province of
// ordinary memory checkers — this tool closes that loop.
package memcheck

import (
	"repro/internal/report"
	"repro/internal/trace"
)

// Config parameterises the tool.
type Config struct {
	// Tool is the report name; defaults to "memcheck".
	Tool string
}

// blkState is one block's lifecycle record. The base address is captured
// when the block is freed, not re-read from the double free's descriptor:
// the log decoder evicts a block from its table at the first free (the
// table must stay bounded by the live set), so a second free of the same
// ID arrives carrying only the bare ID.
type blkState struct {
	base   trace.Addr
	size   uint32
	status uint8
}

const (
	blkUnseen uint8 = iota
	blkLive
	blkFreed
)

// Detector is the memcheck tool. Block state lives in a flat slice behind a
// dense remapper, so the per-access freed check is an array load. Unlike the
// race detectors, no slot is ever evicted: a freed block's record must
// outlive the block forever to catch double frees and use after free.
type Detector struct {
	trace.BaseSink
	cfg    Config
	col    trace.Reporter
	blkIx  trace.Dense
	blocks []blkState
	errors int
}

// Spec registers the tool with the analysis engine's tool registry. Memcheck
// is block-routed: its entire state is the per-block freed flag, and both of
// its warnings (use after free, double free) arise from events carrying that
// block.
func Spec(cfg Config) trace.ToolSpec {
	if cfg.Tool == "" {
		cfg.Tool = "memcheck"
	}
	return trace.ToolSpec{
		Name:    cfg.Tool,
		Routing: trace.RouteBlock,
		Factory: func(col trace.Reporter) trace.Sink { return New(cfg, col) },
	}
}

// New creates a memcheck tool writing to col.
func New(cfg Config, col trace.Reporter) *Detector {
	if cfg.Tool == "" {
		cfg.Tool = "memcheck"
	}
	return &Detector{cfg: cfg, col: col}
}

// ToolName implements trace.Sink.
func (d *Detector) ToolName() string { return d.cfg.Tool }

// Errors returns the number of dynamic invalid accesses observed.
func (d *Detector) Errors() int { return d.errors }

// Leaks returns the end-of-run leak summary: blocks allocated but never
// freed, and their total byte size. Only meaningful once the stream has
// ended.
func (d *Detector) Leaks() (blocks int, bytes int64) {
	for i := range d.blocks {
		if d.blocks[i].status == blkLive {
			blocks++
			bytes += int64(d.blocks[i].size)
		}
	}
	return blocks, bytes
}

// SummaryCounts implements trace.Summarizer: the dynamic error count and
// the leak totals, which the ingest aggregate sums across sessions.
func (d *Detector) SummaryCounts() trace.ToolSummary {
	blocks, bytes := d.Leaks()
	return trace.ToolSummary{
		"errors":        int64(d.errors),
		"leaked-blocks": int64(blocks),
		"leaked-bytes":  bytes,
	}
}

func (d *Detector) block(id trace.BlockID) *blkState {
	bi := d.blkIx.Index(int32(id))
	for len(d.blocks) <= bi {
		d.blocks = append(d.blocks, blkState{})
	}
	return &d.blocks[bi]
}

// Alloc implements trace.Sink.
func (d *Detector) Alloc(b *trace.Block) {
	s := d.block(b.ID)
	s.status = blkLive
	s.size = b.Size
}

// Free implements trace.Sink.
func (d *Detector) Free(b *trace.Block, t trace.ThreadID, stack trace.StackID) {
	s := d.block(b.ID)
	if s.status == blkFreed {
		d.errors++
		d.col.Add(report.Warning{
			Tool:   d.cfg.Tool,
			Kind:   report.KindInvalidFree,
			Thread: t,
			Addr:   s.base, // recorded at first free; see blkState
			Block:  b.ID,
			Stack:  stack,
			State:  "block already freed",
		})
		return
	}
	s.status = blkFreed
	s.base = b.Base
}

// Access implements trace.Sink.
func (d *Detector) Access(a *trace.Access) {
	bi := d.blkIx.Lookup(int32(a.Block))
	if bi < 0 || d.blocks[bi].status != blkFreed {
		return
	}
	d.errors++
	d.col.Add(report.Warning{
		Tool:   d.cfg.Tool,
		Kind:   report.KindUseAfterFree,
		Thread: a.Thread,
		Addr:   a.Addr,
		Block:  a.Block,
		Off:    a.Off,
		Size:   a.Size,
		Access: a.Kind,
		Stack:  a.Stack,
		State:  "use after free",
	})
}

var (
	_ trace.Sink       = (*Detector)(nil)
	_ trace.Summarizer = (*Detector)(nil)
)
