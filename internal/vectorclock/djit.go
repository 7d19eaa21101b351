// Package vectorclock implements a DJIT-style happens-before race detector
// [6] — the comparison baseline discussed in §2.2 of the paper.
//
// Each thread carries a vector clock; lock releases/acquires, thread
// create/join, queue put/get, condition signal/wait and semaphore post/wait
// transfer clocks. A race is two conflicting accesses (same location, at
// least one write) that are unordered by the resulting happens-before
// relation. Unlike the lock-set algorithm, DJIT reports only *apparent*
// races on the observed execution: it misses lock-discipline violations that
// happened to be ordered by the schedule (the paper's point that DJIT
// "detects data races on a subset of shared locations that are reported by
// the lock-set approach").
//
// As the paper notes for [12], treating condition signal->wait as
// happens-before is not sound in general; the Cond edge can be disabled via
// Config.Edges to study that difference.
//
// Despite the similar name, this package is the DETECTOR; the underlying
// vector-clock DATATYPE (join, tick, compare) lives in internal/vclock and
// is shared with the thread-segment graph (internal/segments).
package vectorclock

import (
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Config parameterises the detector.
type Config struct {
	// Tool is the report name; defaults to "djit".
	Tool string
	// Edges selects which synchronisation edges establish happens-before.
	// Defaults to trace.MaskFull. Program/Create/Join are always honoured.
	Edges trace.EdgeMask
	// LockEdges enables release->acquire edges on mutexes and rwlocks
	// (standard DJIT behaviour). Defaults to true via NewDetector.
	LockEdges bool
	// Granule is the shadow granularity in bytes (default 4).
	Granule int
	// FirstRaceOnly mirrors DJIT's "detects only the first apparent data
	// race" per location.
	FirstRaceOnly bool
}

func (c Config) withDefaults() Config {
	if c.Tool == "" {
		c.Tool = "djit"
	}
	if c.Edges == 0 {
		c.Edges = trace.MaskFull
	}
	if c.Granule <= 0 {
		c.Granule = 4
	}
	return c
}

// IsZero reports whether c is the zero configuration — no field set at all.
// Callers that want "unset defaults to standard DJIT" semantics (core.Run)
// must test IsZero rather than sniffing individual fields, so that an
// intentional partial config (say, LockEdges off to study pure program-order
// edges) is honoured rather than silently replaced.
func (c Config) IsZero() bool { return c == Config{} }

// DefaultConfig returns the standard DJIT configuration.
func DefaultConfig() Config {
	return Config{LockEdges: true, FirstRaceOnly: true}.withDefaults()
}

// access records one side of a potential conflict.
type access struct {
	epoch vclock.Epoch
	stack trace.StackID
}

// shadowCell is the per-granule shadow: the last write and the reads since
// it, plus the stack of the latest read. A read set that only one thread
// filled stays inline in the cell (see vclock.ReadSet).
type shadowCell struct {
	lastWrite access
	reads     vclock.ReadSet
	readStk   trace.StackID
	reported  bool
}

// Detector is the vector-clock race detector tool. All per-ID state lives in
// flat slices behind dense remappers (threads, locks, condition/semaphore
// objects, segments, blocks); vector-clock components are indexed by dense
// thread number so clocks stay as short as the thread count. Lock and
// message clocks recycle their arrays instead of cloning fresh ones,
// segment clocks are carved from an arena, and block shadow is slab-backed
// and returned on free.
type Detector struct {
	trace.BaseSink
	cfg     Config
	col     trace.Reporter
	thIx    trace.Dense
	lkIx    trace.Dense
	syIx    trace.Dense
	segIx   trace.Dense
	blkIx   trace.Dense
	threads []vclock.VC
	locks   []vclock.VC
	syncs   []vclock.VC
	segVC   []vclock.VC // clocks captured at segment starts, from segMem
	segMem  vclock.Arena
	msgs    map[int64]vclock.VC
	msgPool []vclock.VC // retired message clocks, reused on the next put
	shadow  [][]shadowCell
	slab    trace.Slab[shadowCell]
	races   int
}

// Spec registers the detector with the analysis engine's tool registry. Like
// the lock-set detector it is block-routed: vector clocks are driven purely
// by broadcast synchronisation events, shadow cells are per block, and every
// warning arises from a memory access. Each instance owns its clocks and
// shadow memory outright.
func Spec(cfg Config) trace.ToolSpec {
	cfg = cfg.withDefaults()
	return trace.ToolSpec{
		Name:    cfg.Tool,
		Routing: trace.RouteBlock,
		Factory: func(col trace.Reporter) trace.Sink { return New(cfg, col) },
	}
}

// New creates a DJIT detector writing to col.
func New(cfg Config, col trace.Reporter) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg:  cfg,
		col:  col,
		msgs: make(map[int64]vclock.VC),
	}
}

// ToolName implements trace.Sink.
func (d *Detector) ToolName() string { return d.cfg.Tool }

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// DynamicRaces returns the dynamic (pre-dedup) race count.
func (d *Detector) DynamicRaces() int { return d.races }

// tIdx returns the dense index for a thread, initialising its clock (one
// self-tick) on first sight. Thread clocks — and every clock derived from
// them — are component-indexed by this dense number, not the raw ThreadID.
func (d *Detector) tIdx(t trace.ThreadID) int {
	ti := d.thIx.Index(int32(t))
	for len(d.threads) <= ti {
		d.threads = append(d.threads, nil)
	}
	if d.threads[ti] == nil {
		d.threads[ti] = vclock.New(ti).Tick(ti)
	}
	return ti
}

func growVCs(s []vclock.VC, i int) []vclock.VC {
	for len(s) <= i {
		s = append(s, nil)
	}
	return s
}

// ThreadStart implements trace.Sink: the child inherits the parent's clock
// (create edge); both tick.
func (d *Detector) ThreadStart(t, parent trace.ThreadID) {
	ti := d.tIdx(t)
	if parent != 0 {
		pi := d.tIdx(parent)
		d.threads[ti] = d.threads[ti].Join(d.threads[pi])
		d.threads[pi] = d.threads[pi].Tick(pi)
	}
	d.threads[ti] = d.threads[ti].Tick(ti)
}

// Segment implements trace.Sink. Join and (optionally) queue/cond/sem edges
// are delivered as segment edges; DJIT folds them into the thread clock.
func (d *Detector) Segment(ss *trace.SegmentStart) {
	ti := d.tIdx(ss.Thread)
	me := d.threads[ti]
	for _, e := range ss.In {
		switch e.Kind {
		case trace.Program, trace.Create:
			// Program order is implicit; Create handled in ThreadStart.
		case trace.Join:
			if si := d.segIx.Lookup(int32(e.From)); si >= 0 && d.segVC[si] != nil {
				me = me.Join(d.segVC[si])
			}
		case trace.Queue, trace.Cond, trace.Sem:
			if !d.cfg.Edges.Has(e.Kind) {
				continue
			}
			if si := d.segIx.Lookup(int32(e.From)); si >= 0 && d.segVC[si] != nil {
				me = me.Join(d.segVC[si])
			}
		}
	}
	me = me.Tick(ti)
	d.threads[ti] = me
	si := d.segIx.Index(int32(ss.Seg))
	d.segVC = growVCs(d.segVC, si)
	d.segVC[si] = d.segMem.Copy(me)
}

// ThreadExit implements trace.Sink: capture the final clock so joins can
// synchronise with it (the last segment VC is already recorded).
func (d *Detector) ThreadExit(t trace.ThreadID) {}

// Acquire implements trace.Sink: acquire joins the lock's clock into the
// thread (release->acquire edge).
func (d *Detector) Acquire(t trace.ThreadID, l trace.LockID, k trace.LockKind, _ trace.StackID) {
	if !d.cfg.LockEdges {
		return
	}
	if li := d.lkIx.Lookup(int32(l)); li >= 0 && d.locks[li] != nil {
		ti := d.tIdx(t)
		d.threads[ti] = d.threads[ti].Join(d.locks[li])
	}
}

// Release implements trace.Sink: the lock's clock becomes the releaser's
// (reusing the lock's previous clock storage); the releaser ticks.
func (d *Detector) Release(t trace.ThreadID, l trace.LockID, k trace.LockKind, _ trace.StackID) {
	if !d.cfg.LockEdges {
		return
	}
	ti := d.tIdx(t)
	me := d.threads[ti]
	li := d.lkIx.Index(int32(l))
	d.locks = growVCs(d.locks, li)
	d.locks[li] = vclock.CopyInto(d.locks[li], me)
	d.threads[ti] = me.Tick(ti)
}

// Sync implements trace.Sink: message-precise queue edges (put VC joined at
// the matching get). Message clocks cycle through a pool: a clock retired by
// a get donates its array to the next put.
func (d *Detector) Sync(ev *trace.SyncEvent) {
	switch ev.Op {
	case trace.QueuePut:
		if d.cfg.Edges.Has(trace.Queue) {
			ti := d.tIdx(ev.Thread)
			var mv vclock.VC
			if n := len(d.msgPool); n > 0 {
				mv = d.msgPool[n-1]
				d.msgPool = d.msgPool[:n-1]
			}
			d.msgs[ev.Msg] = vclock.CopyInto(mv, d.threads[ti])
		}
	case trace.QueueGet:
		if d.cfg.Edges.Has(trace.Queue) {
			if mv, ok := d.msgs[ev.Msg]; ok {
				ti := d.tIdx(ev.Thread)
				d.threads[ti] = d.threads[ti].Join(mv)
				delete(d.msgs, ev.Msg)
				d.msgPool = append(d.msgPool, mv)
			}
		}
	case trace.CondSignal, trace.CondBroadcast:
		if d.cfg.Edges.Has(trace.Cond) {
			ti := d.tIdx(ev.Thread)
			me := d.threads[ti]
			si := d.syIx.Index(int32(ev.Obj))
			d.syncs = growVCs(d.syncs, si)
			d.syncs[si] = d.syncs[si].Join(me)
			d.threads[ti] = me.Tick(ti)
		}
	case trace.CondWaitDone:
		if d.cfg.Edges.Has(trace.Cond) {
			if si := d.syIx.Lookup(int32(ev.Obj)); si >= 0 && d.syncs[si] != nil {
				ti := d.tIdx(ev.Thread)
				d.threads[ti] = d.threads[ti].Join(d.syncs[si])
			}
		}
	case trace.SemPost:
		if d.cfg.Edges.Has(trace.Sem) {
			ti := d.tIdx(ev.Thread)
			me := d.threads[ti]
			si := d.syIx.Index(int32(ev.Obj))
			d.syncs = growVCs(d.syncs, si)
			d.syncs[si] = d.syncs[si].Join(me)
			d.threads[ti] = me.Tick(ti)
		}
	case trace.SemWaitDone:
		if d.cfg.Edges.Has(trace.Sem) {
			if si := d.syIx.Lookup(int32(ev.Obj)); si >= 0 && d.syncs[si] != nil {
				ti := d.tIdx(ev.Thread)
				d.threads[ti] = d.threads[ti].Join(d.syncs[si])
			}
		}
	}
}

// Alloc implements trace.Sink.
func (d *Detector) Alloc(b *trace.Block) {
	n := (int(b.Size) + d.cfg.Granule - 1) / d.cfg.Granule
	bi := d.blkIx.Index(int32(b.ID))
	for len(d.shadow) <= bi {
		d.shadow = append(d.shadow, nil)
	}
	d.shadow[bi] = d.slab.Get(n)
}

// Free implements trace.Sink: the shadow cells return to the slab and the
// dense slot is recycled (block IDs are never reused).
func (d *Detector) Free(b *trace.Block, _ trace.ThreadID, _ trace.StackID) {
	if bi := d.blkIx.Evict(int32(b.ID)); bi >= 0 {
		d.slab.Put(d.shadow[bi])
		d.shadow[bi] = nil
	}
}

// Access implements trace.Sink: the happens-before check, with FastTrack-
// style same-epoch fast paths. A read repeated at the thread's current epoch
// is already in the shadow; a write repeated at its own epoch with a clean
// read clock cannot change state. Both skip the stores — never the race
// checks, so the dynamic race count is exactly what the slow path produces.
func (d *Detector) Access(a *trace.Access) {
	bi := d.blkIx.Lookup(int32(a.Block))
	if bi < 0 {
		return
	}
	sh := d.shadow[bi]
	ti := d.tIdx(a.Thread)
	me := d.threads[ti]
	epoch := vclock.Epoch{T: int32(ti), C: me.Get(ti)}
	lo := int(a.Off) / d.cfg.Granule
	hi := int(a.Off+a.Size-1) / d.cfg.Granule
	for gi := lo; gi <= hi && gi < len(sh); gi++ {
		c := &sh[gi]
		if a.Kind == trace.Read {
			if !c.lastWrite.epoch.Zero() && !c.lastWrite.epoch.HappensBefore(me) {
				d.report(c, a, c.lastWrite.stack)
			}
			if c.reads.Last() != epoch {
				c.reads.Add(epoch)
			}
			c.readStk = a.Stack
			continue
		}
		if c.reads.Empty() && c.lastWrite.epoch == epoch {
			// Same-epoch write with no intervening reads: nothing to check,
			// nothing to store.
			c.lastWrite.stack = a.Stack
			continue
		}
		// Write: must be ordered after the last write and after all reads.
		if !c.lastWrite.epoch.Zero() && !c.lastWrite.epoch.HappensBefore(me) {
			d.report(c, a, c.lastWrite.stack)
		} else if !c.reads.Before(me) {
			d.report(c, a, c.readStk)
		}
		c.lastWrite = access{epoch: epoch, stack: a.Stack}
		c.reads.Clear()
	}
}

func (d *Detector) report(c *shadowCell, a *trace.Access, prevStack trace.StackID) {
	d.races++
	if d.cfg.FirstRaceOnly && c.reported {
		return
	}
	c.reported = true
	d.col.Add(report.Warning{
		Tool:      d.cfg.Tool,
		Kind:      report.KindRace,
		Thread:    a.Thread,
		Addr:      a.Addr,
		Block:     a.Block,
		Off:       a.Off,
		Size:      a.Size,
		Access:    a.Kind,
		Stack:     a.Stack,
		PrevStack: prevStack,
		State:     "unordered with previous access by vector-clock",
	})
}

var _ trace.Sink = (*Detector)(nil)
