// Package lockset implements the paper's core contribution: the Eraser
// lock-set algorithm [14] as implemented in Helgrind, extended with
//
//   - the memory-location state machine of Fig. 1 (NEW → EXCLUSIVE →
//     SHARED / SHARED-MODIFIED, warnings only in SHARED-MODIFIED),
//   - thread segments from Visual Threads [5] (Fig. 2): EXCLUSIVE ownership
//     transfers between happens-before-ordered segments,
//   - read-write-lock awareness (locks "held in any mode" vs. "held in write
//     mode", §2.3.2),
//   - both hardware bus-lock emulations (§3.1/§4.2.2): the original single
//     pseudo-mutex model and the corrected read-write-lock model (HWLC),
//   - the automatic destructor annotation (§3.1/§4.2.1): the HG_DESTRUCT
//     client request marks an object exclusive to the deleting thread (DR).
//
// The three detector configurations evaluated in Fig. 5/6 — Original, HWLC
// and HWLC+DR — are exposed as constructors.
package lockset

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/segments"
	"repro/internal/trace"
)

// BusModel selects how the x86 LOCK prefix (hardware bus lock) is emulated.
type BusModel uint8

// Bus-lock emulation models.
const (
	// BusNone ignores bus-locked accesses entirely (ablation).
	BusNone BusModel = iota
	// BusSingleMutex is the original Helgrind model: a pseudo-mutex is held
	// (in both modes) exactly for the duration of a LOCK-prefixed
	// instruction. Plain reads never hold it, so mixed plain-read /
	// atomic-write locations (COW string reference counters) are reported.
	BusSingleMutex
	// BusRWLock is the paper's correction (HWLC): the bus lock is a
	// read-write lock held for reading by EVERY read access and for writing
	// by bus-locked writes. Locations whose writes are all atomic then keep
	// the bus lock in their candidate set and stop being reported.
	BusRWLock
)

func (m BusModel) String() string {
	switch m {
	case BusNone:
		return "none"
	case BusSingleMutex:
		return "single-mutex"
	default:
		return "rwlock"
	}
}

// Config parameterises the detector.
type Config struct {
	// Tool is the name used in reports; defaults to "helgrind".
	Tool string
	// Bus selects the bus-lock emulation.
	Bus BusModel
	// Destruct honours HG_DESTRUCT client requests (the DR improvement).
	Destruct bool
	// ThreadSegments enables the Visual Threads segment refinement. When
	// false, EXCLUSIVE ownership is per-thread, as in original Eraser.
	ThreadSegments bool
	// Mask selects which segment edges count for happens-before. Helgrind
	// understands program order and create/join (trace.MaskHelgrind);
	// trace.MaskFull adds queue/cond/sem edges — the future-work extension
	// that removes the Fig. 11 thread-pool false positives.
	Mask trace.EdgeMask
	// Granule is the shadow-state granularity in bytes (default 4).
	Granule int
}

// IsZero reports whether c is the zero configuration — no field set at all.
// core.Run replaces only the zero value with the paper's strongest default
// (HWLC+DR); a configuration with any field set explicitly (Tool, Granule,
// ThreadSegments, ...) is taken at face value, so an intentionally minimal
// detector — e.g. Config{Tool: "bare"} — is never silently upgraded.
func (c Config) IsZero() bool { return c == Config{} }

func (c Config) withDefaults() Config {
	if c.Tool == "" {
		c.Tool = "helgrind"
	}
	if c.Mask == 0 {
		c.Mask = trace.MaskHelgrind
	}
	if c.Granule <= 0 {
		c.Granule = 4
	}
	return c
}

// ConfigOriginal is the stock Helgrind configuration of the paper's first
// experimental run (Fig. 6 column "Original").
func ConfigOriginal() Config {
	return Config{Bus: BusSingleMutex, Destruct: false, ThreadSegments: true}
}

// ConfigHWLC adds the corrected hardware bus lock (Fig. 6 column "HWLC").
func ConfigHWLC() Config {
	return Config{Bus: BusRWLock, Destruct: false, ThreadSegments: true}
}

// ConfigHWLCDR additionally honours the destructor annotation (Fig. 6 column
// "HWLC+DR").
func ConfigHWLCDR() Config {
	return Config{Bus: BusRWLock, Destruct: true, ThreadSegments: true}
}

// state is the Fig. 1 state machine.
type state uint8

const (
	stNew state = iota
	stExclusive
	stSharedRead
	stSharedMod
)

func (s state) String() string {
	switch s {
	case stNew:
		return "new"
	case stExclusive:
		return "exclusive"
	case stSharedRead:
		return "shared RO"
	default:
		return "shared modified"
	}
}

// gran is the per-granule shadow state.
type gran struct {
	st       state
	ownerTh  trace.ThreadID
	ownerSeg trace.SegmentID
	set      SetID
	benign   bool
}

// threadLocks tracks one thread's four interned lock-set variants (any/write
// mode, with/without the bus pseudo-lock). The sets are maintained
// incrementally: acquire and release walk a single memoised transition edge
// per variant in the SetTable instead of re-sorting and re-interning the held
// set, so steady-state lock traffic costs a few map hits and no allocation.
type threadLocks struct {
	init         bool
	curSeg       trace.SegmentID
	anyMode      SetID
	anyPlusBus   SetID
	writeMode    SetID
	writePlusBus SetID
}

// Detector is the lock-set race detector tool. Per-thread and per-block state
// lives in flat slices indexed through dense ID remappers; block shadow
// arrays are slab-recycled when the block is freed, so shadow memory tracks
// the live heap rather than the allocation history.
type Detector struct {
	trace.BaseSink
	cfg     Config
	sets    *SetTable
	graph   *segments.Graph
	col     trace.Reporter
	thIx    trace.Dense
	blkIx   trace.Dense
	threads []threadLocks
	shadow  [][]gran
	slab    trace.Slab[gran]
	races   int // dynamic race reports, pre-dedup
}

// Spec registers the detector with the analysis engine's tool registry. The
// detector is block-routed: its warning-producing shadow state is per heap
// block and warnings arise only from block-carrying events, while the
// thread/lock/segment state it also keeps is derived purely from
// synchronisation, segment and thread events. Each instance owns all of its
// state (set table, segment graph, shadow memory), so instances never share
// mutable state.
func Spec(cfg Config) trace.ToolSpec {
	cfg = cfg.withDefaults()
	return trace.ToolSpec{
		Name:    cfg.Tool,
		Routing: trace.RouteBlock,
		Factory: func(col trace.Reporter) trace.Sink { return New(cfg, col) },
	}
}

// New creates a detector writing to the given collector.
func New(cfg Config, col trace.Reporter) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg:   cfg,
		sets:  NewSetTable(),
		graph: segments.NewGraph(cfg.Mask),
		col:   col,
	}
}

// ToolName implements trace.Sink.
func (d *Detector) ToolName() string { return d.cfg.Tool }

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Sets exposes the lock-set intern table (for tests and diagnostics).
func (d *Detector) Sets() *SetTable { return d.sets }

// DynamicRaces returns the number of dynamic (pre-deduplication) race
// reports.
func (d *Detector) DynamicRaces() int { return d.races }

func (d *Detector) thread(id trace.ThreadID) *threadLocks {
	ti := d.thIx.Index(int32(id))
	for len(d.threads) <= ti {
		d.threads = append(d.threads, threadLocks{})
	}
	tl := &d.threads[ti]
	if !tl.init {
		// The zero SetID is the empty set, which is right for any/write mode,
		// but the plus-bus variants start at {bus}.
		tl.init = true
		tl.anyPlusBus = d.sets.Add(EmptySet, trace.BusLock)
		tl.writePlusBus = tl.anyPlusBus
	}
	return tl
}

// Acquire implements trace.Sink. Re-acquiring a held lock with a different
// kind reclassifies it, matching the last-kind-wins semantics of tracking
// held locks in a map: a downgrade to read mode drops it from the write-mode
// set.
func (d *Detector) Acquire(t trace.ThreadID, l trace.LockID, k trace.LockKind, _ trace.StackID) {
	tl := d.thread(t)
	tl.anyMode = d.sets.Add(tl.anyMode, l)
	tl.anyPlusBus = d.sets.Add(tl.anyMode, trace.BusLock)
	if k == trace.Mutex || k == trace.WLock {
		tl.writeMode = d.sets.Add(tl.writeMode, l)
	} else {
		tl.writeMode = d.sets.Remove(tl.writeMode, l)
	}
	tl.writePlusBus = d.sets.Add(tl.writeMode, trace.BusLock)
}

// Release implements trace.Sink.
func (d *Detector) Release(t trace.ThreadID, l trace.LockID, _ trace.LockKind, _ trace.StackID) {
	tl := d.thread(t)
	tl.anyMode = d.sets.Remove(tl.anyMode, l)
	tl.anyPlusBus = d.sets.Add(tl.anyMode, trace.BusLock)
	tl.writeMode = d.sets.Remove(tl.writeMode, l)
	tl.writePlusBus = d.sets.Add(tl.writeMode, trace.BusLock)
}

// Segment implements trace.Sink.
func (d *Detector) Segment(ss *trace.SegmentStart) {
	d.graph.Add(ss)
	d.thread(ss.Thread).curSeg = ss.Seg
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

// Free implements trace.Sink. Freed memory is unaddressable; races on it are
// the memcheck tool's business (§4.2.1). The block's shadow cells go back to
// the slab and its dense slot is recycled — the VM never reuses block IDs, so
// an evicted block can never be accessed again.
func (d *Detector) Free(b *trace.Block, _ trace.ThreadID, _ trace.StackID) {
	if bi := d.blkIx.Evict(int32(b.ID)); bi >= 0 {
		d.slab.Put(d.shadow[bi])
		d.shadow[bi] = nil
	}
}

// heldSets returns the effective (any-mode, write-mode) lock-sets for an
// access, applying the configured bus-lock model.
func (d *Detector) heldSets(tl *threadLocks, a *trace.Access) (anyM, wrM SetID) {
	anyM, wrM = tl.anyMode, tl.writeMode
	switch d.cfg.Bus {
	case BusSingleMutex:
		// The pseudo-mutex is held (in both modes) only during the
		// LOCK-prefixed instruction itself.
		if a.Atomic {
			anyM, wrM = tl.anyPlusBus, tl.writePlusBus
		}
	case BusRWLock:
		// Every read holds the bus lock in read mode; only bus-locked
		// writes hold it in write mode.
		anyM = tl.anyPlusBus
		if a.Atomic {
			wrM = tl.writePlusBus
		}
	}
	return anyM, wrM
}

// Access implements trace.Sink: the Eraser state machine with thread
// segments.
func (d *Detector) Access(a *trace.Access) {
	bi := d.blkIx.Lookup(int32(a.Block))
	if bi < 0 {
		return
	}
	sh := d.shadow[bi]
	tl := d.thread(a.Thread)
	anyM, wrM := d.heldSets(tl, a)
	lo := int(a.Off) / d.cfg.Granule
	hi := int(a.Off+a.Size-1) / d.cfg.Granule
	for gi := lo; gi <= hi && gi < len(sh); gi++ {
		d.step(&sh[gi], a, gi, anyM, wrM)
	}
}

// step advances one granule through the Fig. 1 state machine.
func (d *Detector) step(g *gran, a *trace.Access, gi int, anyM, wrM SetID) {
	if g.benign {
		return
	}
	switch g.st {
	case stNew:
		g.st = stExclusive
		g.ownerTh = a.Thread
		g.ownerSeg = a.Seg

	case stExclusive:
		if g.ownerTh == a.Thread {
			// Same thread: ownership follows program order.
			g.ownerSeg = a.Seg
			return
		}
		if d.cfg.ThreadSegments && d.graph.HappensBefore(g.ownerSeg, a.Seg) {
			// Visual Threads refinement: non-overlapping segments keep the
			// location exclusive; the new segment becomes the owner.
			g.ownerTh = a.Thread
			g.ownerSeg = a.Seg
			return
		}
		// Concurrent access by another thread: enter a shared state and
		// initialise the lock-set with the locks held now (delayed
		// initialisation — the §4.3 false-negative source).
		if a.Kind == trace.Read {
			g.st = stSharedRead
			g.set = d.sets.Intersect(Universe, anyM)
			return
		}
		g.st = stSharedMod
		g.set = d.sets.Intersect(Universe, wrM)
		if g.set == EmptySet {
			d.report(g, a, gi, stExclusive)
		}

	case stSharedRead:
		if a.Kind == trace.Read {
			g.set = d.sets.Intersect(g.set, anyM)
			return
		}
		prevSet := g.set
		g.st = stSharedMod
		g.set = d.sets.Intersect(g.set, wrM)
		if g.set == EmptySet {
			d.reportWithSet(g, a, gi, stSharedRead, prevSet)
		}

	case stSharedMod:
		if a.Kind == trace.Read {
			g.set = d.sets.Intersect(g.set, anyM)
		} else {
			g.set = d.sets.Intersect(g.set, wrM)
		}
		if g.set == EmptySet {
			d.report(g, a, gi, stSharedMod)
		}
	}
}

// Request implements trace.Sink: client requests (Fig. 4).
func (d *Detector) Request(r *trace.Request) {
	bi := d.blkIx.Lookup(int32(r.Block))
	if bi < 0 {
		return
	}
	sh := d.shadow[bi]
	lo := int(r.Off) / d.cfg.Granule
	hi := int(r.Off+r.Size-1) / d.cfg.Granule
	if r.Size == 0 {
		hi = lo - 1
	}
	for gi := lo; gi <= hi && gi < len(sh); gi++ {
		g := &sh[gi]
		switch r.Kind {
		case trace.ReqDestruct:
			if !d.cfg.Destruct {
				continue
			}
			// Mark the object's memory exclusively owned by the deleting
			// thread. Accesses by other threads during destruction are
			// still detected, because they re-enter the shared states.
			g.st = stExclusive
			g.ownerTh = r.Thread
			g.ownerSeg = d.thread(r.Thread).curSeg
			g.set = EmptySet
		case trace.ReqBenign:
			g.benign = true
		case trace.ReqCleanMemory:
			*g = gran{}
		}
	}
}

func (d *Detector) report(g *gran, a *trace.Access, gi int, prev state) {
	d.reportWithSet(g, a, gi, prev, g.set)
}

func (d *Detector) reportWithSet(g *gran, a *trace.Access, gi int, prev state, prevSet SetID) {
	d.races++
	// Every violating access reports; the collector deduplicates per call
	// stack, which matches how Helgrind output is triaged (and suppressed)
	// in practice — by stack pattern, one "location" per distinct site. A
	// repeat folds into its site before its state text is formatted.
	if d.col.Fold(d.cfg.Tool, report.KindRace, a.Stack) {
		return
	}
	stateDesc := prev.String()
	switch {
	case prev == stExclusive:
		stateDesc = fmt.Sprintf("exclusive to thread %d", g.ownerTh)
	case prevSet == EmptySet:
		stateDesc += ", no locks"
	default:
		stateDesc += fmt.Sprintf(", %d candidate lock(s)", d.sets.Size(prevSet))
	}
	d.col.Add(report.Warning{
		Tool:   d.cfg.Tool,
		Kind:   report.KindRace,
		Thread: a.Thread,
		Addr:   a.Addr,
		Block:  a.Block,
		Off:    a.Off,
		Size:   a.Size,
		Access: a.Kind,
		Stack:  a.Stack,
		State:  stateDesc,
	})
}

var _ trace.Sink = (*Detector)(nil)
