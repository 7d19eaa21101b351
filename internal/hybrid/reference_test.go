package hybrid

import (
	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Reference is the hybrid detector with the shadow cell it had before read
// sets went inline, kept as the slow reference: every cell carries a full
// per-thread read clock, set on every read, compared on every write and
// cleared after it. It shares the Detector's lock-set and clock handling
// and replaces only the shadow, so any difference between the two comes
// from the read-set representation. It is exported for the external
// property test.
type Reference struct {
	*Detector
	cells map[trace.BlockID][]refCell
}

type refCell struct {
	set        lockset.SetID
	inited     bool
	lastWrite  vclock.Epoch
	writeStk   trace.StackID
	reads      vclock.VC
	lastRead   vclock.Epoch
	readStk    trace.StackID
	reported   bool
	readsClean bool
}

// NewReference creates a reference detector writing to col.
func NewReference(cfg Config, col trace.Reporter) *Reference {
	return &Reference{Detector: New(cfg, col), cells: make(map[trace.BlockID][]refCell)}
}

// Alloc implements trace.Sink.
func (r *Reference) Alloc(b *trace.Block) {
	r.cells[b.ID] = make([]refCell, (int(b.Size)+r.cfg.Granule-1)/r.cfg.Granule)
}

// Free implements trace.Sink.
func (r *Reference) Free(b *trace.Block, _ trace.ThreadID, _ trace.StackID) {
	delete(r.cells, b.ID)
}

// Access implements trace.Sink.
func (r *Reference) Access(a *trace.Access) {
	sh, ok := r.cells[a.Block]
	if !ok {
		return
	}
	ti := r.tIdx(a.Thread)
	ts := &r.threads[ti]
	anyM, wrM := ts.anyM, ts.wrM
	switch r.cfg.Bus {
	case lockset.BusSingleMutex:
		if a.Atomic {
			anyM, wrM = ts.anyBus, ts.wrBus
		}
	case lockset.BusRWLock:
		anyM = ts.anyBus
		if a.Atomic {
			wrM = ts.wrBus
		}
	}
	epoch := vclock.Epoch{T: int32(ti), C: ts.vc.Get(ti)}
	lo := int(a.Off) / r.cfg.Granule
	hi := int(a.Off+a.Size-1) / r.cfg.Granule
	for gi := lo; gi <= hi && gi < len(sh); gi++ {
		c := &sh[gi]
		eff := anyM
		if a.Kind == trace.Write {
			eff = wrM
		}
		if !c.inited {
			c.set = eff
			c.inited = true
		} else {
			c.set = r.sets.Intersect(c.set, eff)
		}
		disciplineBroken := c.set == lockset.EmptySet

		var unordered bool
		var prevStack trace.StackID
		if a.Kind == trace.Read {
			if !c.lastWrite.Zero() && !c.lastWrite.HappensBefore(ts.vc) {
				unordered = true
				prevStack = c.writeStk
			}
			if c.lastRead == epoch {
				c.readStk = a.Stack
			} else {
				c.reads = c.reads.Set(ti, epoch.C)
				c.lastRead = epoch
				c.readsClean = false
				c.readStk = a.Stack
			}
		} else {
			if !c.lastWrite.Zero() && !c.lastWrite.HappensBefore(ts.vc) {
				unordered = true
				prevStack = c.writeStk
			} else if !c.readsClean && !c.reads.LEQ(ts.vc) {
				unordered = true
				prevStack = c.readStk
			}
			c.lastWrite = epoch
			c.writeStk = a.Stack
			if !c.readsClean {
				c.reads.Clear()
				c.readsClean = true
			}
		}

		if disciplineBroken && unordered && !c.reported {
			c.reported = true
			r.col.Add(report.Warning{
				Tool:      r.cfg.Tool,
				Kind:      report.KindRace,
				Thread:    a.Thread,
				Addr:      a.Addr,
				Block:     a.Block,
				Off:       a.Off,
				Size:      a.Size,
				Access:    a.Kind,
				Stack:     a.Stack,
				PrevStack: prevStack,
				State:     "no common lock and unordered by happens-before",
			})
		}
	}
}

var _ trace.Sink = (*Reference)(nil)
