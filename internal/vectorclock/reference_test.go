package vectorclock

import (
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Reference is the DJIT detector with the shadow cell it had before read
// sets went inline, kept as the slow reference: every cell carries a full
// per-thread read clock, set on every read, compared on every write and
// cleared after it. It shares the Detector's clock handling (threads, locks,
// messages, segments) and replaces only the shadow, so any difference
// between the two comes from the read-set representation. It is exported
// for the external property test.
type Reference struct {
	*Detector
	cells map[trace.BlockID][]refCell
	races int
}

type refCell struct {
	lastWrite  access
	reads      vclock.VC
	lastRead   access
	reported   bool
	readsClean bool
}

// NewReference creates a reference detector writing to col.
func NewReference(cfg Config, col trace.Reporter) *Reference {
	return &Reference{Detector: New(cfg, col), cells: make(map[trace.BlockID][]refCell)}
}

// DynamicRaces returns the dynamic (pre-dedup) race count.
func (r *Reference) DynamicRaces() int { return r.races }

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
	me := r.threads[ti]
	epoch := vclock.Epoch{T: int32(ti), C: me.Get(ti)}
	lo := int(a.Off) / r.cfg.Granule
	hi := int(a.Off+a.Size-1) / r.cfg.Granule
	for gi := lo; gi <= hi && gi < len(sh); gi++ {
		c := &sh[gi]
		if a.Kind == trace.Read {
			if !c.lastWrite.epoch.Zero() && !c.lastWrite.epoch.HappensBefore(me) {
				r.report(c, a, c.lastWrite.stack)
			}
			if c.lastRead.epoch == epoch {
				c.lastRead.stack = a.Stack
				continue
			}
			c.reads = c.reads.Set(ti, epoch.C)
			c.readsClean = false
			c.lastRead = access{epoch: epoch, stack: a.Stack}
			continue
		}
		if c.readsClean && c.lastWrite.epoch == epoch {
			c.lastWrite.stack = a.Stack
			continue
		}
		if !c.lastWrite.epoch.Zero() && !c.lastWrite.epoch.HappensBefore(me) {
			r.report(c, a, c.lastWrite.stack)
		} else if !c.reads.LEQ(me) {
			r.report(c, a, c.lastRead.stack)
		}
		c.lastWrite = access{epoch: epoch, stack: a.Stack}
		c.reads.Clear()
		c.readsClean = true
	}
}

func (r *Reference) report(c *refCell, a *trace.Access, prevStack trace.StackID) {
	r.races++
	if r.cfg.FirstRaceOnly && c.reported {
		return
	}
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
		State:     "unordered with previous access by vector-clock",
	})
}

var _ trace.Sink = (*Reference)(nil)
