package highlevel

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/report"
	"repro/internal/trace"
)

// refDetector is the map-based view-consistency detector the indexed one
// replaced, kept as the slow reference: every view is a set of varKeys, and
// Finish compares each maximal view with every view of every other thread
// exactly as the definition reads. Its reports are the ones the indexed
// Detector must reproduce, warning for warning and in the same order.
type refDetector struct {
	trace.BaseSink
	cfg      Config
	col      trace.Reporter
	open     map[trace.ThreadID]map[trace.LockID]*refView
	views    map[trace.LockID]map[trace.ThreadID][]*refView
	viewKeys map[trace.LockID]map[trace.ThreadID]map[string]bool
}

type refView struct {
	vars  map[varKey]struct{}
	stack trace.StackID
	addr  trace.Addr
	block trace.BlockID
}

func newRef(cfg Config, col trace.Reporter) *refDetector {
	return &refDetector{
		cfg:      cfg.withDefaults(),
		col:      col,
		open:     make(map[trace.ThreadID]map[trace.LockID]*refView),
		views:    make(map[trace.LockID]map[trace.ThreadID][]*refView),
		viewKeys: make(map[trace.LockID]map[trace.ThreadID]map[string]bool),
	}
}

func (d *refDetector) ToolName() string { return d.cfg.Tool }

func (d *refDetector) Acquire(t trace.ThreadID, l trace.LockID, _ trace.LockKind, stack trace.StackID) {
	m, ok := d.open[t]
	if !ok {
		m = make(map[trace.LockID]*refView)
		d.open[t] = m
	}
	m[l] = &refView{vars: make(map[varKey]struct{}), stack: stack}
}

func (d *refDetector) Release(t trace.ThreadID, l trace.LockID, _ trace.LockKind, _ trace.StackID) {
	m := d.open[t]
	v, ok := m[l]
	if !ok {
		return
	}
	delete(m, l)
	if len(v.vars) == 0 {
		return
	}
	byThread, ok := d.views[l]
	if !ok {
		byThread = make(map[trace.ThreadID][]*refView)
		d.views[l] = byThread
		d.viewKeys[l] = make(map[trace.ThreadID]map[string]bool)
	}
	seen := d.viewKeys[l][t]
	if seen == nil {
		seen = make(map[string]bool)
		d.viewKeys[l][t] = seen
	}
	keys := make([]varKey, 0, len(v.vars))
	for k := range v.vars {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].block != keys[j].block {
			return keys[i].block < keys[j].block
		}
		return keys[i].gran < keys[j].gran
	})
	key := fmt.Sprint(keys)
	if seen[key] {
		return
	}
	seen[key] = true
	byThread[t] = append(byThread[t], v)
}

func (d *refDetector) Access(a *trace.Access) {
	m := d.open[a.Thread]
	if len(m) == 0 {
		return
	}
	lo := a.Off / uint32(d.cfg.Granule)
	hi := (a.Off + a.Size - 1) / uint32(d.cfg.Granule)
	for _, v := range m {
		if len(v.vars) == 0 {
			v.addr = a.Addr
			v.block = a.Block
		}
		for g := lo; g <= hi; g++ {
			v.vars[varKey{block: a.Block, gran: g}] = struct{}{}
		}
	}
}

func (d *refDetector) Finish() {
	locks := make([]trace.LockID, 0, len(d.views))
	for l := range d.views {
		locks = append(locks, l)
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
	for _, l := range locks {
		byThread := d.views[l]
		threads := make([]trace.ThreadID, 0, len(byThread))
		for t := range byThread {
			threads = append(threads, t)
		}
		sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
		for _, t1 := range threads {
			maximal := refMaximalViews(byThread[t1])
			for _, t2 := range threads {
				if t1 == t2 {
					continue
				}
				for _, m := range maximal {
					if len(m.vars) < d.cfg.MinViewSize {
						continue
					}
					if bad := refViolates(m, byThread[t2]); bad != nil {
						d.report(l, m, bad)
					}
				}
			}
		}
	}
}

// refMaximalViews returns the views not strictly contained in another view
// of the same thread.
func refMaximalViews(vs []*refView) []*refView {
	var out []*refView
	for i, v := range vs {
		maximal := true
		for j, w := range vs {
			if i != j && refSubset(v.vars, w.vars) && len(v.vars) < len(w.vars) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, v)
		}
	}
	return out
}

// refViolates checks whether the other thread's views intersect m in a
// chain; it returns one offending view when they do not.
func refViolates(m *refView, others []*refView) *refView {
	type inter struct {
		set map[varKey]struct{}
		src *refView
	}
	var inters []inter
	for _, o := range others {
		x := refIntersect(m.vars, o.vars)
		if len(x) > 0 {
			inters = append(inters, inter{set: x, src: o})
		}
	}
	for i := 0; i < len(inters); i++ {
		for j := i + 1; j < len(inters); j++ {
			a, b := inters[i], inters[j]
			if !refSubset(a.set, b.set) && !refSubset(b.set, a.set) {
				return b.src
			}
		}
	}
	return nil
}

func refSubset(a, b map[varKey]struct{}) bool {
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func refIntersect(a, b map[varKey]struct{}) map[varKey]struct{} {
	out := make(map[varKey]struct{})
	for k := range a {
		if _, ok := b[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

func (d *refDetector) report(l trace.LockID, m, bad *refView) {
	d.col.Add(report.Warning{
		Tool:      d.cfg.Tool,
		Kind:      report.KindHighLevel,
		Addr:      m.addr,
		Block:     m.block,
		Stack:     m.stack,
		PrevStack: bad.stack,
		State: fmt.Sprintf("lock L%d: a view of %d variable(s) is split inconsistently by another thread",
			l, len(m.vars)),
	})
}

// captured records every warning in arrival order; its Fold declines, so
// every occurrence arrives through Add.
type captured []report.Warning

func (c *captured) Add(w report.Warning) bool { *c = append(*c, w); return true }

func (c *captured) Fold(string, report.Kind, trace.StackID) bool { return false }

// op is one handler call of a generated stream.
type op struct {
	kind   byte // 'a'cquire, 'r'elease, 'x' access
	thread trace.ThreadID
	lock   trace.LockID
	stack  trace.StackID
	block  trace.BlockID
	off    uint32
	size   uint32
}

type handlers interface {
	Acquire(trace.ThreadID, trace.LockID, trace.LockKind, trace.StackID)
	Release(trace.ThreadID, trace.LockID, trace.LockKind, trace.StackID)
	Access(*trace.Access)
	Finish()
}

// feed delivers ops to h; play also runs the end-of-stream pass.
func feed(h handlers, ops []op) {
	for _, o := range ops {
		switch o.kind {
		case 'a':
			h.Acquire(o.thread, o.lock, trace.Mutex, o.stack)
		case 'r':
			h.Release(o.thread, o.lock, trace.Mutex, o.stack)
		default:
			h.Access(&trace.Access{
				Thread: o.thread, Block: o.block, Off: o.off, Size: o.size,
				Addr: trace.Addr(uint64(o.block)<<32 | uint64(o.off)), Kind: trace.Write,
			})
		}
	}
}

func play(h handlers, ops []op) {
	feed(h, ops)
	h.Finish()
}

// checkAgainstReference runs ops through the indexed detector and the
// reference and fails on any difference in the ordered warning sequence.
// It returns the number of warnings.
func checkAgainstReference(t *testing.T, cfg Config, ops []op) int {
	t.Helper()
	var got, want captured
	play(New(cfg, &got), ops)
	play(newRef(cfg, &want), ops)
	if !slices.Equal(got, want) {
		n := min(len(got), len(want))
		i := 0
		for i < n && got[i] == want[i] {
			i++
		}
		t.Fatalf("MinViewSize %d: %d warnings, reference %d; first difference at #%d:\n got  %+v\n want %+v",
			cfg.MinViewSize, len(got), len(want), i, at(got, i), at(want, i))
	}
	return len(got)
}

func at(ws []report.Warning, i int) any {
	if i < len(ws) {
		return ws[i]
	}
	return "(none)"
}

// viewShape parameterises randomViews.
type viewShape struct {
	locks, threads, views int
	vars                  int  // size of the variable universe
	maxView               int  // most variables per critical section
	hot                   bool // one variable in every view
	dupPool               int  // >0: each thread draws its views from this many sets
	nest                  bool // sometimes hold a second lock around a section
	passes                int  // >1: each section walks its set this many times, reshuffled
}

// randomViews generates well-formed streams: every thread runs critical
// sections over random variable sets (one granule each, sometimes a
// two-granule access), and the threads' events interleave at random.
func randomViews(rng *rand.Rand, s viewShape) []op {
	perThread := make([][]op, s.threads)
	for ti := range perThread {
		th := trace.ThreadID(ti + 1)
		var pool [][]int
		for i := 0; i < s.dupPool; i++ {
			pool = append(pool, randomSet(rng, s))
		}
		var seq []op
		for i := 0; i < s.views; i++ {
			set := randomSet(rng, s)
			if len(pool) > 0 {
				set = pool[rng.Intn(len(pool))]
			}
			l := trace.LockID(1 + rng.Intn(s.locks))
			stack := trace.StackID(1 + rng.Intn(50))
			outer := trace.LockID(0)
			if s.nest && s.locks > 1 && rng.Intn(4) == 0 {
				outer = trace.LockID(1 + (int(l) % s.locks))
				seq = append(seq, op{kind: 'a', thread: th, lock: outer, stack: stack + 100})
			}
			seq = append(seq, op{kind: 'a', thread: th, lock: l, stack: stack})
			set = slices.Clone(set)
			for p := 0; p < max(1, s.passes); p++ {
				rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
				for _, v := range set {
					size := uint32(4)
					if rng.Intn(8) == 0 {
						size = 8 // spans the next granule too
					}
					seq = append(seq, op{kind: 'x', thread: th, block: trace.BlockID(1 + v/8), off: uint32(v%8) * 4, size: size})
				}
			}
			seq = append(seq, op{kind: 'r', thread: th, lock: l})
			if outer != 0 {
				seq = append(seq, op{kind: 'r', thread: th, lock: outer})
			}
		}
		perThread[ti] = seq
	}
	var ops []op
	for {
		live := 0
		for _, seq := range perThread {
			if len(seq) > 0 {
				live++
			}
		}
		if live == 0 {
			return ops
		}
		ti := rng.Intn(len(perThread))
		if len(perThread[ti]) == 0 {
			continue
		}
		ops = append(ops, perThread[ti][0])
		perThread[ti] = perThread[ti][1:]
	}
}

func randomSet(rng *rand.Rand, s viewShape) []int {
	n := 1 + rng.Intn(s.maxView)
	set := make([]int, 0, n+1)
	if s.hot {
		set = append(set, 0)
	}
	for len(set) < n {
		set = append(set, rng.Intn(s.vars))
	}
	rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	return set
}

// TestIndexedFinishMatchesReference is the property test: over seeded random
// view sets the indexed detector emits exactly the reference's warnings, in
// the same order, for every MinViewSize from 1 to 3.
func TestIndexedFinishMatchesReference(t *testing.T) {
	shapes := map[string]viewShape{
		"several-locks-threads": {locks: 3, threads: 4, views: 30, vars: 12, maxView: 4, nest: true},
		"hot-variable":          {locks: 2, threads: 3, views: 40, vars: 16, maxView: 5, hot: true},
		"duplicate-views":       {locks: 2, threads: 3, views: 40, vars: 10, maxView: 4, dupPool: 4},
		"dense-small-universe":  {locks: 1, threads: 5, views: 25, vars: 5, maxView: 3},
		"wide-views":            {locks: 2, threads: 3, views: 20, vars: 40, maxView: 12, hot: true, nest: true},
		"long-sections":         {locks: 2, threads: 3, views: 15, vars: 60, maxView: 40, passes: 6, nest: true},
	}
	for name, s := range shapes {
		t.Run(name, func(t *testing.T) {
			warnings := 0
			for seed := int64(1); seed <= 40; seed++ {
				ops := randomViews(rand.New(rand.NewSource(seed)), s)
				for minView := 1; minView <= 3; minView++ {
					warnings += checkAgainstReference(t, Config{MinViewSize: minView}, ops)
				}
			}
			if warnings == 0 {
				t.Error("no shape produced a warning; the comparison is vacuous")
			}
		})
	}
}

// TestEqualSizeIncomparableIntersections pins the offending-view choice when
// the chain test fails on intersections of equal size: the pairwise scan, not
// the size order, names the view.
func TestEqualSizeIncomparableIntersections(t *testing.T) {
	v := func(th trace.ThreadID, stack trace.StackID, grans ...uint32) []op {
		seq := []op{{kind: 'a', thread: th, lock: 1, stack: stack}}
		for _, g := range grans {
			seq = append(seq, op{kind: 'x', thread: th, block: 1, off: g * 4, size: 4})
		}
		return append(seq, op{kind: 'r', thread: th, lock: 1})
	}
	var ops []op
	ops = append(ops, v(1, 10, 0, 1, 2, 3)...) // m = {a,b,c,d}
	ops = append(ops, v(2, 20, 0, 1)...)       // {a,b}
	ops = append(ops, v(2, 21, 0)...)          // {a} ⊆ {a,b}
	ops = append(ops, v(2, 22, 2, 3)...)       // {c,d}: same size as {a,b}, incomparable
	ops = append(ops, v(2, 23, 1, 2)...)       // {b,c}: incomparable with both
	var got captured
	play(New(Config{}, &got), ops)
	if len(got) != 1 || got[0].Stack != 10 || got[0].PrevStack != 22 {
		t.Fatalf("got %+v, want one warning naming stacks 10 and 22", got)
	}
	for minView := 1; minView <= 3; minView++ {
		checkAgainstReference(t, Config{MinViewSize: minView}, ops)
	}
}
