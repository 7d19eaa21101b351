// Package highlevel implements the view-consistency check of Artho,
// Havelund & Biere ("High-level data races", [1] in the paper), which the
// paper's §2.1 motivates with the date-of-birth/age example: even when every
// single access to a shared structure is protected by a lock, the program
// can reach inconsistent states if related fields are updated in separate
// critical sections.
//
// A *view* is the set of shared locations a thread accesses within one
// critical section of a lock. Views of one thread that are maximal under set
// inclusion express which fields the thread treats as an atomic unit; a
// second thread is *view consistent* with them if its own views intersect
// each maximal view in a chain (totally ordered by inclusion). A violation
// means one thread splits a unit that another thread treats as atomic —
// exactly the setter-pair of the paper's example.
//
// # Representation and cost
//
// Every (block, granule) location gets a dense uint32 ID, scoped to the
// detector. An open critical section appends the IDs it touches to a reused
// buffer; Release sorts and deduplicates it, and the first occurrence of each
// distinct (lock, thread, variable set) is recorded as a view: a sorted run
// of IDs. Once a view has been seen, repeating its critical section allocates
// nothing.
//
// Finish groups the views by lock and thread and indexes each group by
// variable: posting[thread][var] lists, in recording order, that thread's
// views holding var. The index is per thread because one hot field tends to
// sit in nearly every view of a lock; a single posting list per variable
// would make every query walk all threads' views. With V the views of a
// group and k the other thread's views that meet a maximal view m:
//
//   - maximality tests a view only against the views that share its rarest
//     variable, each by a merge scan;
//   - the candidates for m come from the other thread's posting lists,
//     deduplicated by an epoch stamp, and their intersections with m fill a
//     reused arena in O(Σ|m∩o|);
//   - the chain test orders the k intersections by size (a counting sort)
//     and checks that each is a subset of the next, in O(k + |m| + Σ|m∩o|).
//
// Only when the chain test fails does the definition's pairwise scan run, in
// recording order, so the reported offending view is the later one of the
// first incomparable pair. The scan skips views whose intersection equals an
// earlier one's, which bounds it by O(u·k) subset tests for u distinct
// intersections instead of O(k²).
//
// The whole pass is O(Σ_m (|m| log P + Σ|m∩o| + u·k)) over the maximal views m
// and other threads, with P the longest posting list, against the map-based
// pass's O(Σ_m V·|m|) map operations and one map allocation per intersection.
package highlevel

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/report"
	"repro/internal/trace"
)

// Config parameterises the detector.
type Config struct {
	// Tool is the report name; defaults to "highlevel".
	Tool string
	// Granule is the location granularity in bytes (default 4).
	Granule int
	// MinViewSize ignores maximal views smaller than this many locations
	// (default 2 — a one-variable view cannot be split).
	MinViewSize int
}

func (c Config) withDefaults() Config {
	if c.Tool == "" {
		c.Tool = "highlevel"
	}
	if c.Granule <= 0 {
		c.Granule = 4
	}
	if c.MinViewSize <= 0 {
		c.MinViewSize = 2
	}
	return c
}

type varKey struct {
	block trace.BlockID
	gran  uint32
}

// view is one recorded critical section: its distinct variables, a sorted run
// of interned IDs in Detector.vars, and the acquisition site and first access
// of the first critical section with that variable set.
type view struct {
	off, n int
	stack  trace.StackID
	addr   trace.Addr
	block  trace.BlockID
}

// section is a critical section in progress. ids holds the interned
// variables in access order, with consecutive repeats dropped; Release sorts
// and deduplicates it.
type section struct {
	lock  trace.LockID
	stack trace.StackID
	addr  trace.Addr
	block trace.BlockID
	ids   []uint32
}

// compactMin is the buffer length from which a full section buffer is sorted
// and deduplicated in place before it grows, so a long critical section
// holds memory for its distinct variables, not for every access.
const compactMin = 64

func (s *section) add(id uint32) {
	n := len(s.ids)
	if n > 0 && s.ids[n-1] == id {
		return
	}
	if n == cap(s.ids) && n >= compactMin {
		s.ids = sortUnique(s.ids)
		if len(s.ids) > n/2 {
			s.ids = slices.Grow(s.ids, n)
		}
	}
	s.ids = append(s.ids, id)
}

func sortUnique(ids []uint32) []uint32 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// group holds the distinct views one thread recorded under one lock. During
// Finish, post is its inverted index: entries var<<32 | view position, sorted,
// so the views holding one variable form an ascending run.
type group struct {
	lock   trace.LockID
	thread trace.ThreadID
	views  []view
	post   []uint64
}

type groupKey struct {
	lock   trace.LockID
	thread trace.ThreadID
}

// Detector is the view-consistency tool. Call Finish after the run to
// perform the analysis (core.Run does this automatically).
type Detector struct {
	trace.BaseSink
	cfg      Config
	col      trace.Reporter
	finished bool
	reports  int

	ids     map[varKey]uint32
	threads trace.Dense
	open    [][]section // by dense thread slot; the tail past len keeps buffers for reuse

	seen    map[string]struct{} // lock, thread and sorted IDs of every recorded view
	groupOf map[groupKey]int
	groups  []group
	vars    []uint32 // the recorded views' IDs
	key     []byte   // Release scratch for the seen key

	// Finish scratch. stamp, cnt and end are indexed by view position in the
	// other thread's group: the epoch that last met the view, and its
	// intersection with m, which is inter[end-cnt:end].
	post    []uint64
	maximal []int32
	stamp   []uint32
	cnt     []int32
	end     []int32
	epoch   uint32
	cands   []int32
	order   []int32
	runs    [][]uint64
	inter   []uint32
	bySize  []int32
	scanned []int32
}

// Spec registers the detector with the analysis engine's tool registry. View
// consistency is inherently cross-block: one critical section's view spans
// every location the thread touches while holding the lock, regardless of
// which heap block it lives in, so no block partition preserves the
// analysis: the tool is RouteSingle and needs the complete stream. Its
// warnings are emitted by the end-of-stream Finish pass, which the engine
// sequences after every stream event.
func Spec(cfg Config) trace.ToolSpec {
	cfg = cfg.withDefaults()
	return trace.ToolSpec{
		Name:    cfg.Tool,
		Routing: trace.RouteSingle,
		Factory: func(col trace.Reporter) trace.Sink { return New(cfg, col) },
	}
}

// New creates a view-consistency detector writing to col.
func New(cfg Config, col trace.Reporter) *Detector {
	return &Detector{
		cfg:     cfg.withDefaults(),
		col:     col,
		ids:     make(map[varKey]uint32),
		seen:    make(map[string]struct{}),
		groupOf: make(map[groupKey]int),
	}
}

// ToolName implements trace.Sink.
func (d *Detector) ToolName() string { return d.cfg.Tool }

// Violations returns the number of reported view inconsistencies.
func (d *Detector) Violations() int { return d.reports }

func indexOf(open []section, l trace.LockID) int {
	for i := range open {
		if open[i].lock == l {
			return i
		}
	}
	return -1
}

// Acquire implements trace.Sink: opens a fresh view for the critical
// section. Re-acquiring a lock the thread holds restarts its view.
func (d *Detector) Acquire(t trace.ThreadID, l trace.LockID, _ trace.LockKind, stack trace.StackID) {
	ti := d.threads.Index(int32(t))
	for len(d.open) <= ti {
		d.open = append(d.open, nil)
	}
	open := d.open[ti]
	i := indexOf(open, l)
	if i < 0 {
		i = len(open)
		if i < cap(open) {
			open = open[:i+1]
		} else {
			open = append(open, section{})
		}
		d.open[ti] = open
	}
	open[i] = section{lock: l, stack: stack, ids: open[i].ids[:0]}
}

// Release implements trace.Sink: finalises the critical section's view.
func (d *Detector) Release(t trace.ThreadID, l trace.LockID, _ trace.LockKind, _ trace.StackID) {
	ti := d.threads.Lookup(int32(t))
	if ti < 0 {
		return
	}
	open := d.open[ti]
	i := indexOf(open, l)
	if i < 0 {
		return
	}
	last := len(open) - 1
	open[i], open[last] = open[last], open[i]
	d.open[ti] = open[:last]
	s := &open[last]
	if len(s.ids) == 0 {
		return
	}
	s.ids = sortUnique(s.ids)
	d.record(t, s)
}

// record keeps s as a view of thread t unless the thread already recorded
// the same variable set under the same lock.
func (d *Detector) record(t trace.ThreadID, s *section) {
	key := binary.LittleEndian.AppendUint32(d.key[:0], uint32(s.lock))
	key = binary.LittleEndian.AppendUint32(key, uint32(t))
	for _, id := range s.ids {
		key = binary.LittleEndian.AppendUint32(key, id)
	}
	d.key = key
	if _, dup := d.seen[string(key)]; dup {
		return
	}
	d.seen[string(key)] = struct{}{}
	gk := groupKey{lock: s.lock, thread: t}
	gi, ok := d.groupOf[gk]
	if !ok {
		gi = len(d.groups)
		d.groupOf[gk] = gi
		d.groups = append(d.groups, group{lock: s.lock, thread: t})
	}
	g := &d.groups[gi]
	g.views = append(g.views, view{off: len(d.vars), n: len(s.ids), stack: s.stack, addr: s.addr, block: s.block})
	d.vars = append(d.vars, s.ids...)
}

// Access implements trace.Sink: adds the location to every critical section
// the thread currently has open. A zero-width access touches no location.
func (d *Detector) Access(a *trace.Access) {
	ti := d.threads.Lookup(int32(a.Thread))
	if ti < 0 || len(d.open[ti]) == 0 || a.Size == 0 {
		return
	}
	open := d.open[ti]
	for i := range open {
		if len(open[i].ids) == 0 {
			open[i].addr = a.Addr
			open[i].block = a.Block
		}
	}
	g := uint32(d.cfg.Granule)
	lo, hi := a.Off/g, (a.Off+a.Size-1)/g
	for x := lo; ; x++ {
		k := varKey{block: a.Block, gran: x}
		id, ok := d.ids[k]
		if !ok {
			id = uint32(len(d.ids))
			d.ids[k] = id
		}
		for i := range open {
			open[i].add(id)
		}
		if x >= hi {
			break
		}
	}
}

// Finish runs the view-consistency analysis over all recorded views and is
// idempotent. Locks go in ascending order; for each ordered pair of distinct
// threads (t1, t2), ascending, every maximal view of t1 with at least
// MinViewSize variables is checked against all of t2's views, and each
// failure is reported naming the first offending view of t2. See the package
// comment for the index and the chain test behind it and their cost.
func (d *Detector) Finish() {
	if d.finished {
		return
	}
	d.finished = true
	slices.SortFunc(d.groups, func(a, b group) int {
		if c := cmp.Compare(a.lock, b.lock); c != 0 {
			return c
		}
		return cmp.Compare(a.thread, b.thread)
	})
	for lo := 0; lo < len(d.groups); {
		hi := lo + 1
		for hi < len(d.groups) && d.groups[hi].lock == d.groups[lo].lock {
			hi++
		}
		d.checkLock(d.groups[lo:hi])
		lo = hi
	}
}

// checkLock runs the analysis for one lock, whose groups are sorted by
// thread.
func (d *Detector) checkLock(gs []group) {
	if len(gs) < 2 {
		return // a single thread is consistent with itself
	}
	d.index(gs)
	for i := range gs {
		maximal := d.maximalViews(&gs[i])
		for j := range gs {
			if i == j {
				continue
			}
			for _, mi := range maximal {
				m := &gs[i].views[mi]
				if bad := d.violates(m, &gs[j]); bad >= 0 {
					d.report(gs[i].lock, m, &gs[j].views[bad])
				}
			}
		}
	}
}

func (d *Detector) viewVars(v *view) []uint32 { return d.vars[v.off : v.off+v.n] }

// index builds every group's posting list in one shared arena and sizes the
// per-view scratch for the largest group.
func (d *Detector) index(gs []group) {
	total, most := 0, 0
	for i := range gs {
		for j := range gs[i].views {
			total += gs[i].views[j].n
		}
		most = max(most, len(gs[i].views))
	}
	post := slices.Grow(d.post[:0], total)
	for i := range gs {
		start := len(post)
		for vi := range gs[i].views {
			for _, x := range d.viewVars(&gs[i].views[vi]) {
				post = append(post, uint64(x)<<32|uint64(vi))
			}
		}
		slices.Sort(post[start:])
		gs[i].post = post[start:len(post):len(post)]
	}
	d.post = post
	if len(d.stamp) < most {
		d.stamp = make([]uint32, most)
		d.cnt = make([]int32, most)
		d.end = make([]int32, most)
	}
}

// posting returns the run of post for variable x: the positions of the views
// holding x, ascending.
func posting(post []uint64, x uint32) []uint64 {
	lo, _ := slices.BinarySearch(post, uint64(x)<<32)
	n, _ := slices.BinarySearch(post[lo:], (uint64(x)+1)<<32)
	return post[lo : lo+n]
}

// maximalViews returns, in recording order, the positions of g's views of at
// least MinViewSize variables that no other view of g strictly contains. A
// containing view holds every variable of v, so only the views sharing v's
// rarest variable are tested.
func (d *Detector) maximalViews(g *group) []int32 {
	out := d.maximal[:0]
	for i := range g.views {
		v := &g.views[i]
		if v.n < d.cfg.MinViewSize {
			continue
		}
		vars := d.viewVars(v)
		cands := posting(g.post, vars[0])
		for _, x := range vars[1:] {
			if p := posting(g.post, x); len(p) < len(cands) {
				cands = p
			}
		}
		maximal := true
		for _, e := range cands {
			w := &g.views[uint32(e)]
			if w.n > v.n && isSubset(vars, d.viewVars(w)) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, int32(i))
		}
	}
	d.maximal = out
	return out
}

// violates checks whether the views of o intersect m in a chain; when they
// do not it returns the position of the offending view, else -1.
func (d *Detector) violates(m *view, o *group) int {
	d.epoch++
	if d.epoch == 0 {
		clear(d.stamp)
		d.epoch = 1
	}
	mv := d.viewVars(m)
	runs, cands := d.runs[:0], d.cands[:0]
	for _, x := range mv {
		p := posting(o.post, x)
		runs = append(runs, p)
		for _, e := range p {
			c := uint32(e)
			if d.stamp[c] != d.epoch {
				d.stamp[c] = d.epoch
				d.cnt[c] = 0
				cands = append(cands, int32(c))
			}
			d.cnt[c]++
		}
	}
	d.runs, d.cands = runs, cands
	if len(cands) < 2 {
		return -1
	}

	// Lay the intersections out in the arena. Filling them variable by
	// variable keeps each one sorted.
	total := int32(0)
	for _, c := range cands {
		d.end[c] = total
		total += d.cnt[c]
	}
	inter := slices.Grow(d.inter[:0], int(total))[:total]
	for k, p := range runs {
		for _, e := range p {
			c := uint32(e)
			inter[d.end[c]] = mv[k]
			d.end[c]++
		}
	}
	d.inter = inter

	if d.chained(cands, len(mv)) {
		return -1
	}
	return d.firstIncomparable(cands)
}

// chained reports whether the candidates' intersections form a chain: ordered
// by size, each is a subset of the next. Sizes run from 1 to |m|, so a
// counting sort orders them.
func (d *Detector) chained(cands []int32, mSize int) bool {
	bySize := slices.Grow(d.bySize[:0], mSize)[:mSize]
	clear(bySize)
	for _, c := range cands {
		bySize[d.cnt[c]-1]++
	}
	for n, pos := 0, int32(0); n < mSize; n++ {
		bySize[n], pos = pos, pos+bySize[n]
	}
	order := slices.Grow(d.order[:0], len(cands))[:len(cands)]
	for _, c := range cands {
		order[bySize[d.cnt[c]-1]] = c
		bySize[d.cnt[c]-1]++
	}
	d.bySize, d.order = bySize, order
	for k := 1; k < len(order); k++ {
		if !isSubset(d.intersection(order[k-1]), d.intersection(order[k])) {
			return false
		}
	}
	return true
}

// firstIncomparable names the offending view the definition's pairwise scan
// names: the later view of the first incomparable pair, in recording order.
// A view whose intersection equals an earlier one's cannot start a pair — the
// earlier view found no incomparable view after it — so the scan costs O(u·k)
// subset tests for u distinct intersections rather than O(k²).
func (d *Detector) firstIncomparable(cands []int32) int {
	slices.Sort(cands)
	d.scanned = d.scanned[:0]
	for i, a := range cands {
		sa := d.intersection(a)
		if slices.ContainsFunc(d.scanned, func(r int32) bool { return slices.Equal(sa, d.intersection(r)) }) {
			continue
		}
		d.scanned = append(d.scanned, a)
		for _, b := range cands[i+1:] {
			if sb := d.intersection(b); !isSubset(sa, sb) && !isSubset(sb, sa) {
				return int(b)
			}
		}
	}
	return -1
}

func (d *Detector) intersection(c int32) []uint32 { return d.inter[d.end[c]-d.cnt[c] : d.end[c]] }

// isSubset reports whether the sorted set a is contained in the sorted set b.
func isSubset(a, b []uint32) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

func (d *Detector) report(l trace.LockID, m, bad *view) {
	d.reports++
	d.col.Add(report.Warning{
		Tool:      d.cfg.Tool,
		Kind:      report.KindHighLevel,
		Addr:      m.addr,
		Block:     m.block,
		Stack:     m.stack,
		PrevStack: bad.stack,
		State: fmt.Sprintf("lock L%d: a view of %d variable(s) is split inconsistently by another thread",
			l, m.n),
	})
}

var _ trace.Sink = (*Detector)(nil)
