// Package vclock implements vector clocks (Lamport [7] / DJIT [6]) used by
// the thread-segment graph and the happens-before detectors.
//
// Despite the similar name, this package is only the DATATYPE: a growable
// vector of per-thread logical clocks with join/compare operations. The
// DJIT-style happens-before race DETECTOR built on top of it lives in
// internal/vectorclock.
//
// Two representations keep the detectors' hot paths from allocating. A
// ReadSet holds one location's reads since its last write inline as a
// single epoch until a second thread reads, and only then spills into a
// clock. An Arena carves the write-once clocks captured at segment starts
// from shared chunks instead of allocating each on its own.
package vclock

// VC is a vector clock: one logical clock per thread, indexed by ThreadID.
// Index 0 is unused (thread IDs start at 1). The zero value is the bottom
// clock.
type VC []uint32

// New returns a clock with capacity for n threads.
func New(n int) VC { return make(VC, n+1) }

// Get returns the component for thread t (0 if out of range).
func (v VC) Get(t int) uint32 {
	if t < len(v) {
		return v[t]
	}
	return 0
}

// Set sets the component for thread t, growing the clock if needed, and
// returns the possibly-reallocated clock.
func (v VC) Set(t int, c uint32) VC {
	v = v.grow(t)
	v[t] = c
	return v
}

// Tick increments the component for thread t and returns the clock.
func (v VC) Tick(t int) VC {
	v = v.grow(t)
	v[t]++
	return v
}

func (v VC) grow(t int) VC {
	if t < len(v) {
		return v
	}
	nv := make(VC, t+1)
	copy(nv, v)
	return nv
}

// Join merges other into v (componentwise max) and returns the clock.
func (v VC) Join(other VC) VC {
	if len(other) > len(v) {
		v = v.grow(len(other) - 1)
	}
	for i, c := range other {
		if c > v[i] {
			v[i] = c
		}
	}
	return v
}

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	nv := make(VC, len(v))
	copy(nv, v)
	return nv
}

// CopyInto copies src into dst, reusing dst's storage when it is large
// enough, and returns the result. The hot-path replacement for Clone
// wherever a previous clock of the same object can donate its array (lock
// clocks on release, pooled message clocks): steady state copies without
// allocating.
func CopyInto(dst, src VC) VC {
	if cap(dst) >= len(src) {
		dst = dst[:len(src)]
		copy(dst, src)
		return dst
	}
	return src.Clone()
}

// Arena hands out copies of clocks carved from shared chunks, for clocks
// that are written once, never changed and never freed on their own: the
// clocks captured at segment starts. Each copy has cap == len, so growing it
// reallocates instead of writing into a neighbour, but its holder must not
// set or tick a component in place. A chunk is allocated on the first Copy
// that needs it, so an unused arena costs nothing. The zero value is ready
// to use.
type Arena struct {
	free []uint32 // the current chunk; len is the part handed out
}

// arenaChunk is the number of components in one arena chunk (4 KiB). A
// clock longer than a quarter chunk gets its own array instead, which bounds
// the tail a chunk can waste.
const arenaChunk = 1024

// Copy returns an arena-backed copy of v.
func (a *Arena) Copy(v VC) VC {
	n := len(v)
	if n > cap(a.free)-len(a.free) {
		if n > arenaChunk/4 {
			return v.Clone()
		}
		a.free = make([]uint32, 0, arenaChunk)
	}
	i := len(a.free)
	a.free = append(a.free, v...)
	return a.free[i : i+n : i+n]
}

// Clear zeroes every component in place, keeping the storage. A cleared
// clock is semantically the bottom clock — Get reads 0, LEQ skips zero
// components, Join treats it as the identity — so callers can reset a clock
// without surrendering its array to the garbage collector.
func (v VC) Clear() {
	for i := range v {
		v[i] = 0
	}
}

// Bottom reports whether every component is zero (the nil clock is bottom).
func (v VC) Bottom() bool {
	for _, c := range v {
		if c != 0 {
			return false
		}
	}
	return true
}

// LEQ reports whether v happens-before-or-equals other (componentwise <=).
func (v VC) LEQ(other VC) bool {
	for i, c := range v {
		if c == 0 {
			continue
		}
		if i >= len(other) || c > other[i] {
			return false
		}
	}
	return true
}

// Concurrent reports whether neither clock is ordered before the other.
func (v VC) Concurrent(other VC) bool {
	return !v.LEQ(other) && !other.LEQ(v)
}

// Epoch is a compact (thread, clock) pair identifying a single event, in the
// style of FastTrack. It represents the event at which thread T's clock was C.
type Epoch struct {
	T int32
	C uint32
}

// Zero reports whether the epoch is unset.
func (e Epoch) Zero() bool { return e.T == 0 && e.C == 0 }

// HappensBefore reports whether the epoch's event happens-before the state
// described by the clock (i.e. the clock has seen the event).
func (e Epoch) HappensBefore(v VC) bool {
	return e.C <= v.Get(int(e.T))
}

// ReadSet is the set of reads of one memory location since its last write:
// for each thread that read, the epoch of its latest read. The zero value is
// the empty set.
//
// While every read came from one thread, the set is exactly that thread's
// latest read epoch, held inline. A clock is allocated only when a second
// thread reads before the set is cleared, and Clear keeps that clock's
// storage for the location's next shared read set. This is the
// representation half of FastTrack's adaptive read epochs (Flanagan &
// Freund, PLDI 2009) without its ordered-read replacement rule: the set, and
// every race decision made against it, is the full per-thread clock's.
type ReadSet struct {
	last   Epoch // the latest read; the whole set unless shared
	vc     VC    // the whole set once shared
	shared bool
	dirty  bool // a read was added since the last Clear
}

// Add records a read at epoch e, which must not be the zero epoch.
func (r *ReadSet) Add(e Epoch) {
	switch {
	case r.shared:
		r.vc = r.vc.Set(int(e.T), e.C)
	case r.dirty && r.last.T != e.T:
		r.vc = r.vc.grow(int(max(r.last.T, e.T)))
		r.vc[r.last.T], r.vc[e.T] = r.last.C, e.C
		r.shared = true
	}
	r.last = e
	r.dirty = true
}

// Last returns the epoch of the latest read ever added, the zero epoch
// before the first. Clear keeps it.
func (r *ReadSet) Last() Epoch { return r.last }

// Empty reports whether no read was added since the last Clear.
func (r *ReadSet) Empty() bool { return !r.dirty }

// Before reports whether every read in the set happens-before the state
// described by the clock v.
func (r *ReadSet) Before(v VC) bool {
	if r.shared {
		return r.vc.LEQ(v)
	}
	return !r.dirty || r.last.HappensBefore(v)
}

// Clear empties the set.
func (r *ReadSet) Clear() {
	if r.shared {
		r.vc.Clear()
		r.shared = false
	}
	r.dirty = false
}
