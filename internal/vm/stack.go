package vm

import (
	"hash/fnv"
	"strconv"
	"sync"

	"repro/internal/trace"
)

// StackTable interns guest call stacks. Stack IDs are stable for the life of
// the VM; ID 0 is the empty stack.
//
// The table is safe for concurrent use: suppression matching and report
// formatting resolve stacks through trace.Resolver mid-run, and a reader on
// another goroutine (an incremental report, a query) may do so while the
// guest is still interning new ones.
type StackTable struct {
	mu     sync.RWMutex
	byHash map[uint64][]trace.StackID
	stacks [][]trace.Frame
}

// NewStackTable creates an empty table with the empty stack pre-interned.
func NewStackTable() *StackTable {
	st := &StackTable{byHash: make(map[uint64][]trace.StackID)}
	st.stacks = append(st.stacks, nil) // ID 0
	return st
}

// Intern returns the ID for the given frames (innermost last), creating a new
// entry when the stack has not been seen before.
func (st *StackTable) Intern(frames []trace.Frame) trace.StackID {
	if len(frames) == 0 {
		return trace.NoStack
	}
	h := hashFrames(frames)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, id := range st.byHash[h] {
		if framesEqual(st.stacks[id], frames) {
			return id
		}
	}
	cp := make([]trace.Frame, len(frames))
	copy(cp, frames)
	id := trace.StackID(len(st.stacks))
	st.stacks = append(st.stacks, cp)
	st.byHash[h] = append(st.byHash[h], id)
	return id
}

// Frames returns the frames of an interned stack, innermost last. The
// returned slice must not be modified.
func (st *StackTable) Frames(id trace.StackID) []trace.Frame {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if id < 0 || int(id) >= len(st.stacks) {
		return nil
	}
	return st.stacks[id]
}

// Len returns the number of distinct interned stacks (including the empty
// stack).
func (st *StackTable) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.stacks)
}

func hashFrames(frames []trace.Frame) uint64 {
	h := fnv.New64a()
	for _, f := range frames {
		h.Write([]byte(f.Fn))
		h.Write([]byte{0})
		h.Write([]byte(f.File))
		h.Write([]byte{0})
		h.Write([]byte(strconv.Itoa(f.Line)))
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

func framesEqual(a, b []trace.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
