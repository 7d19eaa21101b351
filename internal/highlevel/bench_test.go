package highlevel

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// tableViews is the perfbench table trace's view shape: every thread updates
// each of 64 eight-byte slots and an eight-byte counter under one lock, so
// each thread records 64 four-variable views that share the counter.
func tableViews(threads int) []op {
	var ops []op
	for th := trace.ThreadID(1); th <= trace.ThreadID(threads); th++ {
		for slot := 0; slot < 64; slot++ {
			ops = append(ops,
				op{kind: 'a', thread: th, lock: 1, stack: trace.StackID(th)},
				op{kind: 'x', thread: th, block: trace.BlockID(1 + slot), size: 8},
				op{kind: 'x', thread: th, block: 100, size: 8},
				op{kind: 'r', thread: th, lock: 1})
		}
	}
	return ops
}

// BenchmarkHighlevelFinish times the end-of-stream pass alone. hot-var is the
// shape where every view of a lock holds one field: a single posting list per
// variable would make each query walk all views of all threads.
func BenchmarkHighlevelFinish(b *testing.B) {
	shapes := []struct {
		name string
		ops  []op
	}{
		{"table-shaped", tableViews(4)},
		{"hot-var", randomViews(rand.New(rand.NewSource(1)), viewShape{
			locks: 2, threads: 8, views: 400, vars: 200, maxView: 6, hot: true})},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			var warnings captured
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				warnings = warnings[:0]
				d := New(Config{}, &warnings)
				feed(d, s.ops)
				b.StartTimer()
				d.Finish()
			}
		})
	}
}

// TestZeroAllocHighlevelHandlers pins the handlers' steady state: once a
// view has been recorded, repeating its critical section — nested in a second
// lock, with accesses spanning two granules — allocates nothing.
func TestZeroAllocHighlevelHandlers(t *testing.T) {
	var warnings captured
	d := New(Config{}, &warnings)
	slot := trace.Access{Thread: 1, Block: 1, Off: 8, Size: 8}
	counter := trace.Access{Thread: 1, Block: 2, Size: 8}
	section := func() {
		d.Acquire(1, 1, trace.Mutex, 10)
		d.Acquire(1, 2, trace.Mutex, 11)
		d.Access(&slot)
		d.Access(&counter)
		d.Access(&slot)
		d.Release(1, 2, trace.Mutex, 0)
		d.Access(&counter)
		d.Release(1, 1, trace.Mutex, 0)
	}
	section()
	if allocs := testing.AllocsPerRun(100, section); allocs != 0 {
		t.Errorf("steady-state Acquire/Access/Release allocated %.1f per section, want 0", allocs)
	}
}
