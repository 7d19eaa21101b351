package highlevel

import (
	"testing"

	"repro/internal/trace"
)

// decodeOps turns fuzz bytes into a well-formed handler stream. The first
// byte picks the thread count (1–4), the lock count (1–4) and MinViewSize
// (1–3); every later pair of bytes is one call. A lock is acquired only while
// free and released only by its holder, and every access is 1–16 bytes at an
// offset below 32, so no access is empty or wraps.
func decodeOps(data []byte) (Config, []op) {
	if len(data) == 0 {
		return Config{}, nil
	}
	h := data[0]
	threads, locks := 1+int(h&3), 1+int(h>>2&3)
	cfg := Config{MinViewSize: 1 + int(h>>4)%3}
	owner := make([]trace.ThreadID, locks) // 0 = free
	var ops []op
	for p := 1; p+1 < len(data); p += 2 {
		b0, b1 := data[p], data[p+1]
		th := trace.ThreadID(1 + int(b0&3)%threads)
		switch b0 >> 2 & 3 {
		case 0: // acquire
			if l := int(b1) % locks; owner[l] == 0 {
				owner[l] = th
				ops = append(ops, op{kind: 'a', thread: th, lock: trace.LockID(l + 1), stack: trace.StackID(b1)})
			}
		case 1: // release the first lock th holds, searching from b1
			for k := 0; k < locks; k++ {
				if l := (int(b1) + k) % locks; owner[l] == th {
					owner[l] = 0
					ops = append(ops, op{kind: 'r', thread: th, lock: trace.LockID(l + 1)})
					break
				}
			}
		default: // access
			ops = append(ops, op{kind: 'x', thread: th, block: trace.BlockID(1 + b1>>5), off: uint32(b1 & 31), size: 1 + uint32(b0>>4)})
		}
	}
	return cfg, ops
}

// opEncoder builds fuzz inputs that decodeOps reads back as the calls named,
// for streams of one, two or four locks.
type opEncoder []byte

func (e *opEncoder) acquire(th, l int, stack byte) {
	*e = append(*e, byte(th-1), byte(l-1)+4*stack)
}

func (e *opEncoder) release(th, l int) { *e = append(*e, byte(th-1)|1<<2, byte(l-1)) }

func (e *opEncoder) access(th, block int, off, size uint32) {
	*e = append(*e, byte(th-1)|2<<2|byte(size-1)<<4, byte(block-1)<<5|byte(off))
}

// tableCorpus is the shared-table shape: four threads each update one 8-byte
// slot and an 8-byte counter under one lock, so every view has four
// variables and shares the two counter granules with all the others.
func tableCorpus() []byte {
	e := opEncoder{3 | 1<<4} // 4 threads, 1 lock, MinViewSize 2
	for i := 0; i < 16; i++ {
		for th := 1; th <= 4; th++ {
			slot := (th*16 + i) % 16
			e.acquire(th, 1, byte(slot))
			e.access(th, 1+slot/4, uint32(slot%4)*8, 8)
			e.access(th, 8, 0, 8)
			e.release(th, 1)
		}
	}
	return e
}

// hotVarCorpus puts one hot variable (block 1, offset 0) in every view.
// Under lock 1, thread 1 updates {hot, a, b} atomically while threads 2 and 3
// split it into {hot, a} and {hot, b}; under lock 2 every thread's views form
// a chain.
func hotVarCorpus() []byte {
	e := opEncoder{2 | 1<<2 | 1<<4} // 3 threads, 2 locks, MinViewSize 2
	view := func(th, l int, stack byte, offs ...uint32) {
		e.acquire(th, l, stack)
		e.access(th, 1, 0, 4)
		for _, off := range offs {
			e.access(th, 1, off, 4)
		}
		e.release(th, l)
	}
	for round := 0; round < 3; round++ {
		view(1, 1, 1, 4, 8)
		view(2, 1, 2, 4)
		view(3, 1, 3, 8)
		view(2, 1, 4, 8)
		view(1, 2, 5, 12, 16, 20)
		view(2, 2, 6, 12)
		view(3, 2, 7, 12, 16)
	}
	return e
}

// FuzzHighlevelFinish checks the indexed detector against the map-based
// reference on arbitrary well-formed streams.
func FuzzHighlevelFinish(f *testing.F) {
	f.Add(tableCorpus())
	f.Add(hotVarCorpus())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		cfg, ops := decodeOps(data)
		checkAgainstReference(t, cfg, ops)
	})
}

// TestFuzzCorporaShapes keeps the seed corpora meaningful: the table shape is
// consistent, and the hot-variable shape yields warnings.
func TestFuzzCorporaShapes(t *testing.T) {
	cfg, ops := decodeOps(tableCorpus())
	if n := checkAgainstReference(t, cfg, ops); n != 0 {
		t.Errorf("table corpus: %d warnings, want 0", n)
	}
	cfg, ops = decodeOps(hotVarCorpus())
	if n := checkAgainstReference(t, cfg, ops); n == 0 {
		t.Error("hot-variable corpus: no warnings")
	}
}
