package lockset

import (
	"testing"
	"testing/quick"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vm"
)

// run executes a guest program under a fresh VM with a lock-set detector in
// the given configuration and returns the detector and collector.
func run(t *testing.T, seed int64, cfg Config, body func(*vm.Thread, *vm.VM)) (*Detector, *report.Collector) {
	t.Helper()
	v := vm.New(vm.Options{Seed: seed})
	col := report.NewCollector(v, nil)
	d := New(cfg, col)
	v.AddTool(d)
	if err := v.Run(func(th *vm.Thread) { body(th, v) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return d, col
}

func TestNoRaceSingleThread(t *testing.T) {
	_, col := run(t, 1, ConfigOriginal(), func(main *vm.Thread, v *vm.VM) {
		b := main.Alloc(16, "x")
		for i := 0; i < 10; i++ {
			b.Store32(main, 0, uint32(i))
			b.Load32(main, 0)
		}
	})
	if col.Locations() != 0 {
		t.Errorf("single-thread program reported %d race locations:\n%s", col.Locations(), col.Format())
	}
}

func TestRaceUnprotectedCounter(t *testing.T) {
	_, col := run(t, 1, ConfigOriginal(), func(main *vm.Thread, v *vm.VM) {
		b := main.Alloc(4, "counter")
		w := func(th *vm.Thread) {
			for i := 0; i < 5; i++ {
				b.Store32(th, 0, b.Load32(th, 0)+1)
			}
		}
		a := main.Go("a", w)
		bth := main.Go("b", w)
		main.Join(a)
		main.Join(bth)
	})
	if col.Locations() == 0 {
		t.Error("unprotected shared counter not reported")
	}
}

func TestNoRaceProperlyLocked(t *testing.T) {
	_, col := run(t, 1, ConfigOriginal(), func(main *vm.Thread, v *vm.VM) {
		b := main.Alloc(4, "counter")
		m := v.NewMutex("m")
		w := func(th *vm.Thread) {
			for i := 0; i < 5; i++ {
				m.Lock(th)
				b.Store32(th, 0, b.Load32(th, 0)+1)
				m.Unlock(th)
			}
		}
		a := main.Go("a", w)
		bth := main.Go("b", w)
		main.Join(a)
		main.Join(bth)
	})
	if col.Locations() != 0 {
		t.Errorf("properly locked counter reported:\n%s", col.Format())
	}
}

func TestInitThenReadSharedIsSilent(t *testing.T) {
	// Fig. 1: one thread initialises, others only read — no warning even
	// without locks (the read-shared refinement).
	_, col := run(t, 1, ConfigOriginal(), func(main *vm.Thread, v *vm.VM) {
		b := main.Alloc(4, "config")
		b.Store32(main, 0, 7)
		b.Store32(main, 0, 8) // multiple init writes are fine
		reader := func(th *vm.Thread) {
			for i := 0; i < 3; i++ {
				b.Load32(th, 0)
			}
		}
		a := main.Go("a", reader)
		c := main.Go("b", reader)
		main.Join(a)
		main.Join(c)
	})
	if col.Locations() != 0 {
		t.Errorf("init-then-read-shared pattern reported:\n%s", col.Format())
	}
}

func TestWriteAfterReadSharedReports(t *testing.T) {
	// Fig. 1: a write in SHARED state moves to SHARED-MODIFIED and reports
	// when no common lock protects the location.
	_, col := run(t, 1, ConfigOriginal(), func(main *vm.Thread, v *vm.VM) {
		b := main.Alloc(4, "x")
		b.Store32(main, 0, 1)
		r := main.Go("reader", func(th *vm.Thread) { b.Load32(th, 0) })
		main.Join(r)
		w := main.Go("writer", func(th *vm.Thread) { b.Store32(th, 0, 2) })
		main.Join(w)
		// After the join the memory would be exclusive again only via thread
		// segments; the reader made it shared, and the writer is ordered
		// after it, so thread segments keep this silent.
	})
	// With thread segments the create/join ordering makes every access
	// ordered: expect silence.
	if col.Locations() != 0 {
		t.Errorf("segment-ordered accesses reported:\n%s", col.Format())
	}
}

func TestThreadSegmentsSuppressHandoff(t *testing.T) {
	// Fig. 2 / Fig. 10: init -> create -> child works -> join -> reuse.
	// With segments: silent. Without (plain Eraser): the child's access in
	// a shared state has no locks -> report.
	prog := func(main *vm.Thread, v *vm.VM) {
		b := main.Alloc(8, "job")
		b.Store32(main, 0, 1) // init
		w := main.Go("worker", func(th *vm.Thread) {
			b.Store32(th, 0, b.Load32(th, 0)+1) // process
		})
		main.Join(w)
		b.Store32(main, 0, 99) // reuse after join
	}
	cfgSeg := ConfigOriginal()
	_, colSeg := run(t, 1, cfgSeg, prog)
	if colSeg.Locations() != 0 {
		t.Errorf("thread-per-request handoff reported with segments enabled:\n%s", colSeg.Format())
	}

	cfgNoSeg := ConfigOriginal()
	cfgNoSeg.ThreadSegments = false
	_, colNoSeg := run(t, 1, cfgNoSeg, prog)
	if colNoSeg.Locations() == 0 {
		t.Error("plain Eraser (no segments) should report the handoff pattern")
	}
}

// cowCopy simulates the libstdc++ string copy of Fig. 8/9: a plain read of
// the reference counter (the _M_is_leaked check) followed by a bus-locked
// increment (_M_grab).
func cowCopy(th *vm.Thread, refcnt *vm.AtomicI32) {
	defer th.Func("std::string::_Rep::_M_grab", "basic_string.h", 650)()
	refcnt.Load(th)   // plain read: leak check
	refcnt.Add(th, 1) // LOCK-prefixed increment
}

func TestFig8StringRefcountBusLockModels(t *testing.T) {
	prog := func(main *vm.Thread, v *vm.VM) {
		rep := main.Alloc(12, "string-rep")
		refcnt := vm.AtomicI32At(rep, 0)
		refcnt.Store(main, 1) // construction in main (exclusive)
		w := main.Go("worker", func(th *vm.Thread) {
			cowCopy(th, refcnt) // line 10 of Fig. 8
		})
		main.Sleep(5)
		cowCopy(main, refcnt) // line 22 of Fig. 8 — the reported conflict
		main.Join(w)
	}

	// Original model: the refcount mixes plain reads (no bus mutex) with
	// LOCKed writes -> the candidate set empties -> false positive.
	_, colOrig := run(t, 1, ConfigOriginal(), prog)
	if colOrig.Locations() == 0 {
		t.Error("original bus-lock model should report the COW string refcount")
	}

	// HWLC: every read holds the bus rwlock for reading, every write here is
	// bus-locked -> the bus lock stays in the set -> no warning.
	_, colHWLC := run(t, 1, ConfigHWLC(), prog)
	if colHWLC.Locations() != 0 {
		t.Errorf("HWLC model should silence the COW string refcount:\n%s", colHWLC.Format())
	}
}

func TestHWLCStillReportsPlainWriteRaces(t *testing.T) {
	// The rwlock bus model must not blanket-suppress: a location written with
	// PLAIN writes by two threads is still racy.
	_, col := run(t, 1, ConfigHWLC(), func(main *vm.Thread, v *vm.VM) {
		b := main.Alloc(4, "plain")
		w := func(th *vm.Thread) { b.Store32(th, 0, 1) }
		a := main.Go("a", w)
		c := main.Go("b", w)
		main.Join(a)
		main.Join(c)
	})
	if col.Locations() == 0 {
		t.Error("HWLC must still report plain-write races")
	}
}

func TestMixedAtomicAndPlainWriteStillReportedUnderHWLC(t *testing.T) {
	// If even one write is plain, the bus lock leaves the write set and the
	// location is reported — HWLC only certifies all-atomic writers.
	_, col := run(t, 1, ConfigHWLC(), func(main *vm.Thread, v *vm.VM) {
		b := main.Alloc(4, "mixed")
		a := main.Go("atomicwriter", func(th *vm.Thread) { b.AtomicAdd32(th, 0, 1) })
		p := main.Go("plainwriter", func(th *vm.Thread) { b.Store32(th, 0, 5) })
		main.Join(a)
		main.Join(p)
	})
	if col.Locations() == 0 {
		t.Error("mixed atomic/plain writers should still be reported under HWLC")
	}
}

func TestDestructAnnotationSilencesDtorWrites(t *testing.T) {
	// §4.2.1: object shared between threads (vptr read by many), destructor
	// rewrites the vptr. Without DR: report. With DR: silent.
	prog := func(main *vm.Thread, v *vm.VM) {
		obj := main.Alloc(16, "obj:Derived")
		m := v.NewMutex("objlock")
		obj.Store64(main, 0, fakeVptr) // construction writes vptr
		// Two workers use the object under different locks so the vptr
		// read set empties without warnings (reads in SHARED don't warn).
		m2 := v.NewMutex("otherlock")
		w1 := main.Go("w1", func(th *vm.Thread) {
			m.Lock(th)
			obj.Load64(th, 0) // virtual call reads vptr
			m.Unlock(th)
		})
		w2 := main.Go("w2", func(th *vm.Thread) {
			m2.Lock(th)
			obj.Load64(th, 0)
			m2.Unlock(th)
		})
		main.Join(w1)
		main.Join(w2)
		// A third thread deletes the object: destructor chain rewrites vptr.
		del := main.Go("deleter", func(th *vm.Thread) {
			obj.Request(th, trace.ReqDestruct, 0, obj.Size())
			defer th.Func("Derived::~Derived", "obj.cpp", 42)()
			obj.Store64(th, 0, 0xBa5e) // vptr rewrite to base class
			obj.Store64(th, 0, 0xDead)
		})
		main.Join(del)
	}
	cfgNoDR := ConfigHWLC()
	_, colNo := run(t, 1, cfgNoDR, prog)
	if colNo.Locations() == 0 {
		t.Error("destructor vptr writes should be reported without the DR annotation")
	}
	cfgDR := ConfigHWLCDR()
	_, colDR := run(t, 1, cfgDR, prog)
	if colDR.Locations() != 0 {
		t.Errorf("DR annotation should silence destructor vptr writes:\n%s", colDR.Format())
	}
}

func TestDestructAnnotationKeepsCrossThreadAccessVisible(t *testing.T) {
	// "Accesses by other threads during destruction are still detected."
	_, col := run(t, 1, ConfigHWLCDR(), func(main *vm.Thread, v *vm.VM) {
		obj := main.Alloc(16, "obj:Derived")
		obj.Store64(main, 0, 1)
		sem := v.NewSemaphore("sync", 0)
		intruder := main.Go("intruder", func(th *vm.Thread) {
			sem.Wait(th)
			obj.Store64(th, 8, 7) // concurrent write during destruction
		})
		del := main.Go("deleter", func(th *vm.Thread) {
			obj.Request(th, trace.ReqDestruct, 0, obj.Size())
			obj.Store64(th, 0, 2)
			sem.Post(th)
			th.Sleep(20)
			obj.Store64(th, 8, 3) // dtor body touches the field the intruder hit
		})
		main.Join(intruder)
		main.Join(del)
	})
	if col.Locations() == 0 {
		t.Error("concurrent access during destruction must still be reported under DR")
	}
}

func TestBenignRequestSuppresses(t *testing.T) {
	_, col := run(t, 1, ConfigOriginal(), func(main *vm.Thread, v *vm.VM) {
		b := main.Alloc(4, "hitcounter")
		b.Request(main, trace.ReqBenign, 0, 4)
		w := func(th *vm.Thread) { b.Store32(th, 0, b.Load32(th, 0)+1) }
		a := main.Go("a", w)
		c := main.Go("b", w)
		main.Join(a)
		main.Join(c)
	})
	if col.Locations() != 0 {
		t.Errorf("benign-marked counter reported:\n%s", col.Format())
	}
}

func TestQueueEdgesExtensionFixesThreadPool(t *testing.T) {
	// Fig. 11: with a thread pool, ownership passes through the queue. Stock
	// Helgrind (MaskHelgrind) reports a false positive; the future-work
	// extension (MaskFull) keeps the data exclusive per segment.
	prog := func(main *vm.Thread, v *vm.VM) {
		q := v.NewQueue("jobs", 0)
		done := v.NewQueue("done", 0)
		worker := main.Go("pool-worker", func(th *vm.Thread) {
			for {
				msg, ok := q.Get(th)
				if !ok {
					return
				}
				blk := msg.(*vm.Block)
				blk.Store32(th, 0, blk.Load32(th, 0)*2) // process data
				done.Put(th, blk)
			}
		})
		// The pool thread exists BEFORE the data: create/join edges cannot
		// order these accesses.
		b := main.Alloc(8, "job-data")
		b.Store32(main, 0, 21) // setup data
		q.Put(main, b)
		r, _ := done.Get(main)
		got := r.(*vm.Block).Load32(main, 0)
		if got != 42 {
			panic("job not processed")
		}
		q.Close(main)
		main.Join(worker)
	}
	cfgStock := ConfigHWLCDR()
	_, colStock := run(t, 1, cfgStock, prog)
	if colStock.Locations() == 0 {
		t.Error("stock configuration should report the thread-pool handoff (Fig. 11)")
	}
	cfgExt := ConfigHWLCDR()
	cfgExt.Mask = trace.MaskFull
	_, colExt := run(t, 1, cfgExt, prog)
	if colExt.Locations() != 0 {
		t.Errorf("queue-edge extension should silence the thread-pool handoff:\n%s", colExt.Format())
	}
}

func TestSec43FalseNegativeScheduleDependence(t *testing.T) {
	// §4.3: T-unlocked writes first, T-locked second => no warning (lock-set
	// initialised with the lock held). Opposite order => warning. Sweep seeds
	// and require both outcomes to occur.
	outcome := func(seed int64) bool {
		_, col := run(t, seed, ConfigOriginal(), func(main *vm.Thread, v *vm.VM) {
			b := main.Alloc(4, "x")
			m := v.NewMutex("m")
			unlocked := main.Go("unlocked", func(th *vm.Thread) {
				th.Sleep(int64(seed % 7)) // schedule jitter
				b.Store32(th, 0, 1)
			})
			locked := main.Go("locked", func(th *vm.Thread) {
				th.Sleep(int64((seed + 3) % 7))
				m.Lock(th)
				b.Store32(th, 0, 2)
				m.Unlock(th)
			})
			main.Join(unlocked)
			main.Join(locked)
		})
		return col.Locations() > 0
	}
	var hit, miss int
	for seed := int64(0); seed < 40; seed++ {
		if outcome(seed) {
			hit++
		} else {
			miss++
		}
	}
	if hit == 0 {
		t.Error("no schedule detected the asymmetric-locking race (expected some hits)")
	}
	if miss == 0 {
		t.Error("every schedule detected the race (expected §4.3 false negatives in some orders)")
	}
}

func TestRWLockReaderWriterRules(t *testing.T) {
	// Readers under rdlock + writers under wrlock on the same rwlock: safe.
	_, col := run(t, 1, ConfigHWLC(), func(main *vm.Thread, v *vm.VM) {
		rw := v.NewRWMutex("table")
		b := main.Alloc(4, "entry")
		reader := func(th *vm.Thread) {
			for i := 0; i < 3; i++ {
				rw.RLock(th)
				b.Load32(th, 0)
				rw.RUnlock(th)
			}
		}
		writer := func(th *vm.Thread) {
			for i := 0; i < 3; i++ {
				rw.WLock(th)
				b.Store32(th, 0, uint32(i))
				rw.WUnlock(th)
			}
		}
		ths := []*vm.Thread{main.Go("r1", reader), main.Go("r2", reader), main.Go("w", writer)}
		for _, th := range ths {
			main.Join(th)
		}
	})
	if col.Locations() != 0 {
		t.Errorf("rwlock-protected accesses reported:\n%s", col.Format())
	}
}

func TestRWLockReadersOnlyInsufficientForWrites(t *testing.T) {
	// A thread writing under only a READ hold does not protect the write:
	// write-mode intersection empties.
	_, col := run(t, 1, ConfigHWLC(), func(main *vm.Thread, v *vm.VM) {
		rw := v.NewRWMutex("table")
		b := main.Alloc(4, "entry")
		w := func(th *vm.Thread) {
			rw.RLock(th)
			b.Store32(th, 0, 1) // write under read lock: wrong
			rw.RUnlock(th)
		}
		a := main.Go("a", w)
		c := main.Go("b", w)
		main.Join(a)
		main.Join(c)
	})
	if col.Locations() == 0 {
		t.Error("writes under read-mode holds should be reported")
	}
}

func TestPoolReuseStaleShadowFalsePositive(t *testing.T) {
	// §4: the GNU container allocator reuses memory without free/malloc, so
	// shadow state survives and unrelated code inherits an empty lock-set.
	_, col := run(t, 1, ConfigHWLCDR(), func(main *vm.Thread, v *vm.VM) {
		b := main.Alloc(8, "pool-chunk")
		// First life: two threads race (real shared use, lock-set empties,
		// location reported and marked).
		w := func(th *vm.Thread) { b.Store32(th, 0, 1) }
		a := main.Go("a", w)
		c := main.Go("b", w)
		main.Join(a)
		main.Join(c)
		// "Free" into the pool and reuse WITHOUT resetting shadow state:
		// second life, single-threaded and perfectly safe — but offset 4
		// inherits SHARED state from the block's first life.
		d := main.Go("second-life", func(th *vm.Thread) {
			b.Store32(th, 4, 2)
		})
		main.Join(d)
		e := main.Go("third-life", func(th *vm.Thread) {
			b.Store32(th, 4, 3)
		})
		main.Join(e)
	})
	// Offset 0 is a real race; offset 4's "races" are the allocator FP family.
	if col.Locations() < 1 {
		t.Error("expected at least the real race on offset 0")
	}
	// With ReqCleanMemory (GLIBCPP_FORCE_NEW analogue) the second life is
	// clean.
	_, col2 := run(t, 1, ConfigHWLCDR(), func(main *vm.Thread, v *vm.VM) {
		b := main.Alloc(8, "pool-chunk")
		w := func(th *vm.Thread) { b.Store32(th, 0, 1) }
		a := main.Go("a", w)
		c := main.Go("b", w)
		main.Join(a)
		main.Join(c)
		b.Request(main, trace.ReqCleanMemory, 0, 8) // allocator resets shadow
		d := main.Go("second-life", func(th *vm.Thread) { b.Store32(th, 4, 2) })
		main.Join(d)
		e := main.Go("third-life", func(th *vm.Thread) { b.Store32(th, 4, 3) })
		main.Join(e)
	})
	if col2.Locations() > col.Locations() {
		t.Error("clean-memory request should not increase reported locations")
	}
}

func TestSetTableBasics(t *testing.T) {
	st := NewSetTable()
	a := st.Intern([]trace.LockID{3, 1, 2})
	b := st.Intern([]trace.LockID{1, 2, 3})
	if a != b {
		t.Error("permutations interned differently")
	}
	c := st.Intern([]trace.LockID{2, 3})
	got := st.Intersect(a, c)
	if locks := st.Locks(got); len(locks) != 2 || locks[0] != 2 || locks[1] != 3 {
		t.Errorf("intersection = %v, want [2 3]", locks)
	}
	if st.Intersect(Universe, a) != a {
		t.Error("universe must be the intersection identity")
	}
	if st.Intersect(a, EmptySet) != EmptySet {
		t.Error("empty set must absorb")
	}
	if !st.Contains(a, 2) || st.Contains(c, 1) {
		t.Error("Contains misbehaves")
	}
}

func TestSetTableIntersectionProperties(t *testing.T) {
	st := NewSetTable()
	norm := func(raw []uint8) []trace.LockID {
		out := make([]trace.LockID, 0, len(raw))
		for _, x := range raw {
			out = append(out, trace.LockID(x%16))
		}
		return out
	}
	// Commutativity, idempotence and subset ordering of interned intersections.
	prop := func(ra, rb []uint8) bool {
		a := st.Intern(norm(ra))
		b := st.Intern(norm(rb))
		ab := st.Intersect(a, b)
		ba := st.Intersect(b, a)
		if ab != ba {
			return false
		}
		if st.Intersect(a, a) != a {
			return false
		}
		for _, l := range st.Locks(ab) {
			if !st.Contains(a, l) || !st.Contains(b, l) {
				return false
			}
		}
		return st.Size(ab) <= st.Size(a) && st.Size(ab) <= st.Size(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// fakeVptr is a fake vtable pointer value used by destructor tests.
const fakeVptr uint64 = 0xC0FFEE

// TestZeroAllocRepeatOccurrence pins the lock-set detector's repeat
// violation: an unlocked write to a shared-modified granule reports every
// time, and once its site exists the report folds into it before any state
// text is formatted, allocating nothing.
func TestZeroAllocRepeatOccurrence(t *testing.T) {
	col := report.NewCollector(nil, nil)
	d := New(ConfigHWLCDR(), col)
	d.Alloc(&trace.Block{ID: 1, Base: 0x1000, Size: 8})
	write := func(th trace.ThreadID) {
		d.Access(&trace.Access{Thread: th, Seg: trace.SegmentID(th), Block: 1, Addr: 0x1000, Size: 4, Kind: trace.Write, Stack: 5})
	}
	write(1)
	write(2) // concurrent unlocked write: shared modified, first report
	if allocs := testing.AllocsPerRun(100, func() { write(2) }); allocs != 0 {
		t.Errorf("repeat violation allocated %.1f per report, want 0", allocs)
	}
	if d.DynamicRaces() != 102 || col.Locations() != 1 || col.Sites()[0].Count != 102 {
		t.Errorf("races=%d locations=%d count=%d, want 102/1/102",
			d.DynamicRaces(), col.Locations(), col.Sites()[0].Count)
	}
}
