// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark reports the figures' key quantities as custom metrics
// (locations, families, detection rates) alongside the usual ns/op, so that
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation in one run. The per-experiment index
// lives in DESIGN.md §5; EXPERIMENTS.md records paper-vs-measured values.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cppmodel"
	"repro/internal/harness"
	"repro/internal/libc"
	"repro/internal/lockset"
	"repro/internal/scenario"
	"repro/internal/sip"
	"repro/internal/sipp"
	"repro/internal/trace"
	"repro/internal/vm"
)

// ---- E1: Fig. 6 table — locations per test case and configuration ----

func BenchmarkFig6(b *testing.B) {
	for _, tc := range sipp.Cases() {
		for _, det := range harness.PaperConfigs() {
			b.Run(fmt.Sprintf("%s/%s", tc.ID, det.Name), func(b *testing.B) {
				opt := harness.DefaultRunOptions()
				var locations int
				for i := 0; i < b.N; i++ {
					res, err := harness.RunCase(tc, det, opt)
					if err != nil {
						b.Fatal(err)
					}
					locations = res.Locations
				}
				b.ReportMetric(float64(locations), "locations")
			})
		}
	}
}

// ---- E2: Fig. 5 decomposition — FP families under Original ----

func BenchmarkFig5Decomposition(b *testing.B) {
	for _, tc := range sipp.Cases() {
		b.Run(tc.ID, func(b *testing.B) {
			opt := harness.DefaultRunOptions()
			var dec harness.Decomposition
			for i := 0; i < b.N; i++ {
				res, err := harness.RunCase(tc, harness.PaperConfigs()[0], opt)
				if err != nil {
					b.Fatal(err)
				}
				dec = harness.Decomposition{
					BusLock:    res.ByFamily[harness.FamBusLock],
					Destructor: res.ByFamily[harness.FamDtor],
					TotalOrig:  res.Locations,
				}
			}
			b.ReportMetric(float64(dec.BusLock), "fp-buslock")
			b.ReportMetric(float64(dec.Destructor), "fp-destructor")
			b.ReportMetric(float64(dec.TotalOrig-dec.BusLock-dec.Destructor), "remaining")
		})
	}
}

// ---- E3: §1 headline — reduction range across the suite ----

func BenchmarkReductionRange(b *testing.B) {
	opt := harness.DefaultRunOptions()
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Figure6(opt)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi = harness.ReductionRange(rows)
	}
	b.ReportMetric(lo, "min-%removed")
	b.ReportMetric(hi, "max-%removed")
}

// ---- E4: Fig. 8/9 — the COW string false positive ----

func BenchmarkFig8StringRace(b *testing.B) {
	prog := func(rt *cppmodel.Runtime) func(*vm.Thread) {
		return func(main *vm.Thread) {
			text := rt.NewCowString(main, "contents")
			worker := main.Go("worker", func(t *vm.Thread) {
				cp := text.Copy(t)
				cp.Release(t)
			})
			main.Sleep(10)
			cp := text.Copy(main)
			cp.Release(main)
			main.Join(worker)
			text.Release(main)
		}
	}
	for _, cfg := range []struct {
		name string
		opt  core.Options
	}{
		{"Original", core.OptionsOriginal()},
		{"HWLC", core.OptionsHWLC()},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var locations int
			for i := 0; i < b.N; i++ {
				rt := cppmodel.NewRuntime(cppmodel.Options{ForceNew: true})
				o := cfg.opt
				o.Seed = 1
				res, err := core.Run(o, prog(rt))
				if err != nil {
					b.Fatal(err)
				}
				locations = res.Locations()
			}
			b.ReportMetric(float64(locations), "locations")
		})
	}
}

// ---- E8: Fig. 10/11 — ownership transfer per pattern ----

func BenchmarkFig11ThreadPool(b *testing.B) {
	tc, _ := sipp.CaseByID("T4")
	for _, mode := range []struct {
		name    string
		pattern sip.Pattern
		mask    trace.EdgeMask
	}{
		{"per-request/stock", sip.ThreadPerRequest, 0},
		{"pool/stock", sip.ThreadPool, 0},
		{"pool/queue-edges", sip.ThreadPool, trace.MaskFull},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opt := harness.DefaultRunOptions()
			opt.Pattern = mode.pattern
			det := harness.PaperConfigs()[2] // HWLC+DR
			if mode.mask != 0 {
				det.Cfg.Mask = mode.mask
			}
			var ownership int
			for i := 0; i < b.N; i++ {
				res, err := harness.RunCase(tc, det, opt)
				if err != nil {
					b.Fatal(err)
				}
				ownership = res.ByFamily[harness.FamOwnership]
			}
			b.ReportMetric(float64(ownership), "fp-ownership")
		})
	}
}

// ---- E9: §4.3 — schedule-dependent false negatives ----

func BenchmarkSec43ScheduleSweep(b *testing.B) {
	const seeds = 32
	run := func(seed int64) bool {
		res, err := core.Run(core.Options{Lockset: lockset.ConfigOriginal(), Seed: seed},
			func(main *vm.Thread) {
				v := main.VM()
				blk := main.Alloc(4, "x")
				m := v.NewMutex("m")
				unlocked := main.Go("unlocked", func(t *vm.Thread) {
					t.Sleep(seed % 7)
					blk.Store32(t, 0, 1)
				})
				locked := main.Go("locked", func(t *vm.Thread) {
					t.Sleep((seed + 3) % 7)
					m.Lock(t)
					blk.Store32(t, 0, 2)
					m.Unlock(t)
				})
				main.Join(unlocked)
				main.Join(locked)
			})
		if err != nil {
			b.Fatal(err)
		}
		return res.Locations() > 0
	}
	var rate float64
	for i := 0; i < b.N; i++ {
		hits := 0
		for seed := int64(0); seed < seeds; seed++ {
			if run(seed) {
				hits++
			}
		}
		rate = float64(hits) / float64(seeds)
	}
	b.ReportMetric(rate*100, "%schedules-detected")
}

// ---- E10: §4.5 — overhead matrix ----

func BenchmarkOverheadNative(b *testing.B) {
	w := harness.DefaultPerfWorkload()
	for i := 0; i < b.N; i++ {
		w.RunNative()
	}
}

func benchVM(b *testing.B, mode harness.PerfMode) {
	w := harness.DefaultPerfWorkload()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunVM(mode); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverheadVM(b *testing.B)          { benchVM(b, harness.PerfVM) }
func BenchmarkOverheadVMLockset(b *testing.B)   { benchVM(b, harness.PerfVMLockset) }
func BenchmarkOverheadVMLocksetDR(b *testing.B) { benchVM(b, harness.PerfVMLocksetDR) }
func BenchmarkOverheadVMDJIT(b *testing.B)      { benchVM(b, harness.PerfVMDJIT) }

// ---- E11: allocator modes — pool reuse vs GLIBCPP_FORCE_NEW ----

func BenchmarkAllocatorModes(b *testing.B) {
	tc, _ := sipp.CaseByID("T2")
	for _, mode := range []struct {
		name     string
		forceNew bool
	}{
		{"pooled", false},
		{"force-new", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opt := harness.DefaultRunOptions()
			opt.ForceNew = mode.forceNew
			var locations int
			for i := 0; i < b.N; i++ {
				res, err := harness.RunCase(tc, harness.PaperConfigs()[2], opt)
				if err != nil {
					b.Fatal(err)
				}
				locations = res.Locations
			}
			b.ReportMetric(float64(locations), "locations")
		})
	}
}

// ---- E12: detector comparison on the same workload ----

func BenchmarkDetectorComparison(b *testing.B) {
	tc, _ := sipp.CaseByID("T2")
	for _, tool := range []string{"lockset", "djit", "hybrid"} {
		b.Run(tool, func(b *testing.B) {
			var locations int
			for i := 0; i < b.N; i++ {
				opt := harness.DefaultRunOptions()
				res, err := runCaseWithTool(tc, tool, opt)
				if err != nil {
					b.Fatal(err)
				}
				locations = res
			}
			b.ReportMetric(float64(locations), "locations")
		})
	}
}

// runCaseWithTool reruns a SIPp case under one named race detector.
func runCaseWithTool(tc sipp.TestCase, tool string, opt harness.RunOptions) (int, error) {
	o := core.Options{
		Lockset: lockset.ConfigHWLCDR(),
		Seed:    opt.Seed,
		Quantum: opt.Quantum,
	}
	tools, err := o.ParseTools(tool)
	if err != nil {
		return 0, err
	}
	o.Tools = tools
	rt := cppmodel.NewRuntime(cppmodel.Options{AnnotateDeletes: true, ForceNew: opt.ForceNew})
	res, err := core.Run(o, func(main *vm.Thread) {
		lc := libc.New(main)
		srv := sip.NewServer(main.VM(), rt, lc, sip.Config{Pattern: opt.Pattern, Bugs: opt.Bugs})
		srv.Start(main)
		sink := tc.Drive(main, srv, srv.Config().Domains)
		srv.Stop(main)
		main.Join(sink)
	})
	if err != nil {
		return 0, err
	}
	if res.Err != nil {
		return 0, res.Err
	}
	return res.Locations(), nil
}

// ---- E13: deadlock detection ----

func BenchmarkDeadlockDetector(b *testing.B) {
	deadlockTools, err := core.Options{}.ParseTools("lockset,deadlock")
	if err != nil {
		b.Fatal(err)
	}
	var cycles int
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Options{Seed: 1, Tools: deadlockTools}, func(main *vm.Thread) {
			v := main.VM()
			m1, m2, m3 := v.NewMutex("A"), v.NewMutex("B"), v.NewMutex("C")
			pair := func(x, y *vm.Mutex) func(*vm.Thread) {
				return func(t *vm.Thread) {
					x.Lock(t)
					y.Lock(t)
					y.Unlock(t)
					x.Unlock(t)
				}
			}
			for _, p := range []func(*vm.Thread){pair(m1, m2), pair(m2, m3), pair(m3, m1)} {
				w := main.Go("w", p)
				main.Join(w)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.DeadlockDetector.Cycles()
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// ---- Ablations: the design choices called out in DESIGN.md ----

func BenchmarkAblationThreadSegments(b *testing.B) {
	tc, _ := sipp.CaseByID("T2")
	for _, mode := range []struct {
		name     string
		segments bool
	}{
		{"with-segments", true},
		{"plain-eraser", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			det := harness.DetectorConfig{Name: mode.name, Cfg: lockset.ConfigHWLCDR(), AnnotateDeletes: true}
			det.Cfg.ThreadSegments = mode.segments
			var locations int
			for i := 0; i < b.N; i++ {
				res, err := harness.RunCase(tc, det, harness.DefaultRunOptions())
				if err != nil {
					b.Fatal(err)
				}
				locations = res.Locations
			}
			b.ReportMetric(float64(locations), "locations")
		})
	}
}

func BenchmarkAblationQuantum(b *testing.B) {
	tc, _ := sipp.CaseByID("T2")
	for _, q := range []int{1, 3, 10, 50} {
		b.Run(fmt.Sprintf("quantum-%d", q), func(b *testing.B) {
			opt := harness.DefaultRunOptions()
			opt.Quantum = q
			var locations int
			for i := 0; i < b.N; i++ {
				res, err := harness.RunCase(tc, harness.PaperConfigs()[0], opt)
				if err != nil {
					b.Fatal(err)
				}
				locations = res.Locations
			}
			b.ReportMetric(float64(locations), "locations")
		})
	}
}

// ---- Microbenchmarks of the substrate ----

func BenchmarkVMMemoryAccess(b *testing.B) {
	v := vm.New(vm.Options{Seed: 1, Quantum: 100, MaxSteps: int64(b.N)*2 + 1000})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = v.Run(func(main *vm.Thread) {
			blk := main.Alloc(64, "bench")
			for i := 0; i < b.N; i++ {
				blk.Store32(main, (i%16)*4, uint32(i))
			}
		})
	}()
	<-done
}

func BenchmarkVMMutexRoundtrip(b *testing.B) {
	v := vm.New(vm.Options{Seed: 1, Quantum: 100, MaxSteps: int64(b.N)*4 + 1000})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = v.Run(func(main *vm.Thread) {
			m := v.NewMutex("bench")
			for i := 0; i < b.N; i++ {
				m.Lock(main)
				m.Unlock(main)
			}
		})
	}()
	<-done
}

func BenchmarkLocksetPipeline(b *testing.B) {
	// End-to-end detector cost per access on a two-thread handoff pattern.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.Options{Seed: 1, Quantum: 10}, func(main *vm.Thread) {
			blk := main.Alloc(64, "x")
			m := main.VM().NewMutex("m")
			w := func(t *vm.Thread) {
				for j := 0; j < 100; j++ {
					m.Lock(t)
					blk.Store32(t, (j%16)*4, uint32(j))
					m.Unlock(t)
				}
			}
			a := main.Go("a", w)
			c := main.Go("b", w)
			main.Join(a)
			main.Join(c)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E15: generated-scenario replay throughput ----

// BenchmarkScenarioReplay replays one generated conformance scenario
// (internal/scenario, the trace recorded once outside the loop) through the
// full six-tool registry, reporting ns/event — offline multi-tool analysis
// throughput on a catalog workload rather than the SIP server.
func BenchmarkScenarioReplay(b *testing.B) {
	s := scenario.Generate(scenario.GenConfig{Seed: 7})
	recVM, log, err := scenario.Record(s, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	events, err := scenario.CountEvents(log)
	if err != nil {
		b.Fatal(err)
	}
	var locations int
	for i := 0; i < b.N; i++ {
		col, err := scenario.RunOffline(recVM, log)
		if err != nil {
			b.Fatal(err)
		}
		locations = col.Locations()
	}
	b.ReportMetric(float64(locations), "locations")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*events), "ns/event")
}

// ---- E14: the §2.3.1 manual suppression workflow vs the improvements ----

func BenchmarkSuppressionWorkflow(b *testing.B) {
	tc, _ := sipp.CaseByID("T2")
	for _, mode := range []struct {
		name string
		det  harness.DetectorConfig
		sup  string
	}{
		{"original", harness.PaperConfigs()[0], ""},
		{"original+suppressions", harness.PaperConfigs()[0], harness.HelgrindSuppressions},
		{"hwlc+dr", harness.PaperConfigs()[2], ""},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opt := harness.DefaultRunOptions()
			opt.Suppressions = mode.sup
			var locations int
			for i := 0; i < b.N; i++ {
				res, err := harness.RunCase(tc, mode.det, opt)
				if err != nil {
					b.Fatal(err)
				}
				locations = res.Locations
			}
			b.ReportMetric(float64(locations), "locations")
		})
	}
}

// ---- Seed sweep: the paper's repeated-runs methodology ----

func BenchmarkSeedSweepDetectionRate(b *testing.B) {
	tc, _ := sipp.CaseByID("T2")
	var rate float64
	for i := 0; i < b.N; i++ {
		sweep, err := harness.SeedSweep(tc, harness.PaperConfigs()[2], harness.DefaultRunOptions(), 4)
		if err != nil {
			b.Fatal(err)
		}
		rate = sweep.DetectionRate(harness.FamShutdown)
	}
	b.ReportMetric(rate*100, "%seeds-shutdown-bug")
}
