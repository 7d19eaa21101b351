package engine_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/sipp"
	"repro/internal/suppress"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vectorclock"
	"repro/internal/vm"
)

// recordSIP records the racy SIP workload (test case T2 with all seeded
// paper bugs) and returns the binary log plus the recording VM, which acts
// as the stack/block resolver for reports.
func recordSIP(t testing.TB) ([]byte, *vm.VM) {
	t.Helper()
	tc, ok := sipp.CaseByID("T2")
	if !ok {
		t.Fatal("case T2 missing")
	}
	v, log, err := harness.RecordCase(tc, 1)
	if err != nil {
		t.Fatal(err)
	}
	return log, v
}

// paperConfigs mirrors harness.PaperConfigs without importing harness.
func paperConfigs() map[string]lockset.Config {
	return map[string]lockset.Config{
		"Original": lockset.ConfigOriginal(),
		"HWLC":     lockset.ConfigHWLC(),
		"HWLC+DR":  lockset.ConfigHWLCDR(),
	}
}

// TestEngineMatchesSequentialReplay is the pipeline's determinism contract:
// for a fixed recorded trace, the pipeline's merged output is byte-identical
// to feeding the detector directly with tracelog.Replay — same warnings, same
// order, same counts — under all three paper configurations.
func TestEngineMatchesSequentialReplay(t *testing.T) {
	log, v := recordSIP(t)
	for name, cfg := range paperConfigs() {
		seqCol := report.NewCollector(v, nil)
		seqDet := lockset.New(cfg, seqCol)
		seqEvents, err := tracelog.Replay(bytes.NewReader(log), seqDet)
		if err != nil {
			t.Fatalf("%s: sequential replay: %v", name, err)
		}
		want := seqCol.Format()
		if seqCol.Locations() == 0 {
			t.Fatalf("%s: sequential replay found no warnings; test workload is broken", name)
		}
		pipe, err := engine.NewSequential(engine.Options{
			Tools:    []trace.ToolSpec{lockset.Spec(cfg)},
			Resolver: v,
		})
		if err != nil {
			t.Fatalf("%s: NewSequential: %v", name, err)
		}
		events, err := pipe.ReplayLog(bytes.NewReader(log))
		if err != nil {
			t.Fatalf("%s: ReplayLog: %v", name, err)
		}
		if events != seqEvents {
			t.Errorf("%s: dispatched %d events, direct replay saw %d", name, events, seqEvents)
		}
		merged, err := pipe.Close()
		if err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if got := merged.Format(); got != want {
			t.Errorf("%s: merged output differs from direct replay\n--- direct ---\n%s\n--- merged ---\n%s",
				name, want, got)
		}
		if merged.Locations() != seqCol.Locations() || merged.Occurrences() != seqCol.Occurrences() {
			t.Errorf("%s: locations/occurrences = %d/%d, direct = %d/%d",
				name, merged.Locations(), merged.Occurrences(), seqCol.Locations(), seqCol.Occurrences())
		}
	}
}

// TestEngineMatchesSequentialDJIT runs the same determinism check with the
// happens-before detector.
func TestEngineMatchesSequentialDJIT(t *testing.T) {
	log, v := recordSIP(t)
	cfg := vectorclock.DefaultConfig()
	seqCol := report.NewCollector(v, nil)
	if _, err := tracelog.Replay(bytes.NewReader(log), vectorclock.New(cfg, seqCol)); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	want := seqCol.Format()
	pipe, err := engine.NewSequential(engine.Options{Tools: []trace.ToolSpec{vectorclock.Spec(cfg)}, Resolver: v})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	if _, err := pipe.ReplayLog(bytes.NewReader(log)); err != nil {
		t.Fatalf("ReplayLog: %v", err)
	}
	merged, err := pipe.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := merged.Format(); got != want {
		t.Error("djit: merged output differs from direct replay")
	}
}

// TestEngineSuppressions checks that per-tool suppression matches a direct
// collector, including the suppressed-occurrence count in the
// report trailer.
func TestEngineSuppressions(t *testing.T) {
	log, v := recordSIP(t)
	const rules = `
{
   any-destructor
   Helgrind:Race
   fun:*::~*
   ...
}
`
	sup, err := suppress.ParseString(rules)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	cfg := lockset.ConfigOriginal()
	seqCol := report.NewCollector(v, sup)
	if _, err := tracelog.Replay(bytes.NewReader(log), lockset.New(cfg, seqCol)); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	pipe, err := engine.NewSequential(engine.Options{Tools: []trace.ToolSpec{lockset.Spec(cfg)}, Resolver: v, Suppressor: sup})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	if _, err := pipe.ReplayLog(bytes.NewReader(log)); err != nil {
		t.Fatalf("ReplayLog: %v", err)
	}
	merged, err := pipe.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got, want := merged.Format(), seqCol.Format(); got != want {
		t.Errorf("suppressed merged output differs from direct replay\n--- direct ---\n%s\n--- merged ---\n%s", want, got)
	}
	if seqCol.SuppressedSites() == 0 {
		t.Error("suppression rule matched nothing; test is vacuous")
	}
}

// TestEngineLiveStream attaches the pipeline directly to a running VM (no log
// in between) and compares against the classic online detector.
func TestEngineLiveStream(t *testing.T) {
	workload := func(main *vm.Thread) {
		v := main.VM()
		m := v.NewMutex("m")
		blocks := make([]*vm.Block, 8)
		for i := range blocks {
			blocks[i] = main.Alloc(8, fmt.Sprintf("blk%d", i))
		}
		w := func(t *vm.Thread) {
			defer t.Func("worker", "live.cpp", 10)()
			for i := 0; i < 6; i++ {
				b := blocks[i%len(blocks)]
				t.SetLine(12)
				b.Store32(t, 0, b.Load32(t, 0)+1) // unlocked: race
				m.Lock(t)
				t.SetLine(14)
				b.Store32(t, 4, uint32(i)) // locked
				m.Unlock(t)
			}
		}
		a := main.Go("a", w)
		b := main.Go("b", w)
		main.Join(a)
		main.Join(b)
	}

	cfg := lockset.ConfigHWLCDR()
	vOnline := vm.New(vm.Options{Seed: 7})
	colOnline := report.NewCollector(vOnline, nil)
	vOnline.AddTool(lockset.New(cfg, colOnline))
	if err := vOnline.Run(workload); err != nil {
		t.Fatalf("online run: %v", err)
	}

	vLive := vm.New(vm.Options{Seed: 7})
	pipe, err := engine.NewSequential(engine.Options{Tools: []trace.ToolSpec{lockset.Spec(cfg)}, Resolver: vLive})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	vLive.AddTool(pipe)
	if err := vLive.Run(workload); err != nil {
		t.Fatalf("live run: %v", err)
	}
	merged, err := pipe.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if colOnline.Locations() == 0 {
		t.Fatal("online detector found nothing; workload is broken")
	}
	if got, want := merged.Format(), colOnline.Format(); got != want {
		t.Errorf("live pipeline output differs from online detector\n--- online ---\n%s\n--- pipeline ---\n%s", want, got)
	}
}

// panicSink panics the first time it sees an access to the poison block.
type panicSink struct {
	trace.BaseSink
	col    trace.Reporter
	poison trace.BlockID
}

func (p *panicSink) ToolName() string { return "panicky" }

func (p *panicSink) Access(a *trace.Access) {
	if a.Block == p.poison {
		panic("tool bug")
	}
	p.col.Add(report.Warning{Tool: "panicky", Kind: report.KindRace, Block: a.Block, Stack: a.Stack})
}

// TestEnginePanicIsolation: a detector panicking mid-stream must not kill
// the replay; its findings up to the panic survive and Close reports the
// panic as an error.
func TestEnginePanicIsolation(t *testing.T) {
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	const nBlocks = 16
	for b := trace.BlockID(1); b <= nBlocks; b++ {
		rec.Alloc(&trace.Block{ID: b, Base: trace.Addr(0x1000 * uint64(b)), Size: 16, Tag: "t"})
	}
	for b := trace.BlockID(1); b <= nBlocks; b++ {
		rec.Access(&trace.Access{Thread: 1, Seg: 1, Block: b, Size: 4, Kind: trace.Write, Stack: trace.StackID(b)})
	}
	rec.Flush()

	const poison = trace.BlockID(3)
	pipe, err := engine.NewSequential(engine.Options{
		Tools: []trace.ToolSpec{{Name: "panicky", Routing: trace.RouteBlock, Factory: func(col trace.Reporter) trace.Sink {
			return &panicSink{col: col, poison: poison}
		}}},
	})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	n, err := pipe.ReplayLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReplayLog should survive a panicking tool, got: %v", err)
	}
	if n != 2*nBlocks {
		t.Errorf("replayed %d events, want all %d", n, 2*nBlocks)
	}
	merged, err := pipe.Close()
	if err == nil {
		t.Fatal("Close must report the tool panic")
	}
	// Every block accessed before the poisoned one was analysed.
	if want := int(poison) - 1; merged.Locations() != want {
		t.Errorf("merged has %d sites, want the %d found before the panic", merged.Locations(), want)
	}
}

// TestEngineCloseIdempotent: double Close and post-Close dispatch are safe.
func TestEngineCloseIdempotent(t *testing.T) {
	pipe, err := engine.NewSequential(engine.Options{Tools: []trace.ToolSpec{lockset.Spec(lockset.ConfigHWLC())}})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	a, errA := pipe.Close()
	b, errB := pipe.Close()
	if a != b || errA != nil || errB != nil {
		t.Errorf("Close not idempotent: %v %v %v %v", a, b, errA, errB)
	}
	pipe.Access(&trace.Access{Thread: 1, Block: 1, Size: 4}) // must not panic
}

// TestNewPipelineIgnoresShards pins the deprecated Options.Shards as inert:
// whatever it says, NewPipeline returns the inline Sequential and starts no
// goroutines.
func TestNewPipelineIgnoresShards(t *testing.T) {
	before := runtime.NumGoroutine()
	pipe, err := engine.NewPipeline(engine.Options{
		Shards: 8,
		Tools:  []trace.ToolSpec{lockset.Spec(lockset.ConfigHWLC())},
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	if _, ok := pipe.(*engine.Sequential); !ok {
		t.Errorf("NewPipeline(Shards: 8) = %T, want *engine.Sequential", pipe)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("NewPipeline(Shards: 8) changed the goroutine count from %d to %d", before, after)
	}
	if _, err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
}
