package engine_test

import (
	"bytes"
	"runtime/debug"
	"testing"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/sipp"
	"repro/internal/trace"
)

// nopTool ignores every event — delivery overhead with zero analysis cost,
// isolating the pipeline's own allocation behaviour.
type nopTool struct{ trace.BaseSink }

func nopSpecs() []trace.ToolSpec {
	return []trace.ToolSpec{
		{Name: "nop-block", Routing: trace.RouteBlock, Factory: func(trace.Reporter) trace.Sink { return nopTool{} }},
		{Name: "nop-bcast", Routing: trace.RouteBroadcast, Factory: func(trace.Reporter) trace.Sink { return nopTool{} }},
	}
}

// TestZeroAllocDispatch pins the dispatch side: pushing a full event stream
// through the pipeline — sequence stamping, SafeSink, delivery to every
// tool — allocates nothing.
func TestZeroAllocDispatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts; budget enforced by the non-race CI step")
	}
	s := scenario.Generate(scenario.GenConfig{Seed: 3})
	_, log, err := scenario.Record(s, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	events := decodeEvents(t, log)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pipe, err := engine.NewSequential(engine.Options{Tools: nopSpecs()})
	if err != nil {
		t.Fatal(err)
	}
	push := func() {
		for i := range events {
			events[i].Deliver(pipe)
		}
	}
	push() // warm
	allocs := testing.AllocsPerRun(10, push)
	if perEvent := allocs / float64(len(events)); perEvent != 0 {
		t.Errorf("%.4f allocs/event (%.1f allocs per %d-event pass), want 0",
			perEvent, allocs, len(events))
	}
	if _, err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroAllocDetectorPath budgets the full analysis path, not just
// dispatch: the complete six-tool registry — lock-set, DJIT, hybrid,
// deadlock, memcheck, high-level — run end to end over a recorded stream,
// including pipeline construction, detector state growth, end-of-stream
// passes and the merged report. The dense-index/slab/epoch state layout keeps
// the whole run at ≤ 1 allocation per event (the steady-state figure is far
// lower; see the BENCH files — this test pins the budget that the CI
// bench-regression gate also enforces, with the fixed costs of a fresh
// pipeline amortised over only one small trace).
func TestZeroAllocDetectorPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments every access; budget enforced by the non-race CI step")
	}
	// The perfbench workload, scaled down: a few thousand events is enough to
	// amortise the fixed pipeline/detector construction the budget includes,
	// where the ~100-event conformance scenarios are not.
	w := harness.PerfWorkload{Threads: 2, Iters: 200, Slots: 16, Blocks: 16, Seed: 1}
	_, log, err := w.RecordTrace()
	if err != nil {
		t.Fatal(err)
	}
	events := decodeEvents(t, log)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() {
		pipe, err := engine.NewSequential(engine.Options{Tools: scenario.AllTools()})
		if err != nil {
			t.Fatal(err)
		}
		for i := range events {
			events[i].Deliver(pipe)
		}
		if _, err := pipe.Close(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm shared state (interned strings, pooled buffers)
	allocs := testing.AllocsPerRun(5, run)
	if perEvent := allocs / float64(len(events)); perEvent > 1.0 {
		t.Errorf("%.3f allocs/event (%.0f allocs per %d-event run), budget 1.0",
			perEvent, allocs, len(events))
	}
}

// sipCase is one recorded SIP test-case trace with the resolver a live
// session would build from its metadata frames.
type sipCase struct {
	id     string
	log    []byte
	res    trace.Resolver
	events int
}

// recordSIPCases records the eight SIP test cases T1–T8 at one scheduler
// seed: the racy input whose lock-set reports mostly repeat a few hundred
// sites.
func recordSIPCases(t *testing.T, seed int64) []sipCase {
	t.Helper()
	var out []sipCase
	for _, tc := range sipp.Cases() {
		v, log, err := harness.RecordCase(tc, seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sipCase{id: tc.ID, log: log,
			res: scenario.Resolver(scenario.CaptureMetadata(v)), events: len(decodeEvents(t, log))})
	}
	return out
}

// TestWarningPathAllocBudget budgets the warning-heavy path that
// TestZeroAllocDetectorPath's race-free trace never reaches: one pass of the
// six-tool pipeline over SIP T1–T8 — decode, every detector's handlers, the
// end-of-stream passes, the merge and the rendered report — with tens of
// thousands of dynamic reports folding into a few hundred sites. Repeat
// occurrences fold before a warning is built, single-reader read sets stay
// inline in the shadow cell and segment clocks come from an arena, which
// together hold the pass to ≤ 0.5 allocations per event.
func TestWarningPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments every access; budget enforced by the non-race CI step")
	}
	cases := recordSIPCases(t, 1)
	events := 0
	for _, c := range cases {
		events += c.events
	}
	sites := 0
	pass := func() {
		sites = 0
		for _, c := range cases {
			pipe, err := engine.NewSequential(engine.Options{Tools: scenario.AllTools(), Resolver: c.res})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pipe.ReplayLog(bytes.NewReader(c.log)); err != nil {
				t.Fatalf("%s: replay: %v", c.id, err)
			}
			col, err := pipe.Close()
			if err != nil {
				t.Fatalf("%s: close: %v", c.id, err)
			}
			_ = col.Format()
			sites += col.Locations()
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pass() // warm shared state (interned strings, pooled buffers)
	if sites == 0 {
		t.Fatal("SIP T1–T8 produced no warnings; the workload no longer exercises the warning path")
	}
	allocs := testing.AllocsPerRun(3, pass)
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocs per %d-event pass (%.3f/event), %d sites", allocs, events, perEvent, sites)
	if perEvent > 0.5 {
		t.Errorf("%.3f allocs/event (%.0f allocs per %d-event pass), budget 0.5", perEvent, allocs, events)
	}
}
