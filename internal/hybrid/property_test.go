package hybrid_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/hybrid"
	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sipp"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// recorded is one trace with the machine that resolves its stacks.
type recorded struct {
	name string
	res  trace.Resolver
	log  []byte
}

// racyTraces records the buggy variant of 100 generated scenarios, each at
// its own scheduler seed, and SIP T1–T8 at seed 1.
func racyTraces(t *testing.T) []recorded {
	t.Helper()
	var out []recorded
	for seed := int64(1); seed <= 100; seed++ {
		s := scenario.Generate(scenario.GenConfig{Seed: seed})
		v, log, err := scenario.Record(s, true, seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, recorded{s.Name(), v, log})
	}
	for _, tc := range sipp.Cases() {
		v, log, err := harness.RecordCase(tc, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, recorded{tc.ID, v, log})
	}
	return out
}

// randomTrace records an unstructured stream: four threads started by the
// first, one block of four granules, and random reads, writes and mutex
// acquires and releases. Lock edges order some accesses and not others, so
// writes often follow reads from several threads of which only some happen
// before the write — the case a read set held as one epoch would get wrong.
// The hybrid reports each cell once, so such streams, not whole programs,
// are what shows a wrong read set.
func randomTrace(t *testing.T, rng *rand.Rand) recorded {
	t.Helper()
	const threads, granules, locks = 4, 4, 2
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	for th := 1; th <= threads; th++ {
		rec.ThreadStart(trace.ThreadID(th), trace.ThreadID(min(th-1, 1)))
	}
	rec.Alloc(&trace.Block{ID: 1, Base: 0x1000, Size: granules * 4, Thread: 1})
	var owner [locks + 1]trace.ThreadID
	for i := 0; i < 300; i++ {
		th := trace.ThreadID(1 + rng.Intn(threads))
		stack := trace.StackID(1 + rng.Intn(8))
		if l := 1 + rng.Intn(locks); rng.Intn(3) == 0 {
			switch owner[l] {
			case 0:
				owner[l] = th
				rec.Acquire(th, trace.LockID(l), trace.Mutex, stack)
			case th:
				owner[l] = 0
				rec.Release(th, trace.LockID(l), trace.Mutex, stack)
			}
			continue
		}
		kind := trace.Read
		if rng.Intn(3) == 0 {
			kind = trace.Write
		}
		off := uint32(4 * rng.Intn(granules))
		rec.Access(&trace.Access{Thread: th, Block: 1, Addr: trace.Addr(0x1000 + off), Off: off, Size: 4, Kind: kind, Stack: stack})
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return recorded{"random", nil, buf.Bytes()}
}

// TestInlineReadSetsMatchReference checks the inline single-reader read sets
// against the full per-cell read clocks they replaced: over every recorded
// program, 500 random streams and every bus-lock model, both detectors report the same sites in the
// same order with the same details and counts.
func TestInlineReadSetsMatchReference(t *testing.T) {
	traces := racyTraces(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		traces = append(traces, randomTrace(t, rng))
	}
	for _, bus := range []lockset.BusModel{lockset.BusNone, lockset.BusSingleMutex, lockset.BusRWLock} {
		cfg := hybrid.Config{Bus: bus}
		sites := 0
		for _, tr := range traces {
			got, want := report.NewCollector(tr.res, nil), report.NewCollector(tr.res, nil)
			if _, err := tracelog.Replay(bytes.NewReader(tr.log), hybrid.New(cfg, got), hybrid.NewReference(cfg, want)); err != nil {
				t.Fatalf("%s: replay: %v", tr.name, err)
			}
			if !reflect.DeepEqual(got.Keys(), want.Keys()) || !reflect.DeepEqual(got.Sites(), want.Sites()) ||
				got.Occurrences() != want.Occurrences() {
				t.Errorf("%s (bus %s): reports differ\n--- inline ---\n%s--- reference ---\n%s",
					tr.name, bus, got.Format(), want.Format())
			}
			sites += want.Locations()
		}
		if sites == 0 {
			t.Fatalf("bus %s: no trace produced a hybrid warning; the inputs test nothing", bus)
		}
		t.Logf("bus %s: %d traces, %d sites", bus, len(traces), sites)
	}
}
