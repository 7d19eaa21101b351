package vectorclock_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sipp"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vectorclock"
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

// TestInlineReadSetsMatchReference checks the inline single-reader read sets
// against the full per-cell read clocks they replaced: over every trace, with
// FirstRaceOnly on and off, both detectors report the same sites in the same
// order with the same details and counts, and the same number of dynamic
// races.
func TestInlineReadSetsMatchReference(t *testing.T) {
	traces := racyTraces(t)
	for _, firstOnly := range []bool{true, false} {
		cfg := vectorclock.DefaultConfig()
		cfg.FirstRaceOnly = firstOnly
		sites := 0
		for _, tr := range traces {
			got, want := report.NewCollector(tr.res, nil), report.NewCollector(tr.res, nil)
			det, ref := vectorclock.New(cfg, got), vectorclock.NewReference(cfg, want)
			if _, err := tracelog.Replay(bytes.NewReader(tr.log), det, ref); err != nil {
				t.Fatalf("%s: replay: %v", tr.name, err)
			}
			if !reflect.DeepEqual(got.Keys(), want.Keys()) || !reflect.DeepEqual(got.Sites(), want.Sites()) ||
				got.Occurrences() != want.Occurrences() {
				t.Errorf("%s (FirstRaceOnly=%v): reports differ\n--- inline ---\n%s--- reference ---\n%s",
					tr.name, firstOnly, got.Format(), want.Format())
			}
			if det.DynamicRaces() != ref.DynamicRaces() {
				t.Errorf("%s (FirstRaceOnly=%v): %d dynamic races, reference %d",
					tr.name, firstOnly, det.DynamicRaces(), ref.DynamicRaces())
			}
			sites += want.Locations()
		}
		if sites == 0 {
			t.Fatalf("FirstRaceOnly=%v: no trace produced a DJIT warning; the inputs test nothing", firstOnly)
		}
		t.Logf("FirstRaceOnly=%v: %d traces, %d sites", firstOnly, len(traces), sites)
	}
}
