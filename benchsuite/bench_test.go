package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics asserts r carries exactly the named metrics, each with its
// declared unit.
func checkMetrics(t *testing.T, r *result, want []metricSpec) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, want %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestShortRunsEmitEveryMetric runs every workload briefly, untraced and
// traced, and checks each emits every metric BENCHMARK.json names, with its
// unit, and that every report was correct. fleet is not in BENCHMARK.json
// (see RECORD.md) but is run the same way.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	b := loadBenchmark(t)
	workloads := []string{"fleet"}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 2, dur: time.Second, traced: traced, nproc: 2, dir: t.TempDir()}
			r, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%q", w, traced, r.Correct, r.Attempted, r.Failed, r.notes)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			checkMetrics(t, r, want)
		}
	}
}

// TestRecordCoversEveryLayerMetric checks the benchmark record maps every
// per-layer metric to the end-to-end metrics it should move.
func TestRecordCoversEveryLayerMetric(t *testing.T) {
	data, err := os.ReadFile("RECORD.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range loadBenchmark(t).PerLayer {
		if !strings.Contains(string(data), "`"+m.Name+"`") {
			t.Errorf("RECORD.md does not mention %s", m.Name)
		}
	}
}

// TestAlteredReportIsFailed alters one trace's expected report and checks
// that every offline replay and every fleet session of that trace counts as
// a failed operation, and no other does.
func TestAlteredReportIsFailed(t *testing.T) {
	traces, err := sipTraces(3)
	if err != nil {
		t.Fatal(err)
	}
	o, err := setupOffline(traces)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.check(2); err != nil {
		t.Fatal(err)
	}
	o.want[0] += "altered\n"
	perTrace := func(attempted int64) int64 { return attempted / int64(len(traces)) }

	var session int64
	ph := o.timed(rand.New(rand.NewSource(1)), 300*time.Millisecond, nil, &session)
	if ph.attempted == 0 || ph.failed != perTrace(ph.attempted) {
		t.Errorf("offline: %d of %d replays failed, want one pass's share %d", ph.failed, ph.attempted, perTrace(ph.attempted))
	}

	f, err := startFleet(t.TempDir(), o.tools, fleetBackends)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	n := 2 * len(traces)
	fp := openLoop(rand.New(rand.NewSource(1)), f.rspec, traces, o.want, n, 500*time.Millisecond, nil, &session)
	if fp.attempted != int64(n) || fp.failed != 2 {
		t.Errorf("fleet: %d of %d sessions failed, want 2 of %d", fp.failed, fp.attempted, n)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 1, 0, at(0), at(100), 0)
	tr.add("a", 1, root, at(10), at(40), 0)
	tr.add("b", 1, root, at(30), at(60), 0) // overlaps a
	tr.computeSelf()
	if got := tr.spans[0].SelfNs; got != int64(50*time.Millisecond) {
		t.Errorf("root self time %v, want 50ms", time.Duration(got))
	}
	if got := tr.layers("root")["a"].selfNs; got != int64(30*time.Millisecond) {
		t.Errorf("leaf self time %v, want 30ms", time.Duration(got))
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20, 50}, {50, 80}, {100, 90}, {999, 98}, {1000, 99}, {20000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}
