package engine_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// decodeEvents decodes a whole log into retained events for stepwise
// delivery. Segment.In points into a buffer the decoder reuses between
// events (copy-on-retain contract), so retained events get their own copy.
func decodeEvents(t *testing.T, log []byte) []tracelog.Event {
	t.Helper()
	dec := tracelog.NewDecoder(bytes.NewReader(log))
	var out []tracelog.Event
	for {
		var ev tracelog.Event
		err := dec.Next(&ev)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Op == tracelog.OpSegment {
			ev.Segment.In = append([]trace.SegmentEdge(nil), ev.Segment.In...)
		}
		out = append(out, ev)
	}
}

// TestSnapshotDeterminism is the snapshot lifecycle's acceptance invariant:
// taking mid-stream snapshots at N arbitrary points never changes the final
// report — byte-identical to a snapshot-free run — for the full six-tool
// registry, and every snapshot manifest is a prefix-consistent subset of the
// final manifest.
func TestSnapshotDeterminism(t *testing.T) {
	for _, genSeed := range []int64{1, 4, 6} {
		s := scenario.Generate(scenario.GenConfig{Seed: genSeed})
		v, log, err := scenario.Record(s, true, 1)
		if err != nil {
			t.Fatal(err)
		}
		events := decodeEvents(t, log)
		n := len(events)
		snapshotAt := map[int]bool{1: true, n / 5: true, n / 3: true, n / 2: true, n - 1: true}
		name := fmt.Sprintf("seed%d", genSeed)

		// Snapshot-free baseline.
		base, err := engine.NewSequential(engine.Options{Tools: scenario.AllTools(), Resolver: v})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := base.ReplayLog(bytes.NewReader(log)); err != nil {
			t.Fatalf("%s: baseline replay: %v", name, err)
		}
		baseCol, err := base.Close()
		if err != nil {
			t.Fatalf("%s: baseline close: %v", name, err)
		}
		want, wantManifest := baseCol.Format(), baseCol.Manifest()
		if baseCol.Locations() == 0 {
			t.Fatalf("%s: baseline found no warnings; the scenario is too tame for this test", name)
		}

		// Same stream with interleaved snapshots.
		pipe, err := engine.NewSequential(engine.Options{Tools: scenario.AllTools(), Resolver: v})
		if err != nil {
			t.Fatal(err)
		}
		var manifests []string
		for i := range events {
			events[i].Deliver(pipe)
			if snapshotAt[i+1] {
				snap, err := pipe.Snapshot()
				if err != nil {
					t.Fatalf("%s: snapshot at event %d: %v", name, i+1, err)
				}
				manifests = append(manifests, snap.Manifest())
			}
		}
		col, err := pipe.Close()
		if err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if got := col.Format(); got != want {
			t.Errorf("%s: final report differs after %d mid-stream snapshots:\n--- with snapshots ---\n%s--- baseline ---\n%s",
				name, len(manifests), got, want)
		}
		for i, m := range manifests {
			if err := report.PrefixConsistent(m, wantManifest); err != nil {
				t.Errorf("%s: snapshot %d not prefix-consistent: %v", name, i+1, err)
			}
		}
		// The last snapshot (one event before the end) must have seen at
		// least part of the stream's findings — an all-empty snapshot set
		// would make this test vacuous.
		if manifests[len(manifests)-1] == "" && wantManifest != "" {
			// Not an error per se (the final event could carry every first
			// warning), but with these scenarios it means the snapshot
			// points are wrong.
			t.Errorf("%s: last snapshot empty while final has %d site(s)", name, baseCol.Locations())
		}
	}
}

// TestSnapshotContracts pins the error surface: snapshots are refused after
// Close and after a mid-stream failure, an early snapshot of an untouched
// pipeline is empty, and repeated snapshots at one point agree.
func TestSnapshotContracts(t *testing.T) {
	s := scenario.Generate(scenario.GenConfig{Seed: 2})
	_, log, err := scenario.Record(s, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := engine.NewSequential(engine.Options{Tools: scenario.AllTools()})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := pipe.Snapshot()
	if err != nil {
		t.Fatalf("snapshot of idle pipeline: %v", err)
	}
	if snap.Locations() != 0 {
		t.Errorf("idle snapshot has %d sites", snap.Locations())
	}
	if _, err := pipe.ReplayLog(bytes.NewReader(log)); err != nil {
		t.Fatal(err)
	}
	a, err := pipe.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipe.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Error("back-to-back snapshots differ")
	}
	if _, err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Snapshot(); err == nil {
		t.Error("Snapshot after Close succeeded")
	}

	// A truncated stream marks the run failed: no snapshot either.
	torn, err := engine.NewSequential(engine.Options{Tools: scenario.AllTools()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.ReplayLog(bytes.NewReader(log[:len(log)/2])); err == nil {
		t.Fatal("truncated replay succeeded")
	}
	if _, err := torn.Snapshot(); err == nil {
		t.Error("Snapshot of a failed stream succeeded")
	}
	torn.Close()
}

// TestSnapshotBackToBack: snapshots taken one event apart, ten thousand
// times, each succeed, and the pipeline still closes cleanly after them.
func TestSnapshotBackToBack(t *testing.T) {
	pipe, err := engine.NewSequential(engine.Options{Tools: []trace.ToolSpec{
		{Name: "nop", Routing: trace.RouteBlock, Factory: func(trace.Reporter) trace.Sink { return nopTool{} }},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		pipe.Access(&trace.Access{Thread: 1, Block: trace.BlockID(i), Size: 4})
		if _, err := pipe.Snapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	if _, err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
}
