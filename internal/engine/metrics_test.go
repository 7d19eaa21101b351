package engine_test

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/lockset"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// TestEngineMetrics pins the engine's self-observability series: the decoded
// event count is exact across snapshot and close boundaries (despite the
// batched hot-path accumulation), batch and quiesce activity is visible, and
// an absorbed tool panic lands on the panics counter.
func TestEngineMetrics(t *testing.T) {
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	const nBlocks = 40
	for b := trace.BlockID(1); b <= nBlocks; b++ {
		rec.Alloc(&trace.Block{ID: b, Base: trace.Addr(0x1000 * uint64(b)), Size: 16, Tag: "t"})
	}
	for b := trace.BlockID(1); b <= nBlocks; b++ {
		rec.Access(&trace.Access{Thread: 1, Seg: 1, Block: b, Size: 4, Kind: trace.Write, Stack: trace.StackID(b)})
	}
	rec.Flush()
	log := buf.Bytes()

	for _, shards := range []int{1, 4} {
		reg := obs.NewRegistry()
		met := engine.NewMetrics(reg)
		pipe, err := engine.NewPipeline(engine.Options{
			Shards:    shards,
			BatchSize: 8, // small batches so several flushes happen
			Tools: []trace.ToolSpec{{
				Name:    "panicky",
				Routing: trace.RouteBlock,
				Factory: func(col trace.Reporter) trace.Sink {
					return &panicSink{col: col, poison: trace.BlockID(3)}
				},
			}},
			Metrics: met,
		})
		if err != nil {
			t.Fatalf("shards=%d: NewPipeline: %v", shards, err)
		}
		events, err := pipe.ReplayLog(bytes.NewReader(log))
		if err != nil {
			t.Fatalf("shards=%d: ReplayLog: %v", shards, err)
		}
		if _, err := pipe.Snapshot(); err != nil {
			t.Fatalf("shards=%d: Snapshot: %v", shards, err)
		}
		// The snapshot boundary must have folded the batched count in full.
		if got := met.EventsDecoded.Value(); got != events {
			t.Errorf("shards=%d: events_decoded after snapshot = %d, want %d", shards, got, events)
		}
		if _, err := pipe.Close(); err == nil {
			t.Fatalf("shards=%d: Close must report the tool panic", shards)
		}
		if got := met.EventsDecoded.Value(); got != events {
			t.Errorf("shards=%d: events_decoded after close = %d, want %d", shards, got, events)
		}
		if got := met.ToolPanics.Value(); got != 1 {
			t.Errorf("shards=%d: tool_panics = %d, want 1", shards, got)
		}
		if got := met.SnapshotQuiesceNs.Count(); got != 1 {
			t.Errorf("shards=%d: quiesce observations = %d, want 1", shards, got)
		}
		if shards > 1 && met.BatchesFlushed.Value() == 0 {
			t.Errorf("shards=%d: no batches counted", shards)
		}
	}
}

// TestEngineMetricsSharedAcrossPipelines pins the aggregation contract: one
// Metrics attached to several pipelines sums their work, the way the ingest
// daemon shares one across every session.
func TestEngineMetricsSharedAcrossPipelines(t *testing.T) {
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	rec.Alloc(&trace.Block{ID: 1, Base: 0x1000, Size: 16, Tag: "t"})
	rec.Access(&trace.Access{Thread: 1, Seg: 1, Block: 1, Size: 4, Kind: trace.Write, Stack: 1})
	rec.Flush()
	log := buf.Bytes()

	reg := obs.NewRegistry()
	met := engine.NewMetrics(reg)
	var total int64
	for i := 0; i < 3; i++ {
		pipe, err := engine.NewPipeline(engine.Options{
			Tools:   []trace.ToolSpec{lockset.Spec(lockset.ConfigHWLC())},
			Metrics: met,
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := pipe.ReplayLog(bytes.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if _, err := pipe.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := met.EventsDecoded.Value(); got != total {
		t.Errorf("events_decoded = %d, want %d across 3 pipelines", got, total)
	}
}

// TestEngineMetricsConformance pins the hard observability requirement:
// attaching a metrics registry must not change a single output byte, for the
// sequential and the sharded pipeline alike.
func TestEngineMetricsConformance(t *testing.T) {
	log, v := recordSIP(t)
	for _, shards := range []int{1, 4} {
		run := func(met *engine.Metrics) string {
			t.Helper()
			pipe, err := engine.NewPipeline(engine.Options{
				Shards:   shards,
				Tools:    []trace.ToolSpec{lockset.Spec(lockset.ConfigHWLC())},
				Resolver: v,
				Metrics:  met,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pipe.ReplayLog(bytes.NewReader(log)); err != nil {
				t.Fatal(err)
			}
			if _, err := pipe.Snapshot(); err != nil {
				t.Fatal(err)
			}
			col, err := pipe.Close()
			if err != nil {
				t.Fatal(err)
			}
			return col.Format()
		}
		plain := run(nil)
		instrumented := run(engine.NewMetrics(obs.NewRegistry()))
		if plain != instrumented {
			t.Errorf("shards=%d: report changed when metrics attached", shards)
		}
		if plain == "" {
			t.Fatalf("shards=%d: empty report; workload is broken", shards)
		}
	}
}
