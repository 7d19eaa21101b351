package engine_test

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// BenchmarkPipelineOverhead isolates the engine's own cost from detector
// cost: a no-op sink per shard means everything measured is decode +
// dispatch + channel traffic.
func BenchmarkPipelineOverhead(b *testing.B) {
	const events = 1_200_000
	log := buildSyntheticTrace(b, events)
	b.Run("decode-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tracelog.Replay(bytes.NewReader(log), trace.BaseSink{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
	})
	b.Run("dispatch-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := engine.New(engine.Options{Shards: 4, Tools: []trace.ToolSpec{{Name: "nop", Routing: trace.RouteBlock, Factory: func(trace.Reporter) trace.Sink { return trace.BaseSink{} }}}})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.ReplayLog(bytes.NewReader(log)); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
	})
}
