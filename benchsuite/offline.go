package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// offline is the ready state of an offline workload: the six-tool registry
// and each trace's resolver tables, built the way a live session builds
// them from metadata frames.
type offline struct {
	tools  func() []trace.ToolSpec
	traces []traceInput
	res    []trace.Resolver
	first  engine.Pipeline // the first pipeline, built during set-up
	want   []string        // each trace's sequential report
}

// setupOffline builds the registry, the resolver tables and the first
// pipeline.
func setupOffline(traces []traceInput) (*offline, error) {
	tools, err := core.Options{}.ToolFactory("all")
	if err != nil {
		return nil, err
	}
	o := &offline{tools: tools, traces: traces, res: make([]trace.Resolver, len(traces))}
	for i, tr := range traces {
		o.res[i] = scenario.Resolver(tr.md)
	}
	if o.first, err = o.pipeline(0, 1); err != nil {
		return nil, err
	}
	return o, nil
}

// pipeline builds a fresh six-tool pipeline for trace i: sequential for
// shards <= 1, the sharded engine otherwise.
func (o *offline) pipeline(i, shards int) (engine.Pipeline, error) {
	return engine.NewPipeline(engine.Options{Tools: o.tools(), Resolver: o.res[i], Shards: shards})
}

// analyse replays trace i through pipe and renders the report. With a
// tracer it records the ReplayLog, Close and Format calls as children of
// parent.
func (o *offline) analyse(pipe engine.Pipeline, i int, t *tracer, session int64, parent int) (string, *report.Collector, error) {
	tr := &o.traces[i]
	var rerr, cerr error
	var col *report.Collector
	var text string
	t.timed("engine.replay", session, parent, tr.events, func() { _, rerr = pipe.ReplayLog(bytes.NewReader(tr.log)) })
	t.timed("engine.close", session, parent, 0, func() { col, cerr = pipe.Close() })
	if rerr != nil {
		return "", nil, fmt.Errorf("%s: replay: %w", tr.name, rerr)
	}
	if cerr != nil {
		return "", nil, fmt.Errorf("%s: close: %w", tr.name, cerr)
	}
	t.timed("report.render", session, parent, 0, func() { text = col.Format() })
	return text, col, nil
}

// check computes every trace's reference report and verifies that the
// sequential report is byte-identical to the shards-wide engine's. It
// returns the total number of warning sites.
func (o *offline) check(shards int) (int, error) {
	o.want = make([]string, len(o.traces))
	sites := 0
	for i := range o.traces {
		pipe := o.first
		if i > 0 {
			var err error
			if pipe, err = o.pipeline(i, 1); err != nil {
				return 0, err
			}
		}
		seq, col, err := o.analyse(pipe, i, nil, 0, 0)
		if err != nil {
			return 0, err
		}
		sp, err := o.pipeline(i, shards)
		if err != nil {
			return 0, err
		}
		par, _, err := o.analyse(sp, i, nil, 0, 0)
		if err != nil {
			return 0, err
		}
		if seq != par {
			return 0, fmt.Errorf("%s: sequential report differs from the %d-shard report", o.traces[i].name, shards)
		}
		o.want[i] = seq
		sites += col.Locations()
	}
	return sites, nil
}

// timed replays whole seeded passes over the traces, one report at a time
// on this goroutine, until dur has elapsed. Every report is compared with
// the trace's reference; a mismatch or error is a failed operation.
func (o *offline) timed(rng *rand.Rand, dur time.Duration, t *tracer, session *int64) phase {
	var ph phase
	cpu0, start := cpuTime(), time.Now()
	for time.Since(start) < dur {
		for _, i := range rng.Perm(len(o.traces)) {
			ph.attempted++
			*session++
			pipe, err := o.pipeline(i, 1)
			if err != nil {
				ph.fail(err)
				continue
			}
			t0 := time.Now()
			root := t.add("report", *session, 0, t0, t0, 0) // end fixed below
			text, _, err := o.analyse(pipe, i, t, *session, root)
			t1 := time.Now()
			t.setEnd(root, t1)
			if err == nil && text != o.want[i] {
				err = fmt.Errorf("%s: report differs from the reference", o.traces[i].name)
			}
			if err != nil {
				ph.fail(err)
				continue
			}
			ph.ttr = append(ph.ttr, ms(t1.Sub(t0)))
			ph.events += o.traces[i].events
		}
	}
	ph.wall, ph.cpu = time.Since(start), cpuTime()-cpu0
	return ph
}
