package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// toolModules names, in registry order, the package of each tool that
// core.Options{}.ToolFactory("all") builds.
var toolModules = []string{"lockset", "vectorclock", "hybrid", "deadlock", "memcheck", "highlevel"}

// probePasses is how many passes over the traces the offline layer probe
// makes.
const probePasses = 5

// offlineProbe replays every trace through each layer's public calls in
// isolation, each call a span under one "layers" root per trace: a bare
// decode loop, the six-tool path, every tool alone (ReplayLog, Close, and a
// Merge over its collector), report.Merge over the six collectors, and the
// sharded engine. It returns the per-tool and merged site counts of one
// pass.
func (o *offline) offlineProbe(t *tracer, shards int, session *int64) (map[string]int, error) {
	sites := make(map[string]int)
	for p := 0; p < probePasses; p++ {
		for i := range o.traces {
			tr := &o.traces[i]
			*session++
			s := *session
			t0 := time.Now()
			root := t.add("layers", s, 0, t0, t0, 0)
			t.timed("tracelog.decode", s, root, tr.events, func() {
				dec := tracelog.NewDecoder(bytes.NewReader(tr.log))
				var ev tracelog.Event
				for dec.Next(&ev) == nil {
				}
			})
			pipe, err := o.pipeline(i, 1)
			if err != nil {
				return nil, err
			}
			text, col, err := o.analyse(pipe, i, t, s, root)
			if err != nil {
				return nil, err
			}
			if text != o.want[i] {
				return nil, fmt.Errorf("%s: layer probe report differs from the reference", tr.name)
			}
			specs := o.tools()
			if len(specs) != len(toolModules) {
				return nil, fmt.Errorf("registry has %d tools, want %d", len(specs), len(toolModules))
			}
			cols := make([]*report.Collector, len(specs))
			for k, spec := range specs {
				one, err := engine.NewSequential(engine.Options{Tools: []trace.ToolSpec{spec}, Resolver: o.res[i]})
				if err != nil {
					return nil, err
				}
				mod := toolModules[k]
				var rerr, cerr error
				t.timed(mod+".replay", s, root, tr.events, func() { _, rerr = one.ReplayLog(bytes.NewReader(tr.log)) })
				t.timed(mod+".close", s, root, 0, func() { cols[k], cerr = one.Close() })
				if rerr != nil || cerr != nil {
					return nil, fmt.Errorf("%s alone on %s: %v %v", mod, tr.name, rerr, cerr)
				}
				t.timed(mod+".merge", s, root, 0, func() { report.Merge(o.res[i], nil, cols[k]) })
				if p == 0 {
					sites[mod] += cols[k].Locations()
				}
			}
			t.timed("report.merge", s, root, 0, func() { report.Merge(o.res[i], nil, cols...) })
			sp, err := o.pipeline(i, shards)
			if err != nil {
				return nil, err
			}
			var rerr, cerr error
			t.timed("engine.sharded.replay", s, root, tr.events, func() { _, rerr = sp.ReplayLog(bytes.NewReader(tr.log)) })
			t.timed("engine.sharded.close", s, root, 0, func() { _, cerr = sp.Close() })
			if rerr != nil || cerr != nil {
				return nil, fmt.Errorf("sharded on %s: %v %v", tr.name, rerr, cerr)
			}
			t.setEnd(root, time.Now())
			if p == 0 {
				sites["report"] += col.Locations()
			}
		}
	}
	return sites, nil
}

// offlineLayers turns the probe's spans into per-layer metrics. Handler
// time is a tool's lone ReplayLog minus the bare decode of the same traces;
// Finish time is its lone Close minus a Merge over its one collector. The
// residual is the six-tool path's time that those parts do not account
// for, as a share of the path.
func (o *offline) offlineLayers(r *result, t *tracer, sites map[string]int) {
	L := t.layers("layers")
	get := func(name string) *layer {
		if l := L[name]; l != nil {
			return l
		}
		return &layer{}
	}
	perEvent := func(ns int64, l *layer) float64 { return float64(ns) / float64(max(l.events, 1)) }
	meanMs := func(ns int64, l *layer) float64 { return float64(ns) / 1e6 / float64(max(l.count, 1)) }

	dec := get("tracelog.decode")
	var bytesTotal, events int64
	for _, tr := range o.traces {
		bytesTotal += int64(len(tr.log))
		events += tr.events
	}
	r.put("tracelog.decode_ns_per_event", "ns", perEvent(dec.selfNs, dec))
	r.put("tracelog.bytes_per_event", "B", float64(bytesTotal)/float64(events))

	replay, closing, render := get("engine.replay"), get("engine.close"), get("report.render")
	r.put("engine.replay_ns_per_event", "ns", perEvent(replay.selfNs, replay))
	r.put("engine.close_ms", "ms", meanMs(closing.selfNs, closing))

	path := replay.selfNs + closing.selfNs + render.selfNs
	share := func(ns int64) string { return fmt.Sprintf("%.1f%%", 100*float64(ns)/float64(max(path, 1))) }
	shares := []string{"decode " + share(dec.selfNs)}
	attributed := dec.selfNs
	for _, mod := range toolModules {
		rep, cl, mg := get(mod+".replay"), get(mod+".close"), get(mod+".merge")
		handler, finish := rep.selfNs-dec.selfNs, cl.selfNs-mg.selfNs
		attributed += handler + finish
		shares = append(shares, mod+" handlers "+share(handler), mod+" finish "+share(finish))
		r.put(mod+".handler_ns_per_event", "ns", perEvent(handler, rep))
		r.put(mod+".finish_ms", "ms", meanMs(finish, cl))
		r.put(mod+".sites", "count", float64(sites[mod]))
	}
	merge := get("report.merge")
	attributed += merge.selfNs + render.selfNs
	var renderBytes int
	for _, w := range o.want {
		renderBytes += len(w)
	}
	r.put("report.merge_ms", "ms", meanMs(merge.selfNs, merge))
	r.put("report.render_ms", "ms", meanMs(render.selfNs, render))
	r.put("report.render_bytes", "B", float64(renderBytes)/float64(len(o.want)))
	r.put("report.sites", "count", float64(sites["report"]))

	shReplay, shClose := get("engine.sharded.replay"), get("engine.sharded.close")
	r.put("engine.sharded.replay_ns_per_event", "ns", perEvent(shReplay.selfNs, shReplay))
	r.put("engine.sharded.close_ms", "ms", meanMs(shClose.selfNs, shClose))

	r.put("engine.residual_share", "ratio", float64(path-attributed)/float64(max(path, 1)))
	shares = append(shares, "merge "+share(merge.selfNs), "render "+share(render.selfNs), "residual "+share(path-attributed))
	r.note("shares of the six-tool path: %s", strings.Join(shares, ", "))
}
