package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/cppmodel"
	"repro/internal/harness"
	"repro/internal/libc"
	"repro/internal/scenario"
	"repro/internal/sip"
	"repro/internal/sipp"
	"repro/internal/tracelog"
	"repro/internal/vm"
)

// traceInput is one generated trace: the binary log, the stack/block tables
// a resolving client streams with it, and its event count.
type traceInput struct {
	name   string
	log    []byte
	md     *tracelog.Metadata
	events int64
}

// sipTraces records the eight SIP test cases T1–T8 against the paper's
// buggy server, scheduled by seed.
func sipTraces(seed int64) ([]traceInput, error) {
	var out []traceInput
	for _, tc := range sipp.Cases() {
		var buf bytes.Buffer
		rec := tracelog.NewRecorder(&buf)
		v := vm.New(vm.Options{Seed: seed, Quantum: 3})
		v.AddTool(rec)
		rt := cppmodel.NewRuntime(cppmodel.Options{AnnotateDeletes: true, ForceNew: true})
		err := v.Run(func(main *vm.Thread) {
			lc := libc.New(main)
			srv := sip.NewServer(v, rt, lc, sip.Config{Bugs: sip.PaperBugs()})
			srv.Start(main)
			sink := tc.Drive(main, srv, srv.Config().Domains)
			srv.Stop(main)
			main.Join(sink)
		})
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", tc.ID, err)
		}
		if err := rec.Flush(); err != nil {
			return nil, fmt.Errorf("record %s: %w", tc.ID, err)
		}
		out = append(out, traceInput{name: tc.ID, log: buf.Bytes(), md: scenario.CaptureMetadata(v), events: rec.Events()})
	}
	return out, nil
}

// tableTrace records the §4.5 shared-table workload the committed BENCH
// documents measure, scheduled by seed. It has no races.
func tableTrace(seed int64) ([]traceInput, error) {
	w := harness.PerfWorkload{Threads: 4, Iters: 2000, Slots: 64, Blocks: 64, Seed: seed}
	v, log, err := w.RecordTrace()
	if err != nil {
		return nil, fmt.Errorf("record table: %w", err)
	}
	n, err := scenario.CountEvents(log)
	if err != nil {
		return nil, fmt.Errorf("count table events: %w", err)
	}
	return []traceInput{{name: "table", log: log, md: scenario.CaptureMetadata(v), events: n}}, nil
}

// shuffledOrder returns n passes over indices [0,k), each pass a fresh
// seeded permutation, so every trace appears equally often.
func shuffledOrder(rng *rand.Rand, k, n int) []int {
	out := make([]int, 0, k*n)
	for p := 0; p < n; p++ {
		out = append(out, rng.Perm(k)...)
	}
	return out
}
