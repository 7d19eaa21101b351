// Command tracereplay demonstrates offline (post-mortem) analysis (§2.2):
// it records the execution trace of a SIP test case to a binary log, then
// replays the SAME interleaving into all three detector configurations —
// something an on-the-fly tool cannot do, at the §4.5 cost of storing the
// trace.
//
// With -tools the replay runs the registry's one-pass mode instead: every
// named tool — several race detectors and all auxiliary checkers — analyses
// the trace over a SINGLE decode.
//
// Usage:
//
//	tracereplay                     # record T2 in memory, replay 3 configs
//	tracereplay -case T5 -log /tmp/t5.trace
//	tracereplay -tools all
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/cppmodel"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/libc"
	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/sip"
	"repro/internal/sipp"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vm"
)

func main() {
	var (
		caseID  = flag.String("case", "T2", "test case T1..T8")
		seed    = flag.Int64("seed", 1, "scheduler seed")
		logPath = flag.String("log", "", "write the binary trace to this file (default: in memory)")
		tools   = flag.String("tools", "", "replay once through this comma-separated tool set in one decode (e.g. lockset,djit,deadlock; 'all' for every tool) instead of the per-config loop")
	)
	flag.Parse()

	tc, ok := sipp.CaseByID(*caseID)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracereplay: unknown case %q\n", *caseID)
		os.Exit(2)
	}

	// Phase 1: record. Only the recorder is attached — the execution pays
	// the logging cost, not the analysis cost.
	var sinkBuf bytes.Buffer
	var out io.Writer = &sinkBuf
	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracereplay:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(&sinkBuf, f)
	}
	rec := tracelog.NewRecorder(out)
	v := vm.New(vm.Options{Seed: *seed, Quantum: 3})
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
		fmt.Fprintln(os.Stderr, "tracereplay: record:", err)
		os.Exit(1)
	}
	if err := rec.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "tracereplay: flush:", err)
		os.Exit(1)
	}
	fmt.Printf("recorded %s: %d events, %d bytes (%.1f bytes/event)\n\n",
		tc.ID, rec.Events(), sinkBuf.Len(), float64(sinkBuf.Len())/float64(rec.Events()))

	if *tools != "" {
		// One-pass mode: a single decode fans out to every named tool.
		specs, err := core.Options{}.ParseTools(*tools)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracereplay:", err)
			os.Exit(2)
		}
		col, err := replayOnce(specs, v, sinkBuf.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracereplay:", err)
			os.Exit(1)
		}
		byTool := col.LocationsByTool()
		names := make([]string, 0, len(byTool))
		for n := range byTool {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("%-20s %10s\n", "tool", "locations")
		for _, n := range names {
			fmt.Printf("%-20s %10d\n", n, byTool[n])
		}
		fmt.Printf("%-20s %10d\n", "total", col.Locations())
		fmt.Printf("\n%d tool(s) analysed the trace over a SINGLE decode.\n", len(specs))
		return
	}

	// Phase 2: replay the identical interleaving into each configuration.
	fmt.Printf("%-10s %10s\n", "config", "locations")
	for _, det := range harness.PaperConfigs() {
		col := report.NewCollector(v, nil) // resolver from the recording VM
		d := lockset.New(det.Cfg, col)
		if _, err := tracelog.Replay(bytes.NewReader(sinkBuf.Bytes()), d); err != nil {
			fmt.Fprintln(os.Stderr, "tracereplay: replay:", err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %10d\n", det.Name, col.Locations())
	}
	fmt.Println("\nall three configurations analysed the SAME interleaving — the offline")
	fmt.Println("capability the paper notes on-the-fly checkers give up (§2.2).")
}

// replayOnce streams one decode of the log through all specs and returns the
// merged collector.
func replayOnce(specs []trace.ToolSpec, res trace.Resolver, log []byte) (*report.Collector, error) {
	seq, err := engine.NewSequential(engine.Options{Tools: specs, Resolver: res})
	if err != nil {
		return nil, err
	}
	if _, err := seq.ReplayLog(bytes.NewReader(log)); err != nil {
		return nil, err
	}
	return seq.Close()
}
