package core

import (
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
)

// summaryGuest plants a deterministic memcheck workload: 8 blocks, of which
// 3 leak (24+16+8 = 48 bytes), one is used after free (2 accesses) and one is
// double-freed — 3 dynamic errors in total.
func summaryGuest(t *vm.Thread) {
	var leaked []*vm.Block
	for _, size := range []int{24, 16, 8} {
		leaked = append(leaked, t.Alloc(size, "leak"))
	}
	for _, b := range leaked {
		b.Write(t, 0, 4)
	}

	uaf := t.Alloc(32, "uaf")
	uaf.Write(t, 0, 4)
	uaf.Free(t)
	uaf.Read(t, 0, 4)  // error 1
	uaf.Write(t, 8, 4) // error 2

	dbl := t.Alloc(16, "double")
	dbl.Free(t)
	dbl.Free(t) // error 3

	for i := 0; i < 3; i++ {
		ok := t.Alloc(8, "ok")
		ok.Write(t, 0, 8)
		ok.Free(t)
	}
}

var wantMemcheckSummary = trace.ToolSummary{
	"errors":        3,
	"leaked-blocks": 3,
	"leaked-bytes":  48,
}

// TestMemcheckSummaryParallel is the regression test for the parallel-mode
// memcheck summary: Result.MemcheckDetector is nil whenever Parallel > 1
// (memcheck is sharded per block), and before Result.Summaries existed the
// end-of-run error/leak summary was silently lost. The summary must now be
// identical for every shard count.
func TestMemcheckSummaryParallel(t *testing.T) {
	for _, parallel := range []int{0, 1, 2, 4, 8} {
		res, err := Run(withTools(t, Options{Parallel: parallel, Seed: 1}, "lockset,memcheck"), summaryGuest)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if res.Err != nil {
			t.Fatalf("parallel=%d: guest: %v", parallel, res.Err)
		}
		got := res.Summaries["memcheck"]
		if !reflect.DeepEqual(got, wantMemcheckSummary) {
			t.Errorf("parallel=%d: memcheck summary = %v, want %v", parallel, got, wantMemcheckSummary)
		}
		if parallel > 1 {
			if res.MemcheckDetector != nil {
				t.Errorf("parallel=%d: MemcheckDetector = %v, want nil (sharded)", parallel, res.MemcheckDetector)
			}
			continue
		}
		// Sequentially the single instance is also reachable directly and
		// must agree with its own summary.
		d := res.MemcheckDetector
		if d == nil {
			t.Fatalf("parallel=%d: MemcheckDetector nil", parallel)
		}
		if d.Errors() != 3 {
			t.Errorf("parallel=%d: Errors = %d, want 3", parallel, d.Errors())
		}
		if blocks, bytes := d.Leaks(); blocks != 3 || bytes != 48 {
			t.Errorf("parallel=%d: Leaks = (%d, %d), want (3, 48)", parallel, blocks, bytes)
		}
	}
}

// TestSummariesAllTools checks that the summary surface coexists with the
// full registry and that tools without counters simply do not appear.
func TestSummariesAllTools(t *testing.T) {
	opts := Options{Seed: 1}
	tools, err := opts.ParseTools("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4} {
		res, err := Run(Options{Tools: tools, Parallel: parallel, Seed: 1}, summaryGuest)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		got := res.Summaries["memcheck"]
		if !reflect.DeepEqual(got, wantMemcheckSummary) {
			t.Errorf("parallel=%d: memcheck summary = %v, want %v", parallel, got, wantMemcheckSummary)
		}
		if _, ok := res.Summaries["helgrind-deadlock"]; ok {
			t.Errorf("parallel=%d: deadlock tool unexpectedly has a summary", parallel)
		}
	}
}
