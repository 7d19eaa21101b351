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

// TestMemcheckSummary pins memcheck's end-of-run error/leak summary in
// Result.Summaries, and its agreement with the detector instance's own
// counters.
func TestMemcheckSummary(t *testing.T) {
	res, err := Run(withTools(t, Options{Seed: 1}, "lockset,memcheck"), summaryGuest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("guest: %v", res.Err)
	}
	if got := res.Summaries["memcheck"]; !reflect.DeepEqual(got, wantMemcheckSummary) {
		t.Errorf("memcheck summary = %v, want %v", got, wantMemcheckSummary)
	}
	d := res.MemcheckDetector
	if d == nil {
		t.Fatal("MemcheckDetector nil")
	}
	if d.Errors() != 3 {
		t.Errorf("Errors = %d, want 3", d.Errors())
	}
	if blocks, bytes := d.Leaks(); blocks != 3 || bytes != 48 {
		t.Errorf("Leaks = (%d, %d), want (3, 48)", blocks, bytes)
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
	res, err := Run(Options{Tools: tools, Seed: 1}, summaryGuest)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Summaries["memcheck"]; !reflect.DeepEqual(got, wantMemcheckSummary) {
		t.Errorf("memcheck summary = %v, want %v", got, wantMemcheckSummary)
	}
	if _, ok := res.Summaries["helgrind-deadlock"]; ok {
		t.Error("deadlock tool unexpectedly has a summary")
	}
}
