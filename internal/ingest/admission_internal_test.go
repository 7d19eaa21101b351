package ingest

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestPressureLevel pins the occupancy thresholds and the waiter override.
func TestPressureLevel(t *testing.T) {
	s := &Server{sem: make(chan struct{}, 8)}
	fill := func(n int) {
		for len(s.sem) < n {
			s.sem <- struct{}{}
		}
	}
	if got := s.pressureLevel(); got != pressureNone {
		t.Errorf("empty server pressure = %d, want none", got)
	}
	fill(6) // 3/4 of 8
	if got := s.pressureLevel(); got != pressureLow {
		t.Errorf("6/8 slots pressure = %d, want low", got)
	}
	fill(7) // 7/8
	if got := s.pressureLevel(); got != pressureHigh {
		t.Errorf("7/8 slots pressure = %d, want high", got)
	}
	fill(8)
	if got := s.pressureLevel(); got != pressureFull {
		t.Errorf("8/8 slots pressure = %d, want full", got)
	}
	// A parked waiter is full pressure regardless of occupancy.
	drained := &Server{sem: make(chan struct{}, 8)}
	drained.slotWaiters.Add(1)
	if got := drained.pressureLevel(); got != pressureFull {
		t.Errorf("pressure with a waiter = %d, want full", got)
	}
}

// TestShedSpecs pins the ladder order: whole-stream tools go at low
// pressure, broadcast tools at high, block-routed tools never — and a
// registry that would shed to nothing is kept whole.
func TestShedSpecs(t *testing.T) {
	specs := []trace.ToolSpec{
		{Name: "lockset", Routing: trace.RouteBlock},
		{Name: "deadlock", Routing: trace.RouteBroadcast},
		{Name: "highlevel", Routing: trace.RouteSingle},
	}
	names := func(specs []trace.ToolSpec) string {
		var out []string
		for _, spec := range specs {
			out = append(out, spec.Name)
		}
		return strings.Join(out, ",")
	}

	kept, shed := shedSpecs(specs, pressureNone)
	if names(kept) != "lockset,deadlock,highlevel" || shed != nil {
		t.Errorf("level 0: kept=%s shed=%v, want everything kept", names(kept), shed)
	}
	kept, shed = shedSpecs(specs, pressureLow)
	if names(kept) != "lockset,deadlock" || strings.Join(shed, ",") != "highlevel" {
		t.Errorf("level 1: kept=%s shed=%v, want highlevel shed", names(kept), shed)
	}
	kept, shed = shedSpecs(specs, pressureFull)
	if names(kept) != "lockset" || strings.Join(shed, ",") != "deadlock,highlevel" {
		t.Errorf("level 3: kept=%s shed=%v, want only lockset kept", names(kept), shed)
	}
	onlyAux := []trace.ToolSpec{{Name: "highlevel", Routing: trace.RouteSingle}}
	kept, shed = shedSpecs(onlyAux, pressureFull)
	if names(kept) != "highlevel" || shed != nil {
		t.Errorf("all-would-shed registry: kept=%s shed=%v, want kept whole", names(kept), shed)
	}
}

// TestKeepPctFor pins the sampling schedule over pressure.
func TestKeepPctFor(t *testing.T) {
	for _, tc := range []struct {
		level int
		want  int
	}{
		{pressureNone, 100},
		{pressureLow, 100},
		{pressureHigh, 75},
		{pressureFull, 50},
	} {
		if got := keepPctFor(tc.level); got != tc.want {
			t.Errorf("keepPctFor(%d) = %d, want %d", tc.level, got, tc.want)
		}
	}
}

// TestTokenBucket pins refill arithmetic against an injected clock.
func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(2, 2) // 2 tokens/s, burst 2
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("take %d within burst refused", i+1)
		}
	}
	ok, retry := b.take(now)
	if ok {
		t.Fatal("take beyond burst admitted")
	}
	if retry != 500*time.Millisecond {
		t.Errorf("retry hint = %v, want 500ms (one token at 2/s)", retry)
	}
	if ok, _ := b.take(now.Add(500 * time.Millisecond)); !ok {
		t.Error("take after the hinted refill refused")
	}
	// The hint never degenerates below a millisecond.
	tight := newTokenBucket(1e6, 1)
	tight.take(now)
	if _, retry := tight.take(now); retry < time.Millisecond {
		t.Errorf("retry hint = %v, want >= 1ms", retry)
	}
}

// TestDegradedHeader pins the honesty annotation: absent for a full-coverage
// session (byte-identity depends on it), exact counts otherwise.
func TestDegradedHeader(t *testing.T) {
	if got := degradedHeader(0, nil); got != "" {
		t.Errorf("zero-degradation header = %q, want empty", got)
	}
	if got := degradedHeader(41, nil); got != "== degraded: sampled-out=41 event(s)\n" {
		t.Errorf("sampled-only header = %q", got)
	}
	if got := degradedHeader(0, []string{"highlevel", "deadlock"}); got != "== degraded: tools-shed=highlevel,deadlock\n" {
		t.Errorf("shed-only header = %q", got)
	}
	if got := degradedHeader(7, []string{"highlevel"}); got != "== degraded: sampled-out=7 event(s) tools-shed=highlevel\n" {
		t.Errorf("combined header = %q", got)
	}
}

// TestSnapshotErrorRecorded pins the snapshot-error bugfix: a failed
// incremental snapshot is counted and kept on the session, and the
// "snapshots" query discloses it.
func TestSnapshotErrorRecorded(t *testing.T) {
	sess := &Session{ID: 9, Name: "snapfail"}
	sess.noteSnapshotError(errors.New("quiesce failed"))
	sess.noteSnapshotError(errors.New("quiesce failed again"))
	n, last := sess.SnapshotErrs()
	if n != 2 || last == nil || last.Error() != "quiesce failed again" {
		t.Errorf("SnapshotErrs = (%d, %v), want (2, quiesce failed again)", n, last)
	}
	text := sess.FormatSnapshots()
	if !strings.Contains(text, "(2 failed, last: quiesce failed again)") {
		t.Errorf("snapshots listing hides the failures:\n%s", text)
	}
}
