package scenario

import (
	"bytes"
	"testing"
)

// TestGenerateDeterministic: equal seeds produce equal scenarios and equal
// recorded event streams; different seeds produce different programs.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := Generate(GenConfig{Seed: seed})
		b := Generate(GenConfig{Seed: seed})
		if a.Workers() != b.Workers() || a.Resources() != b.Resources() || len(a.Bugs) != len(b.Bugs) {
			t.Fatalf("seed %d: structure differs between generations", seed)
		}
		for variant, buggy := range map[string]bool{"buggy": true, "control": false} {
			_, la, err := Record(a, buggy, 1)
			if err != nil {
				t.Fatalf("seed %d %s: record: %v", seed, variant, err)
			}
			_, lb, err := Record(b, buggy, 1)
			if err != nil {
				t.Fatalf("seed %d %s: record: %v", seed, variant, err)
			}
			if !bytes.Equal(la, lb) {
				t.Fatalf("seed %d %s: recorded streams differ between identical scenarios", seed, variant)
			}
		}
	}
}

// TestForcedKindCoverage: any 7 consecutive derived-seed scenarios cover the
// whole catalog.
func TestForcedKindCoverage(t *testing.T) {
	seen := make(map[BugKind]bool)
	for seed := int64(1); seed <= 7; seed++ {
		s := Generate(GenConfig{Seed: seed})
		if len(s.Bugs) == 0 {
			t.Fatalf("seed %d: no bugs planted", seed)
		}
		for _, b := range s.Bugs {
			seen[b.Kind] = true
		}
	}
	for _, k := range Kinds() {
		if !seen[k] {
			t.Errorf("catalog kind %s not planted by seeds 1..7", k.Family())
		}
	}
}

// TestExplicitKinds: an explicit kind list is planted verbatim (deduplicated)
// and each bug knows its expectations.
func TestExplicitKinds(t *testing.T) {
	s := Generate(GenConfig{Seed: 42, Kinds: []BugKind{BugRaceWW, BugLockOrder, BugRaceWW}})
	if len(s.Bugs) != 2 {
		t.Fatalf("got %d bugs, want 2 (duplicate deduplicated)", len(s.Bugs))
	}
	if s.Bugs[0].Kind != BugRaceWW || s.Bugs[1].Kind != BugLockOrder {
		t.Fatalf("unexpected kinds: %v", s.Families())
	}
	for _, b := range s.Bugs {
		if len(b.Expected()) == 0 {
			t.Errorf("bug %s has no expectations", b.Tag)
		}
	}
}

// TestFamilyRoundTrip: Family and KindByFamily are inverses.
func TestFamilyRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, ok := KindByFamily(k.Family())
		if !ok || got != k {
			t.Errorf("KindByFamily(%q) = %v, %v; want %v, true", k.Family(), got, ok, k)
		}
	}
	if _, ok := KindByFamily("no-such-family"); ok {
		t.Error("KindByFamily accepted an unknown family")
	}
}

// TestControlRunsClean: the control variant of every catalog bug, planted
// alone, executes without guest errors and with zero warnings.
func TestControlRunsClean(t *testing.T) {
	for _, k := range Kinds() {
		s := Generate(GenConfig{Seed: 99, Kinds: []BugKind{k}})
		res, err := RunLive(s, false, 1)
		if err != nil {
			t.Fatalf("%s control: %v", k.Family(), err)
		}
		if fails := CheckControl(res.Collector); len(fails) > 0 {
			t.Errorf("%s control: %v", k.Family(), fails)
		}
	}
}

// TestBuggySingleKind: every catalog bug, planted alone, is reported by its
// expected tools and invisible to its absent-listed tools.
func TestBuggySingleKind(t *testing.T) {
	for _, k := range Kinds() {
		s := Generate(GenConfig{Seed: 99, Kinds: []BugKind{k}})
		res, err := RunLive(s, true, 1)
		if err != nil {
			t.Fatalf("%s buggy: %v", k.Family(), err)
		}
		if fails := CheckBuggy(res.Collector, res.VM, s); len(fails) > 0 {
			t.Errorf("%s buggy:\n  %v\nreport:\n%s", k.Family(), fails, res.Report())
		}
	}
}

// TestScheduleRobustness backs the catalog's central claim: every bug
// construction is schedule-independent, so its expected tools report it (and
// the control stays clean) under EVERY scheduler seed, not just the matrix's
// fixed ones. 25 seeds per kind, sequential pipeline only (shape equivalence
// is TestConformanceMatrix's job).
func TestScheduleRobustness(t *testing.T) {
	const seeds = 25
	for _, k := range Kinds() {
		s := Generate(GenConfig{Seed: 7, Kinds: []BugKind{k}})
		for sched := int64(1); sched <= seeds; sched++ {
			res, err := RunLive(s, true, sched)
			if err != nil {
				t.Fatalf("%s sched %d buggy: %v", k.Family(), sched, err)
			}
			if fails := CheckBuggy(res.Collector, res.VM, s); len(fails) > 0 {
				t.Errorf("%s sched %d buggy: %v", k.Family(), sched, fails)
			}
			ctl, err := RunLive(s, false, sched)
			if err != nil {
				t.Fatalf("%s sched %d control: %v", k.Family(), sched, err)
			}
			if fails := CheckControl(ctl.Collector); len(fails) > 0 {
				t.Errorf("%s sched %d control: %v", k.Family(), sched, fails)
			}
		}
	}
}
