package report

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// fakeResolver implements trace.Resolver for tests.
type fakeResolver struct {
	stacks map[trace.StackID][]trace.Frame
	blocks map[trace.BlockID]*trace.Block
}

func (f *fakeResolver) Stack(id trace.StackID) []trace.Frame { return f.stacks[id] }
func (f *fakeResolver) BlockInfo(id trace.BlockID) *trace.Block {
	return f.blocks[id]
}

func newResolver() *fakeResolver {
	return &fakeResolver{
		stacks: map[trace.StackID][]trace.Frame{
			1: {{Fn: "main", File: "main.cpp", Line: 10}, {Fn: "worker", File: "w.cpp", Line: 20}},
			2: {{Fn: "main", File: "main.cpp", Line: 11}},
		},
		blocks: map[trace.BlockID]*trace.Block{
			7: {ID: 7, Base: 0x1000, Size: 24, Tag: "string-rep", Thread: 1, Stack: 2},
		},
	}
}

func TestDedupBySite(t *testing.T) {
	c := NewCollector(newResolver(), nil)
	w := Warning{Tool: "helgrind", Kind: KindRace, Stack: 1, Addr: 0x1000, Block: 7}
	if !c.Add(w) {
		t.Error("first occurrence should be a new site")
	}
	if c.Add(w) {
		t.Error("second occurrence should fold")
	}
	w2 := w
	w2.Stack = 2
	if !c.Add(w2) {
		t.Error("different stack should be a new site")
	}
	if c.Locations() != 2 {
		t.Errorf("locations = %d, want 2", c.Locations())
	}
	if c.Occurrences() != 3 {
		t.Errorf("occurrences = %d, want 3", c.Occurrences())
	}
	if c.Sites()[0].Count != 2 {
		t.Errorf("site count = %d, want 2", c.Sites()[0].Count)
	}
}

func TestKindsSeparateSites(t *testing.T) {
	c := NewCollector(newResolver(), nil)
	c.Add(Warning{Tool: "x", Kind: KindRace, Stack: 1})
	c.Add(Warning{Tool: "x", Kind: KindUseAfterFree, Stack: 1})
	if c.Locations() != 2 {
		t.Errorf("locations = %d, want 2 (different kinds)", c.Locations())
	}
	byKind := c.CountByKind()
	if byKind[KindRace] != 1 || byKind[KindUseAfterFree] != 1 {
		t.Errorf("byKind = %v", byKind)
	}
}

func TestFormatHelgrindStyle(t *testing.T) {
	c := NewCollector(newResolver(), nil)
	c.Add(Warning{
		Tool: "helgrind", Kind: KindRace, Thread: 2,
		Addr: 0x1008, Block: 7, Off: 8, Size: 4,
		Access: trace.Write, Stack: 1, State: "shared RO, no locks",
	})
	out := c.Format()
	for _, want := range []string{
		"Possible data race write variable at 0x1008",
		"at worker (w.cpp:20)",
		"by main (main.cpp:10)",
		"8 bytes inside a block of size 24 (string-rep) alloc'd by thread 1",
		"Previous state: shared RO, no locks",
		"1 distinct location(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}

type muteAll struct{}

func (muteAll) Suppressed(string, []trace.Frame) bool { return true }

func TestSuppressorApplies(t *testing.T) {
	c := NewCollector(newResolver(), muteAll{})
	if c.Add(Warning{Tool: "x", Kind: KindRace, Stack: 1}) {
		t.Error("suppressed warning reported as new site")
	}
	if c.Locations() != 0 || c.SuppressedSites() != 1 {
		t.Errorf("locations=%d suppressed=%d, want 0/1", c.Locations(), c.SuppressedSites())
	}
}

func TestSummary(t *testing.T) {
	c := NewCollector(newResolver(), nil)
	if c.Summary() != "no warnings" {
		t.Errorf("empty summary = %q", c.Summary())
	}
	c.Add(Warning{Tool: "x", Kind: KindRace, Stack: 1})
	if !strings.Contains(c.Summary(), "possible data race: 1") {
		t.Errorf("summary = %q", c.Summary())
	}
}

func TestFormatHighLevelWarning(t *testing.T) {
	c := NewCollector(newResolver(), nil)
	c.Add(Warning{
		Tool: "highlevel", Kind: KindHighLevel,
		Stack: 1, PrevStack: 2,
		State: "lock L1: a view of 2 variable(s) is split inconsistently by another thread",
	})
	out := c.Format()
	for _, want := range []string{
		"High-level data race",
		"Conflicts with a previous access",
		"at main (main.cpp:11)", // the PrevStack frames
		"split inconsistently",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("high-level warning missing %q:\n%s", want, out)
		}
	}
}

func TestKindCategories(t *testing.T) {
	want := map[Kind]string{
		KindRace:         "Race",
		KindDeadlock:     "Deadlock",
		KindUseAfterFree: "UseAfterFree",
		KindInvalidFree:  "InvalidFree",
		KindHighLevel:    "HighLevelRace",
	}
	for k, cat := range want {
		if k.Category() != cat {
			t.Errorf("Category(%v) = %q, want %q", k, k.Category(), cat)
		}
	}
}

// TestCompactTail pins the bounded-fold compaction primitive: the kept sites
// are a prefix of first-seen order, the discarded tail is tallied exactly,
// the occurrence total stays consistent, and the compacted manifest remains
// a prefix-consistent subset of the original.
func TestCompactTail(t *testing.T) {
	c := NewCollector(newResolver(), nil)
	for i := 1; i <= 5; i++ {
		w := Warning{Tool: "x", Kind: KindRace, Stack: trace.StackID(i)}
		c.Add(w)
		if i == 1 {
			c.Add(w) // the first site occurs twice
		}
	}
	before := c.Manifest()
	if n, occ := c.CompactTail(0); n != 0 || occ != 0 {
		t.Errorf("CompactTail(0) = (%d, %d), want no-op", n, occ)
	}
	sites, occ := c.CompactTail(2)
	if sites != 3 || occ != 3 {
		t.Errorf("CompactTail(2) = (%d sites, %d occurrences), want (3, 3)", sites, occ)
	}
	if c.Locations() != 2 || c.Occurrences() != 3 {
		t.Errorf("after compaction: %d locations, %d occurrences, want 2 and 3",
			c.Locations(), c.Occurrences())
	}
	kept := c.Sites()
	if len(kept) != 2 || kept[0].Stack != 1 || kept[1].Stack != 2 {
		t.Error("kept sites are not the first-seen prefix")
	}
	if err := PrefixConsistent(c.Manifest(), before); err != nil {
		t.Errorf("compacted manifest not a prefix-consistent subset of the original: %v", err)
	}
	if n, occ := c.CompactTail(2); n != 0 || occ != 0 {
		t.Errorf("second CompactTail(2) = (%d, %d), want no-op", n, occ)
	}
	// Survivors keep folding new occurrences.
	if c.Add(Warning{Tool: "x", Kind: KindRace, Stack: 1}) {
		t.Error("occurrence at a kept site opened a new site after compaction")
	}
}

// countingSuppressor suppresses every warning and counts its decisions.
type countingSuppressor struct{ calls int }

func (s *countingSuppressor) Suppressed(string, []trace.Frame) bool { s.calls++; return true }

func TestSuppressedRepeatsFold(t *testing.T) {
	sup := &countingSuppressor{}
	c := NewCollector(newResolver(), sup)
	for i := 0; i < 3; i++ {
		c.Add(Warning{Tool: "x", Kind: KindRace, Stack: 1, State: "s"})
	}
	if !c.Fold("x", KindRace, 1) {
		t.Error("Fold did not find the suppressed site")
	}
	if c.Fold("x", KindRace, 2) || c.Fold("y", KindRace, 1) {
		t.Error("Fold found a site that was never added")
	}
	if sup.calls != 1 {
		t.Errorf("suppressor consulted %d times for one site, want 1", sup.calls)
	}
	if c.Locations() != 0 || c.SuppressedSites() != 4 || c.Occurrences() != 0 {
		t.Errorf("locations=%d suppressed=%d occurrences=%d, want 0/4/0",
			c.Locations(), c.SuppressedSites(), c.Occurrences())
	}
	cl := c.Clone()
	cl.Add(Warning{Tool: "x", Kind: KindRace, Stack: 1})
	if sup.calls != 2 || cl.SuppressedSites() != 5 || c.SuppressedSites() != 4 {
		t.Errorf("clone: calls=%d suppressed=%d (original %d), want 2/5/4", sup.calls, cl.SuppressedSites(), c.SuppressedSites())
	}
}

// TestZeroAllocRepeatOccurrence pins the fold of a repeat occurrence: once
// a site exists, recorded or suppressed, counting another occurrence there
// — through Fold, or through Add with a fully built warning — allocates
// nothing.
func TestZeroAllocRepeatOccurrence(t *testing.T) {
	rec := NewCollector(newResolver(), nil)
	sup := NewCollector(newResolver(), muteAll{})
	w := Warning{Tool: "x", Kind: KindRace, Stack: 1, State: "shared modified, no locks"}
	for _, c := range []*Collector{rec, sup} {
		c.Add(w)
		for name, fold := range map[string]func(){
			"Fold": func() { c.Fold("x", KindRace, 1) },
			"Add":  func() { c.Add(w) },
		} {
			if allocs := testing.AllocsPerRun(100, fold); allocs != 0 {
				t.Errorf("%s of a repeat (suppressed=%v) allocated %.1f per call, want 0",
					name, c == sup, allocs)
			}
		}
	}
	if rec.Sites()[0].Count != 203 || sup.SuppressedSites() != 203 {
		t.Errorf("count=%d suppressed=%d, want 203 each", rec.Sites()[0].Count, sup.SuppressedSites())
	}
}
