// Package report collects, deduplicates, formats and classifies the warnings
// produced by the analysis tools. It corresponds to the log-file output and
// "Analysis" step of the paper's debugging process (§3.2, Fig. 3).
//
// Helgrind's headline metric — the numbers in Fig. 5 and Fig. 6 — is the
// count of distinct *reported locations*: warnings are deduplicated by their
// call-stack signature, not counted per dynamic occurrence. The Collector
// implements exactly that.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Kind classifies a warning. The type and its values live in internal/trace
// (shared with the tool-registry machinery); these aliases keep report the
// canonical vocabulary for everything that formats or classifies warnings.
type Kind = trace.Kind

// Warning kinds.
const (
	KindRace         = trace.KindRace
	KindDeadlock     = trace.KindDeadlock
	KindUseAfterFree = trace.KindUseAfterFree
	KindInvalidFree  = trace.KindInvalidFree
	KindHighLevel    = trace.KindHighLevel
)

// Warning is a single tool finding; see trace.Warning for the field
// contract. The warning's stack — digested to a content-derived LocKey —
// identifies the reporting site and, together with Kind and Tool, forms the
// deduplication signature (see sitekey.go).
type Warning = trace.Warning

// Suppressor decides whether a warning should be suppressed given its
// resolved stack. internal/suppress implements it.
type Suppressor interface {
	Suppressed(kind string, frames []trace.Frame) bool
}

// Collector accumulates warnings with per-site deduplication.
type Collector struct {
	res        trace.Resolver
	sup        Suppressor
	seq        func() uint64
	sites      map[SiteKey]*Warning
	order      []SiteKey
	locs       map[trace.StackID]LocKey
	quiet      map[SiteKey]struct{} // sites the suppressor matched
	suppressed int
	total      int
}

// NewCollector creates a collector. res resolves stacks and blocks for
// formatting and suppression matching; sup may be nil. sup must decide from
// its arguments alone: the collector asks it once per site and folds every
// later occurrence at a suppressed site without asking again.
func NewCollector(res trace.Resolver, sup Suppressor) *Collector {
	return &Collector{
		res:   res,
		sup:   sup,
		sites: make(map[SiteKey]*Warning),
	}
}

// SetSequencer installs a callback returning the current global event
// sequence number. When set, every new site is stamped with the sequence of
// its first occurrence (Warning.Seq), which is what lets Merge reconstruct
// the single-pass first-seen order from per-tool collectors.
func (c *Collector) SetSequencer(fn func() uint64) { c.seq = fn }

// Add records a warning occurrence, implementing trace.Reporter. The first
// occurrence at a site retains its details; later ones only bump the count.
// Add reports whether the warning was a new site (neither folded nor
// suppressed). Only a new site copies w to the heap.
func (c *Collector) Add(w Warning) bool {
	key := SiteKey{Tool: w.Tool, Kind: w.Kind, Loc: c.locKey(w.Stack)}
	if c.fold(key) {
		return false
	}
	c.total++
	if c.seq != nil {
		w.Seq = c.seq()
	}
	if c.sup != nil && c.res != nil {
		if c.sup.Suppressed(w.Kind.Category(), c.res.Stack(w.Stack)) {
			// Every later occurrence of the key gets the same decision:
			// equal resolved digests mean equal frames, and a raw digest
			// names one stack, whose frames a resolver only ever adds.
			if c.quiet == nil {
				c.quiet = make(map[SiteKey]struct{})
			}
			c.quiet[key] = struct{}{}
			c.suppressed++
			return false
		}
	}
	site := new(Warning)
	*site = w
	site.Count = 1
	c.sites[key] = site
	c.order = append(c.order, key)
	return true
}

// Fold implements trace.Reporter: it counts one more occurrence at an
// existing recorded or suppressed site, exactly as Add would for a repeat,
// and reports whether the site existed. Folding allocates nothing.
func (c *Collector) Fold(tool string, kind Kind, stack trace.StackID) bool {
	return c.fold(SiteKey{Tool: tool, Kind: kind, Loc: c.locKey(stack)})
}

func (c *Collector) fold(key SiteKey) bool {
	if prev, ok := c.sites[key]; ok {
		prev.Count++
		c.total++
		return true
	}
	if _, ok := c.quiet[key]; ok {
		c.suppressed++
		c.total++
		return true
	}
	return false
}

var _ trace.Reporter = (*Collector)(nil)

// Clone returns a deep, independent point-in-time copy of the collector:
// same sites, order, counts and totals, sharing no mutable state with the
// original. Warnings added to either side afterwards are invisible to the
// other. The clone carries no sequencer — it is a frozen checkpoint meant for
// formatting and merging, not for further collection on a live stream — and
// no memo of suppressed sites, which Add rebuilds with the same decisions.
func (c *Collector) Clone() *Collector {
	out := &Collector{
		res:        c.res,
		sup:        c.sup,
		sites:      make(map[SiteKey]*Warning, len(c.sites)),
		order:      append([]SiteKey(nil), c.order...),
		suppressed: c.suppressed,
		total:      c.total,
	}
	for k, w := range c.sites {
		cp := *w
		out.sites[k] = &cp
	}
	if len(c.locs) > 0 {
		out.locs = make(map[trace.StackID]LocKey, len(c.locs))
		for id, lk := range c.locs {
			out.locs[id] = lk
		}
	}
	return out
}

// SnapshotReport implements trace.Snapshotter: the capability the analysis
// engine's snapshot lifecycle requires of every instance collector.
func (c *Collector) SnapshotReport() trace.Reporter { return c.Clone() }

var _ trace.Snapshotter = (*Collector)(nil)

// CompactTail bounds the collector to its first max sites in order,
// discarding the tail. It returns how many sites were discarded and how many
// dynamic occurrences they carried; the discarded occurrences leave the
// Occurrences total too, so a compacted collector stays internally
// consistent and the caller can disclose exactly what was dropped. The
// retained set is a prefix of the site order, so prefix-consistency
// reasoning over merged collectors carries over. A max <= 0 or >= Locations
// is a no-op.
//
// This exists for the ingest retention fold: a month-long daemon folding
// every terminal session into one merged collector needs a bound on distinct
// sites, and an explicit tally of what the bound cost beats a silently
// shrinking report.
func (c *Collector) CompactTail(max int) (sites, occurrences int) {
	if max <= 0 || len(c.order) <= max {
		return 0, 0
	}
	tail := c.order[max:]
	for _, k := range tail {
		occurrences += c.sites[k].Count
		delete(c.sites, k)
	}
	sites = len(tail)
	c.order = c.order[:max:max]
	c.total -= occurrences
	return sites, occurrences
}

// Sites returns the distinct warning sites in first-seen order.
func (c *Collector) Sites() []*Warning {
	out := make([]*Warning, 0, len(c.order))
	for _, k := range c.order {
		out = append(out, c.sites[k])
	}
	return out
}

// Locations returns the number of distinct reported locations — the Fig. 5/6
// metric.
func (c *Collector) Locations() int { return len(c.order) }

// Occurrences returns the total number of dynamic warnings observed,
// including folded duplicates but excluding suppressed sites.
func (c *Collector) Occurrences() int { return c.total - c.suppressed }

// SuppressedSites returns the number of sites dropped by suppressions.
func (c *Collector) SuppressedSites() int { return c.suppressed }

// LocationsByTool returns the number of distinct sites per tool report name
// — the per-tool breakdown of Locations for multi-tool runs.
func (c *Collector) LocationsByTool() map[string]int {
	m := make(map[string]int)
	for _, w := range c.Sites() {
		m[w.Tool]++
	}
	return m
}

// CountByKind returns the number of distinct sites per warning kind.
func (c *Collector) CountByKind() map[Kind]int {
	m := make(map[Kind]int)
	for _, k := range c.order {
		m[k.Kind]++
	}
	return m
}

// Keys returns the site keys in first-seen order, parallel to Sites. The
// keys are the cross-process identity of each site — equal keys from
// different sessions denote the same bug.
func (c *Collector) Keys() []SiteKey {
	return append([]SiteKey(nil), c.order...)
}

// Format renders all warning sites in a Helgrind-like textual format.
func (c *Collector) Format() string {
	var b strings.Builder
	for _, w := range c.Sites() {
		b.WriteString(FormatWarning(w, c.res))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "== %d distinct location(s), %d occurrence(s), %d suppressed site(s)\n",
		c.Locations(), c.Occurrences(), c.suppressed)
	return b.String()
}

// FormatWarning renders one warning in a Helgrind-like format (cf. Fig. 9 of
// the paper).
func FormatWarning(w *Warning, res trace.Resolver) string {
	var b strings.Builder
	switch w.Kind {
	case KindRace:
		fmt.Fprintf(&b, "==%s== Possible data race %s variable at 0x%X\n", w.Tool, w.Access, w.Addr)
	case KindDeadlock:
		fmt.Fprintf(&b, "==%s== Lock order violation involving address 0x%X\n", w.Tool, w.Addr)
	case KindUseAfterFree:
		fmt.Fprintf(&b, "==%s== Invalid %s of size %d at 0x%X (freed block)\n", w.Tool, w.Access, w.Size, w.Addr)
	case KindInvalidFree:
		fmt.Fprintf(&b, "==%s== Invalid free at 0x%X\n", w.Tool, w.Addr)
	case KindHighLevel:
		fmt.Fprintf(&b, "==%s== High-level data race (inconsistent lock granularity)\n", w.Tool)
	}
	writeStack(&b, w.Stack, res, "   ")
	if res != nil {
		if blk := res.BlockInfo(w.Block); blk != nil {
			fmt.Fprintf(&b, "==%s== Address 0x%X is %d bytes inside a block of size %d (%s) alloc'd by thread %d\n",
				w.Tool, w.Addr, w.Off, blk.Size, blk.Tag, blk.Thread)
			writeStack(&b, blk.Stack, res, "   ")
		}
	}
	if w.PrevStack != trace.NoStack {
		fmt.Fprintf(&b, "==%s== Conflicts with a previous access\n", w.Tool)
		writeStack(&b, w.PrevStack, res, "   ")
	}
	if w.State != "" {
		fmt.Fprintf(&b, "==%s== Previous state: %s\n", w.Tool, w.State)
	}
	if w.Count > 1 {
		fmt.Fprintf(&b, "==%s== (%d occurrences at this site)\n", w.Tool, w.Count)
	}
	return b.String()
}

func writeStack(b *strings.Builder, id trace.StackID, res trace.Resolver, indent string) {
	if res == nil || id == trace.NoStack {
		return
	}
	frames := res.Stack(id)
	for i := len(frames) - 1; i >= 0; i-- { // innermost first, like Helgrind
		f := frames[i]
		pos := i == len(frames)-1
		prefix := "by"
		if pos {
			prefix = "at"
		}
		fmt.Fprintf(b, "%s%s %s (%s:%d)\n", indent, prefix, f.Fn, f.File, f.Line)
	}
}

// Summary is a compact per-kind rollup.
func (c *Collector) Summary() string {
	counts := c.CountByKind()
	kinds := make([]Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s: %d", k, counts[k]))
	}
	if len(parts) == 0 {
		return "no warnings"
	}
	return strings.Join(parts, ", ")
}
