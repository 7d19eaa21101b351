package harness

import (
	"fmt"
	"strings"
)

// BenchComparison is the result of diffing two BENCH documents: a rendered
// benchstat-style table plus the figures the CI regression gate keys on.
type BenchComparison struct {
	// Table is the human-readable delta table.
	Table string
	// WorstSeqAllocRegress is the largest relative allocs/event increase
	// across sequential replay rows present in both documents (0 when none
	// regressed, or when either side lacks allocation data). The CI bench
	// smoke fails when this exceeds its tolerance.
	WorstSeqAllocRegress float64
	// WorstSeqNsRegress is the same figure for sequential replay ns/event.
	// Wall time on shared CI runners is noisy, so this is informational.
	WorstSeqNsRegress float64
}

// CompareBenchDocs diffs two BENCH documents row by row — replay, one-pass,
// ingest, overhead — matching rows by their identifying key (config+mode,
// session count, overhead mode) and reporting old, new and relative delta
// for each metric, in the spirit of benchstat. Rows present on only one side
// render with a dash. Comparing documents taken with different workload
// parameters is flagged in the header but not refused: the per-event
// normalisation keeps the numbers meaningful across modest size changes.
func CompareBenchDocs(oldDoc, newDoc *BenchDoc) BenchComparison {
	var b strings.Builder
	var cmp BenchComparison

	fmt.Fprintf(&b, "benchmark comparison: %s -> %s\n", docLabel(oldDoc), docLabel(newDoc))
	if oldDoc.Threads != newDoc.Threads || oldDoc.Iters != newDoc.Iters ||
		oldDoc.Slots != newDoc.Slots || oldDoc.Blocks != newDoc.Blocks ||
		oldDoc.Seed != newDoc.Seed {
		b.WriteString("warning: workload parameters differ; per-event figures remain comparable, totals do not\n")
	}
	if oldDoc.GoMaxProc != newDoc.GoMaxProc {
		fmt.Fprintf(&b, "warning: host shape differs (gomaxprocs %d->%d)\n", oldDoc.GoMaxProc, newDoc.GoMaxProc)
	}

	section := func(title string) { fmt.Fprintf(&b, "\n%s\n%-28s %12s %12s %10s\n", title, "", "old", "new", "delta") }

	// Replay: ns/event and (when both sides carry it) allocs/event.
	oldReplay := make(map[string]ReplayResult, len(oldDoc.Replay))
	for _, r := range oldDoc.Replay {
		oldReplay[r.Config+"/"+r.Mode] = r
	}
	section("replay ns/event")
	for _, r := range newDoc.Replay {
		key := r.Config + "/" + r.Mode
		o, ok := oldReplay[key]
		writeRow(&b, key, valueOf(ok, o.NsPerEvt), r.NsPerEvt)
		if ok && r.Mode == "sequential" {
			if reg := regression(o.NsPerEvt, r.NsPerEvt); reg > cmp.WorstSeqNsRegress {
				cmp.WorstSeqNsRegress = reg
			}
		}
	}
	if replayHasAllocs(oldDoc.Replay) && replayHasAllocs(newDoc.Replay) {
		section("replay allocs/event")
		for _, r := range newDoc.Replay {
			key := r.Config + "/" + r.Mode
			o, ok := oldReplay[key]
			writeRow(&b, key, valueOf(ok, o.AllocsPerEvt), r.AllocsPerEvt)
			if ok && r.Mode == "sequential" {
				if reg := regression(o.AllocsPerEvt, r.AllocsPerEvt); reg > cmp.WorstSeqAllocRegress {
					cmp.WorstSeqAllocRegress = reg
				}
			}
		}
	}

	oldOne := make(map[string]OnePassResult, len(oldDoc.OnePass))
	for _, r := range oldDoc.OnePass {
		oldOne[r.Mode] = r
	}
	if len(newDoc.OnePass) > 0 {
		section("one-pass ns/event")
		for _, r := range newDoc.OnePass {
			o, ok := oldOne[r.Mode]
			writeRow(&b, r.Mode, valueOf(ok, o.NsPerEvt), r.NsPerEvt)
		}
	}

	oldIngest := make(map[int]IngestResult, len(oldDoc.Ingest))
	for _, r := range oldDoc.Ingest {
		oldIngest[r.Sessions] = r
	}
	if len(newDoc.Ingest) > 0 {
		section("ingest events/sec")
		for _, r := range newDoc.Ingest {
			o, ok := oldIngest[r.Sessions]
			writeRow(&b, fmt.Sprintf("sessions=%d", r.Sessions), valueOf(ok, o.EventsPerSec), r.EventsPerSec)
		}
	}

	oldOver := make(map[string]OverheadRow, len(oldDoc.Overhead))
	for _, r := range oldDoc.Overhead {
		oldOver[r.Mode] = r
	}
	if len(newDoc.Overhead) > 0 {
		section("overhead ns/op")
		for _, r := range newDoc.Overhead {
			o, ok := oldOver[r.Mode]
			writeRow(&b, r.Mode, valueOf(ok, o.NsPerOp), r.NsPerOp)
		}
	}

	cmp.Table = b.String()
	return cmp
}

func docLabel(d *BenchDoc) string {
	if d.Date != "" {
		return d.Date
	}
	return "(undated)"
}

func replayHasAllocs(rows []ReplayResult) bool {
	for _, r := range rows {
		if r.AllocsPerEvt > 0 {
			return true
		}
	}
	return false
}

// valueOf returns a pointer to v when present, nil otherwise — writeRow's
// "no old row" marker.
func valueOf(present bool, v float64) *float64 {
	if !present {
		return nil
	}
	return &v
}

func writeRow(b *strings.Builder, key string, oldV *float64, newV float64) {
	if oldV == nil {
		fmt.Fprintf(b, "%-28s %12s %12.2f %10s\n", key, "-", newV, "-")
		return
	}
	fmt.Fprintf(b, "%-28s %12.2f %12.2f %10s\n", key, *oldV, newV, deltaStr(*oldV, newV))
}

// deltaStr renders the relative change; "~" when the old value is zero (a
// ratio against zero is meaningless, not infinitely worse).
func deltaStr(oldV, newV float64) string {
	if oldV == 0 {
		return "~"
	}
	return fmt.Sprintf("%+.1f%%", (newV-oldV)/oldV*100)
}

// regression returns the relative increase of new over old (0 when improved
// or when old is zero).
func regression(oldV, newV float64) float64 {
	if oldV <= 0 || newV <= oldV {
		return 0
	}
	return (newV - oldV) / oldV
}
