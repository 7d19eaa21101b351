package ingest_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ingest"
	"repro/internal/scenario"
)

// corpusEntry is one scenario trace with its offline reference report.
type corpusEntry struct {
	name string
	log  []byte
	want string
}

// buildCorpus records both variants of a run of generated scenarios and
// computes each trace's offline six-tool reference report (nil resolver, as
// the server resolves nothing). Seeds 1..7 cover the whole planted-bug
// catalog (see scenario.GenConfig).
func buildCorpus(t testing.TB, seeds int) []corpusEntry {
	t.Helper()
	var out []corpusEntry
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, buggy := range []bool{true, false} {
			log := recordScenario(t, seed, buggy)
			out = append(out, corpusEntry{
				name: fmt.Sprintf("s%d-buggy-%v", seed, buggy),
				log:  log,
				want: offlineReport(t, log),
			})
		}
	}
	return out
}

// TestIngestConformance is the live-vs-offline byte-identity suite: every
// scenario trace streamed through a live server session must yield exactly
// the report an offline engine replay of the same trace produces, for all
// six tools. CI runs this under -race.
func TestIngestConformance(t *testing.T) {
	corpus := buildCorpus(t, 7)
	_, addr := startServer(t, ingest.Config{})
	for _, entry := range corpus {
		c, err := ingest.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.StreamTrace(entry.name, entry.log, 512)
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", entry.name, err)
		}
		if got != entry.want {
			t.Errorf("%s: live session report != offline replay:\n--- live ---\n%s--- offline ---\n%s",
				entry.name, got, entry.want)
		}
	}
}

// TestIngest64Sessions is the acceptance run: 64 concurrent sessions against
// one server, every returned report byte-identical to its offline replay,
// with a correct aggregate afterwards. CI runs this under -race.
func TestIngest64Sessions(t *testing.T) {
	corpus := buildCorpus(t, 7)
	srv, addr := startServer(t, ingest.Config{MaxSessions: 16})

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entry := corpus[i%len(corpus)]
			c, err := ingest.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			// Vary the chunking per session: framing is transport, so it
			// must not affect the report.
			got, err := c.StreamTrace(fmt.Sprintf("c%d-%s", i, entry.name), entry.log, 64+i*17)
			if err != nil {
				errs[i] = err
				return
			}
			if got != entry.want {
				errs[i] = fmt.Errorf("report != offline replay for %s", entry.name)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	if t.Failed() {
		return
	}

	agg := srv.Aggregate()
	if agg.Sessions != n || agg.Reported != n || agg.Failed != 0 {
		t.Errorf("aggregate = %d sessions / %d reported / %d failed, want %d/%d/0",
			agg.Sessions, agg.Reported, agg.Failed, n, n)
	}
	var events int64
	for _, entry := range corpus {
		ev, err := scenario.CountEvents(entry.log)
		if err != nil {
			t.Fatal(err)
		}
		// 64 sessions cycle the corpus; entry i%len serves ceil/floor share.
		events += ev * int64((n-1-indexOf(corpus, entry))/len(corpus)+1)
	}
	if agg.Events != events {
		t.Errorf("aggregate events = %d, want %d", agg.Events, events)
	}
}

func indexOf(corpus []corpusEntry, e corpusEntry) int {
	for i := range corpus {
		if corpus[i].name == e.name {
			return i
		}
	}
	return -1
}
