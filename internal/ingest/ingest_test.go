package ingest_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/scenario"
	"repro/internal/tracelog"
)

// startServer runs a server on a loopback TCP listener and returns it with
// its dialable "network:address" spec. The server is shut down at test end.
func startServer(t testing.TB, cfg ingest.Config) (*ingest.Server, string) {
	t.Helper()
	if cfg.Tools == nil {
		cfg.Tools = scenario.AllTools
	}
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, "tcp:" + ln.Addr().String()
}

// recordScenario records one scenario variant and returns its trace.
func recordScenario(t testing.TB, genSeed int64, buggy bool) []byte {
	t.Helper()
	s := scenario.Generate(scenario.GenConfig{Seed: genSeed})
	_, log, err := scenario.Record(s, buggy, 1)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// offlineReport replays a trace offline through the same six-tool registry
// the server runs, with the server's (nil) resolver — the byte-identity
// reference for every session report.
func offlineReport(t testing.TB, log []byte) string {
	t.Helper()
	col, err := scenario.RunOffline(nil, log)
	if err != nil {
		t.Fatal(err)
	}
	return col.Format()
}

// waitSession polls until the session reaches a terminal state.
func waitSession(t testing.TB, sess *ingest.Session) ingest.SessionState {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := sess.State()
		if st == ingest.StateReported || st == ingest.StateFailed {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %d stuck in state %v", sess.ID, sess.State())
	return 0
}

// TestSessionLifecycle drives one full session and checks the registry entry
// walks open → streaming → drained → reported, the event count matches the
// trace, and the returned report equals the offline replay.
func TestSessionLifecycle(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{})
	log := recordScenario(t, 1, true)
	want := offlineReport(t, log)

	c, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.StreamTrace("lifecycle", log, 128)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("session report != offline replay:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	sessions := srv.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("registry has %d sessions, want 1", len(sessions))
	}
	sess := sessions[0]
	if st := waitSession(t, sess); st != ingest.StateReported {
		t.Errorf("state = %v (err %v), want reported", st, sess.Err())
	}
	if sess.Name != "lifecycle" {
		t.Errorf("session name = %q", sess.Name)
	}
	events, err := scenario.CountEvents(log)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Events() != events {
		t.Errorf("session events = %d, want %d", sess.Events(), events)
	}
}

// TestAggregate streams a small mixed corpus and checks the cross-session
// rollup: counts, per-tool locations, memcheck summaries, and that the
// rendered aggregate a query connection receives matches Server.Aggregate.
func TestAggregate(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{})
	var total int64
	for i, spec := range []struct {
		seed  int64
		buggy bool
	}{{1, true}, {2, true}, {1, false}} {
		log := recordScenario(t, spec.seed, spec.buggy)
		events, err := scenario.CountEvents(log)
		if err != nil {
			t.Fatal(err)
		}
		total += events
		c, err := ingest.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.StreamTrace(fmt.Sprintf("s%d", i), log, 0); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	for _, sess := range srv.Sessions() {
		waitSession(t, sess)
	}

	agg := srv.Aggregate()
	if agg.Sessions != 3 || agg.Reported != 3 || agg.Failed != 0 || agg.Active != 0 {
		t.Errorf("aggregate counts = %d/%d/%d/%d, want 3 sessions all reported",
			agg.Sessions, agg.Reported, agg.Failed, agg.Active)
	}
	if agg.Events != total {
		t.Errorf("aggregate events = %d, want %d", agg.Events, total)
	}
	if agg.Merged.Locations() == 0 {
		t.Error("aggregate merged report empty despite buggy sessions")
	}
	if len(agg.ByTool) == 0 {
		t.Error("aggregate ByTool empty")
	}
	if _, ok := agg.Summaries[scenario.ToolMemcheck]; !ok {
		t.Error("aggregate missing memcheck summary")
	}

	c, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	text, err := c.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "3 session(s) — 3 reported, 0 failed, 0 active") {
		t.Errorf("aggregate header missing counts:\n%s", text)
	}
	if text != srv.Aggregate().Format() {
		t.Error("queried aggregate differs from Server.Aggregate().Format()")
	}
}

// TestTruncatedSession cuts the connection mid-stream and checks the session
// fails (it must never report on a prefix) while the server stays healthy.
func TestTruncatedSession(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{})
	log := recordScenario(t, 3, true)

	conn, err := ingest.DialSpec(addr)
	if err != nil {
		t.Fatal(err)
	}
	fw := tracelog.NewFrameWriter(conn)
	if err := fw.Hello("torn"); err != nil {
		t.Fatal(err)
	}
	if err := fw.Events(log[:len(log)/2]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close() // no end frame: the stream is torn

	deadline := time.Now().Add(10 * time.Second)
	for {
		if sessions := srv.Sessions(); len(sessions) == 1 {
			if st := sessions[0].State(); st == ingest.StateFailed {
				if sessions[0].Err() == nil {
					t.Error("failed session has nil Err")
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("session never failed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The server must still serve new sessions afterwards.
	c, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.StreamTrace("after", log, 0); err != nil {
		t.Fatalf("session after a torn one: %v", err)
	}
	agg := srv.Aggregate()
	if agg.Failed != 1 || agg.Reported != 1 {
		t.Errorf("aggregate = %d failed / %d reported, want 1/1", agg.Failed, agg.Reported)
	}
}

// TestUnknownQuery checks a bad query surfaces as a remote error.
func TestUnknownQuery(t *testing.T) {
	_, addr := startServer(t, ingest.Config{})
	conn, err := ingest.DialSpec(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := tracelog.NewFrameWriter(conn)
	if err := fw.Query("bogus"); err != nil {
		t.Fatal(err)
	}
	fr := tracelog.NewFrameReader(conn)
	if _, err := fr.Response(); !errors.Is(err, tracelog.ErrRemote) {
		t.Errorf("unknown query error = %v, want ErrRemote", err)
	}
}

// TestMaxSessionsBackpressure pins that the session cap delays, not drops:
// with one slot, concurrent sessions serialize and all report.
func TestMaxSessionsBackpressure(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{MaxSessions: 1})
	log := recordScenario(t, 4, true)
	want := offlineReport(t, log)

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := ingest.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			got, err := c.StreamTrace(fmt.Sprintf("bp%d", i), log, 256)
			if err != nil {
				errs[i] = err
				return
			}
			if got != want {
				errs[i] = fmt.Errorf("report mismatch")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	if agg := srv.Aggregate(); agg.Reported != n {
		t.Errorf("reported = %d, want %d", agg.Reported, n)
	}
}

// TestShutdownGraceful checks Shutdown with headroom drains cleanly, and
// that a server refuses new work afterwards.
func TestShutdownGraceful(t *testing.T) {
	cfg := ingest.Config{Tools: scenario.AllTools}
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := "tcp:" + ln.Addr().String()

	log := recordScenario(t, 5, true)
	c, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamTrace("pre-shutdown", log, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if agg := srv.Aggregate(); agg.Reported != 1 {
		t.Errorf("reported = %d, want 1", agg.Reported)
	}
	if _, err := ingest.Dial(addr); err == nil {
		t.Error("dial succeeded after shutdown")
	}
}

// TestShutdownForcesStuckSession pins the flush contract's other half: a
// session that never sends its end frame holds shutdown until the grace
// period, then is force-closed and marked failed — not silently reported.
func TestShutdownForcesStuckSession(t *testing.T) {
	srv, err := ingest.NewServer(ingest.Config{Tools: scenario.AllTools})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := tracelog.NewFrameWriter(conn)
	if err := fw.Hello("stuck"); err != nil {
		t.Fatal(err)
	}
	log := recordScenario(t, 6, true)
	if err := fw.Events(log[:len(log)/3]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has registered the session.
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.Sessions()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded (forced)", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	sessions := srv.Sessions()
	if len(sessions) != 1 || sessions[0].State() != ingest.StateFailed {
		t.Fatalf("stuck session state = %v, want failed", sessions[0].State())
	}
}
