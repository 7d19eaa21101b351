package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fleetBackends is the backend count of the router tier.
const fleetBackends = 2

// fleetConns bounds the load generator's concurrent connections.
const fleetConns = 2

// fleetRate is the open-loop arrival rate of the fleet workload, in
// sessions per second: about a third of the closed-loop capacity of two
// connections measured with -calibrate on a 2-CPU host (see RECORD.md).
const fleetRate = 30.0

// fleet is a router in front of backend analyzers, all in this process and
// all reached over unix sockets, configured like a long-running traced.
type fleet struct {
	backends []*ingest.Server
	specs    []string
	router   *ingest.Router
	rspec    string
	served   sync.WaitGroup
}

var fleetGen int

// startFleet starts n backends and a router over unix sockets in dir.
func startFleet(dir string, tools func() []trace.ToolSpec, n int) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fleetGen++
	f := &fleet{}
	sock := func(role string) string {
		return "unix:" + filepath.Join(dir, fmt.Sprintf("%d-%d-%s.sock", os.Getpid(), fleetGen, role))
	}
	for i := 0; i < n; i++ {
		srv, err := ingest.NewServer(ingest.Config{
			Tools:          tools,
			Shards:         1,
			BackendMode:    true,
			Metrics:        obs.NewRegistry(),
			RetainSessions: 64,
			IdleTimeout:    30 * time.Second,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		spec := sock(fmt.Sprintf("b%d", i))
		if err := f.serve(spec, srv.Serve); err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, srv)
		f.specs = append(f.specs, spec)
	}
	r, err := ingest.NewRouter(ingest.RouterConfig{Backends: f.specs, Metrics: obs.NewRegistry(), IdleTimeout: 30 * time.Second})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.rspec = sock("router")
	if err := f.serve(f.rspec, r.Serve); err != nil {
		f.stop()
		return nil, err
	}
	f.router = r
	return f, nil
}

// serve listens on spec and runs serve on its own goroutine until the
// listener closes.
func (f *fleet) serve(spec string, serve func(net.Listener) error) error {
	ln, err := ingest.Listen(spec)
	if err != nil {
		return err
	}
	f.served.Add(1)
	go func() {
		defer f.served.Done()
		if err := serve(ln); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: serve %s: %v\n", spec, err)
		}
	}()
	return nil
}

// stop shuts the router, then the backends, down and waits for every
// accept loop to return.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var first error
	if f.router != nil {
		if err := f.router.Shutdown(ctx); err != nil {
			first = err
		}
	}
	for _, b := range f.backends {
		if err := b.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	f.served.Wait()
	return first
}

// query runs one query exchange against spec.
func query(spec, q string) (string, error) {
	c, err := ingest.Dial(spec)
	if err != nil {
		return "", err
	}
	defer c.Close()
	return c.Query(q)
}

var assignedRE = regexp.MustCompile(`assigned=(\d+)`)

// census asks the router for its backends census and checks every backend
// answered alive. It returns the sessions assigned to each backend.
func (f *fleet) census() ([]int64, error) {
	text, err := query(f.rspec, "backends")
	if err != nil {
		return nil, fmt.Errorf("backends census: %w", err)
	}
	if !strings.Contains(text, fmt.Sprintf("%d alive", len(f.specs))) || strings.Contains(text, "probe failed") {
		return nil, fmt.Errorf("backends census: not every backend is alive:\n%s", text)
	}
	var out []int64
	for _, m := range assignedRE.FindAllStringSubmatch(text, -1) {
		n, _ := strconv.ParseInt(m[1], 10, 64)
		out = append(out, n)
	}
	return out, nil
}

// sessionTimes are the client-side timestamps of one fleet session.
type sessionTimes struct {
	start, streamed, reported time.Time
}

// runSession streams one trace with its metadata as one session under
// name and compares the returned report with want.
func runSession(spec, name string, tr *traceInput, want string) (sessionTimes, error) {
	st := sessionTimes{start: time.Now()}
	c, err := ingest.Dial(spec)
	if err != nil {
		return st, fmt.Errorf("dial: %w", err)
	}
	defer c.Close()
	if err := c.Hello(name); err != nil {
		return st, err
	}
	if err := c.SendMetadata(tr.md); err != nil {
		return st, err
	}
	const chunk = 64 << 10
	for log := tr.log; len(log) > 0; {
		n := min(chunk, len(log))
		if err := c.SendEvents(log[:n]); err != nil {
			return st, err
		}
		log = log[n:]
	}
	st.streamed = time.Now()
	text, err := c.Finish()
	st.reported = time.Now()
	if err != nil {
		return st, err
	}
	if text != want {
		return st, fmt.Errorf("%s: report differs from the offline sequential report", name)
	}
	return st, nil
}

// openLoop schedules n sessions over span at seeded exponential gaps
// (normalised so the n arrivals fill span exactly) and a balanced seeded
// trace order, and runs them through spec from one generator goroutine with
// at most fleetConns connections open. A session that cannot start on time
// waits for a connection; its lateness counts in its time to report.
func openLoop(rng *rand.Rand, spec string, traces []traceInput, want []string, n int, span time.Duration, t *tracer, session *int64) phase {
	gaps := make([]float64, n+1)
	sum := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	order := shuffledOrder(rng, len(traces), (n+len(traces)-1)/len(traces))[:n]
	var ph phase
	var mu sync.Mutex
	var wg sync.WaitGroup
	slots := make(chan struct{}, fleetConns)
	cpu0, start := cpuTime(), time.Now()
	at := 0.0
	for k := 0; k < n; k++ {
		at += gaps[k]
		due := start.Add(time.Duration(at / sum * float64(span)))
		time.Sleep(time.Until(due))
		slots <- struct{}{}
		*session++
		id := *session
		i := order[k]
		name := fmt.Sprintf("%s-%d-%08x", traces[i].name, k, rng.Uint32())
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := runSession(spec, name, &traces[i], want[i])
			<-slots
			mu.Lock()
			defer mu.Unlock()
			ph.attempted++
			if err != nil {
				ph.fail(err)
				return
			}
			ph.ttr = append(ph.ttr, ms(st.reported.Sub(due)))
			ph.events += traces[i].events
			if t != nil {
				root := t.add("session", id, 0, due, st.reported, traces[i].events)
				t.add("loadgen.lateness", id, root, due, st.start, 0)
				t.add("ingest.stream", id, root, st.start, st.streamed, traces[i].events)
				t.add("ingest.finish_wait", id, root, st.streamed, st.reported, 0)
			}
		}()
	}
	wg.Wait()
	ph.wall, ph.cpu = time.Since(start), cpuTime()-cpu0
	return ph
}

// closedLoop runs fleetConns connections streaming sessions back to back
// through spec for dur, and returns the sessions completed per second and
// the median session time in ms. It is how fleetRate was calibrated.
func closedLoop(spec string, traces []traceInput, want []string, dur time.Duration) (float64, float64, error) {
	var mu sync.Mutex
	var times []float64
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < fleetConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(start) < dur; k++ {
				i := (k + c) % len(traces)
				st, err := runSession(spec, fmt.Sprintf("cal-%d-%d", c, k), &traces[i], want[i])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				times = append(times, ms(st.reported.Sub(st.start)))
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return float64(len(times)) / time.Since(start).Seconds(), median(times), firstErr
}

// relayProbe streams every trace reps times closed loop, alternately
// straight to the first backend and through the router, and returns the
// per-pair extra time the router hop adds, in ms.
func (f *fleet) relayProbe(traces []traceInput, want []string, reps int) ([]float64, int, error) {
	var diffs []float64
	routed := 0
	for r := 0; r < reps; r++ {
		for i := range traces {
			var d [2]float64
			for j := 0; j < 2; j++ {
				via := (r+i+j)%2 == 1 // alternate which goes first
				spec := f.specs[0]
				if via {
					spec = f.rspec
					routed++
				}
				st, err := runSession(spec, fmt.Sprintf("relay-%d-%d-%d", r, i, j), &traces[i], want[i])
				if err != nil {
					return nil, routed, fmt.Errorf("relay probe: %w", err)
				}
				if via {
					d[1] = ms(st.reported.Sub(st.start))
				} else {
					d[0] = ms(st.reported.Sub(st.start))
				}
			}
			diffs = append(diffs, d[1]-d[0])
		}
	}
	return diffs, routed, nil
}

var reportedRE = regexp.MustCompile(`(\d+) reported, (\d+) failed`)

// aggregate times the router's fleet aggregate query and checks that it
// accounts for exactly the sessions routed, all reported.
func (f *fleet) aggregate(routed int) (time.Duration, error) {
	start := time.Now()
	text, err := query(f.rspec, "aggregate")
	took := time.Since(start)
	if err != nil {
		return took, fmt.Errorf("fleet aggregate: %w", err)
	}
	m := reportedRE.FindStringSubmatch(text)
	if m == nil || m[1] != strconv.Itoa(routed) || m[2] != "0" {
		first, _, _ := strings.Cut(text, "\n")
		return took, fmt.Errorf("fleet aggregate: want %d reported, 0 failed; got %q", routed, first)
	}
	return took, nil
}

// promText holds the series of a Prometheus text snapshot.
type promText map[string]float64

// stats fetches and sums the stats snapshots of the given specs.
func stats(specs []string) (promText, error) {
	out := promText{}
	for _, spec := range specs {
		text, err := query(spec, "stats")
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", spec, err)
		}
		for _, line := range strings.Split(text, "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("stats %s: bad line %q", spec, line)
			}
			out[line[:i]] += v
		}
	}
	return out, nil
}

// family sums every series of a labelled family.
func (p promText) family(name string) float64 {
	sum := 0.0
	for k, v := range p {
		if strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

var leRE = regexp.MustCompile(`_bucket\{le="(\d+)"\}$`)

// histQuantile estimates the q-quantile of histogram name from its
// cumulative buckets, interpolating linearly within the bucket.
func (p promText) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range p {
		if m := leRE.FindStringSubmatch(k); m != nil && strings.HasPrefix(k, name+"_bucket") {
			le, _ := strconv.ParseFloat(m[1], 64)
			bs = append(bs, bucket{le, v})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := p[name+"_count"]
	if total == 0 {
		return 0
	}
	target, lo, prev := q*total, 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			return lo + (b.le-lo)*(target-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}
