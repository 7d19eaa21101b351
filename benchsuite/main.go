// Command benchsuite is the repository benchmark. It generates its inputs
// from a seed, runs one workload of the six-tool registry for a fixed time,
// checks every report against the offline sequential reference, and prints
// the workload's metrics as one JSON object on the last line of standard
// output. A human-readable table goes to standard error.
//
// Workloads (BENCHMARK.json gates sip and table; RECORD.md says why fleet
// is not gated):
//
//	sip    offline sequential replay of the SIP test-case traces T1–T8
//	table  offline sequential replay of the §4.5 shared-table trace
//	fleet  an open loop of client sessions through a router to two
//	       backend analyzers, over unix sockets, in this process
//
// With -trace 0 it prints the end-to-end metrics. With -trace 1 it runs
// the timed phase half untraced and half traced, probes each layer through
// its public calls, and prints the per-layer metrics; the spans go to a
// JSON file under -dir.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash benchsuite/run.sh --workload sip --seed 1 --seconds 15 --trace 0
//	bash benchsuite/run.sh --workload fleet --seed 1 --seconds 10 --calibrate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	nproc    int
	dir      string // sockets and span files
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string
}

func newResult() *result { return &result{Correct: true, Metrics: make(map[string]metric)} }

func (r *result) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note("%s had no samples", name)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problem records a failed correctness check.
func (r *result) problem(err error) {
	r.Correct = false
	r.note("CHECK FAILED: %v", err)
}

// count adds a timed phase's operations to the tally.
func (r *result) count(ph phase) {
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	if ph.failed > 0 {
		r.Correct = false
	}
	for _, e := range ph.errs {
		r.note("failed: %s", e)
	}
}

// setupReps is how many times a run sets its workload up. Set-up takes a
// millisecond or less, so its median needs many samples to be steady.
const setupReps = 101

// tailAt is each workload's reported tail percentile of time to report:
// the highest with at least ten reports beyond it at the run length in
// BENCHMARK.json on a 2-CPU host.
var tailAt = map[string]float64{"sip": 98, "table": 75, "fleet": 95}

// setupMedian runs setup reps times, each after a garbage collection, and
// returns the median time in seconds. teardown, when set, undoes every run
// but the last, untimed; the caller keeps what the last run built.
func setupMedian(reps int, setup func() error, teardown func()) (float64, error) {
	var xs []float64
	for k := 0; k < reps; k++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
		if k < reps-1 && teardown != nil {
			teardown()
		}
	}
	return median(xs), nil
}

// putEndToEnd records the end-to-end metrics of a timed phase.
func putEndToEnd(r *result, cfg config, setupS float64, ph phase) {
	lat := summarizeAt(ph.ttr, tailAt[cfg.workload])
	if lat.tailPct != tailAt[cfg.workload] {
		r.note("only %d reports: tail taken at p%g instead of p%g", lat.n, lat.tailPct, tailAt[cfg.workload])
	}
	r.put("setup_s", "s", setupS)
	r.put("events_per_s", "1/s", float64(ph.events)/ph.wall.Seconds())
	r.put("time_to_report_p50_ms", "ms", lat.p50)
	r.put("time_to_report_tail_ms", "ms", lat.tail)
	r.put("cpu_ns_per_event", "ns", float64(ph.cpu.Nanoseconds())/float64(max(ph.events, 1)))
	r.put("peak_rss_mb", "MB", peakRSSMB())
	r.put("success_ratio", "ratio", float64(ph.attempted-ph.failed)/float64(max(ph.attempted, 1)))
	r.note("time_to_report tail is p%g over %d reports; failed_ratio = %d/%d", lat.tailPct, lat.n, ph.failed, ph.attempted)
}

// putOverhead records how much slower the traced half of the timed phase
// ran than the untraced half, by median time to report.
func putOverhead(r *result, untraced, traced []float64) {
	a, b := median(untraced), median(traced)
	r.put("bench.tracing_overhead_share", "ratio", (b-a)/a)
}

func run(cfg config) (*result, error) {
	var traces []traceInput
	var err error
	switch cfg.workload {
	case "sip", "fleet":
		traces, err = sipTraces(cfg.seed)
	case "table":
		traces, err = tableTrace(cfg.seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (known: sip, table, fleet)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	r := newResult()
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.workload == "fleet" {
		err = runFleet(cfg, r, rng, traces)
	} else {
		err = runOffline(cfg, r, rng, traces)
	}
	return r, err
}

// checkSites checks the workload's expected warning-site shape: the SIP
// server has seeded bugs, the shared table has none.
func checkSites(workload string, sites int) error {
	if workload == "table" && sites != 0 {
		return fmt.Errorf("table: %d warning sites, want 0", sites)
	}
	if workload != "table" && sites == 0 {
		return fmt.Errorf("%s: no warning sites", workload)
	}
	return nil
}

func runOffline(cfg config, r *result, rng *rand.Rand, traces []traceInput) error {
	var o *offline
	setupS, err := setupMedian(setupReps, func() error {
		var err error
		o, err = setupOffline(traces)
		return err
	}, nil)
	if err != nil {
		return err
	}
	sites, err := o.check(cfg.nproc)
	if err != nil {
		return err
	}
	if err := checkSites(cfg.workload, sites); err != nil {
		r.problem(err)
	}
	runtime.GC()
	var session int64
	if !cfg.traced {
		ph := o.timed(rng, cfg.dur, nil, &session)
		r.count(ph)
		putEndToEnd(r, cfg, setupS, ph)
		return nil
	}
	t := newTracer()
	ph0 := o.timed(rng, cfg.dur/2, nil, &session)
	ph1 := o.timed(rng, cfg.dur/2, t, &session)
	r.count(ph0)
	r.count(ph1)
	putOverhead(r, ph0.ttr, ph1.ttr)
	probeSites, err := o.offlineProbe(t, cfg.nproc, &session)
	if err != nil {
		return err
	}
	t.computeSelf()
	o.offlineLayers(r, t, probeSites)

	// The ingest layers, over this workload's traces: an open loop at a
	// sixth of the rate nproc sequential pipelines sustain offline, which
	// for the SIP traces is about fleetRate.
	rate := float64(cfg.nproc) / (6 * mean(ph0.ttr) / 1e3)
	n := int(math.Ceil(rate*fleetProbeSpan.Seconds()/float64(len(traces)))) * len(traces)
	f, err := startFleet(cfg.dir, o.tools, fleetBackends)
	if err != nil {
		return err
	}
	defer f.stop()
	if _, err := f.census(); err != nil {
		return err
	}
	ph := openLoop(rng, f.rspec, traces, o.want, n, fleetProbeSpan, t, &session)
	r.count(ph)
	r.note("ingest layers: %d sessions at %.1f/s", n, rate)
	return finishTraced(cfg, r, t, f, o, n)
}

// fleetProbeSpan is how long the ingest-layer probe of an offline workload
// schedules its sessions over.
const fleetProbeSpan = 3 * time.Second

func runFleet(cfg config, r *result, rng *rand.Rand, traces []traceInput) error {
	o, err := setupOffline(traces)
	if err != nil {
		return err
	}
	sites, err := o.check(cfg.nproc)
	if err != nil {
		return err
	}
	if err := checkSites(cfg.workload, sites); err != nil {
		r.problem(err)
	}
	var f *fleet
	setupS, err := setupMedian(setupReps, func() error {
		var err error
		if f, err = startFleet(cfg.dir, o.tools, fleetBackends); err != nil {
			return err
		}
		_, err = f.census()
		return err
	}, func() { f.stop() })
	if err != nil {
		if f != nil {
			f.stop()
		}
		return err
	}
	defer f.stop()
	// One closed-loop pass over the traces before timing, so the backends'
	// retention and the router's fleet fold are no longer empty.
	for i := range traces {
		if _, err := runSession(f.rspec, fmt.Sprintf("warmup-%d", i), &traces[i], o.want[i]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	warm := len(traces)
	runtime.GC()
	n := int(fleetRate * cfg.dur.Seconds())
	var session int64
	if !cfg.traced {
		ph := openLoop(rng, f.rspec, traces, o.want, n, cfg.dur, nil, &session)
		r.count(ph)
		putEndToEnd(r, cfg, setupS, ph)
		if _, err := f.aggregate(warm + n); err != nil {
			r.problem(err)
		}
		return nil
	}
	t := newTracer()
	ph0 := openLoop(rng, f.rspec, traces, o.want, n/2, cfg.dur/2, nil, &session)
	ph1 := openLoop(rng, f.rspec, traces, o.want, n/2, cfg.dur/2, t, &session)
	r.count(ph0)
	r.count(ph1)
	putOverhead(r, ph0.ttr, ph1.ttr)
	probeSites, err := o.offlineProbe(t, cfg.nproc, &session)
	if err != nil {
		return err
	}
	t.computeSelf()
	o.offlineLayers(r, t, probeSites)
	return finishTraced(cfg, r, t, f, o, warm+2*(n/2))
}

// finishTraced measures the router and backend layers after a traced open
// loop, records every ingest-layer metric and writes the spans out.
func finishTraced(cfg config, r *result, t *tracer, f *fleet, o *offline, routed int) error {
	diffs, relayed, err := f.relayProbe(o.traces, o.want, 2)
	if err != nil {
		return err
	}
	routed += relayed
	assigned, err := f.census()
	if err != nil {
		return err
	}
	backends, err := stats(f.specs)
	if err != nil {
		return err
	}
	router, err := stats([]string{f.rspec})
	if err != nil {
		return err
	}
	took, err := f.aggregate(routed)
	if err != nil {
		r.problem(err)
	}
	t.computeSelf()
	L := t.layers("session")
	selfs := func(name string) []float64 {
		if l := L[name]; l != nil {
			return l.selfs
		}
		return nil
	}
	finish := summarize(selfs("ingest.finish_wait"))
	late := summarize(selfs("loadgen.lateness"))
	r.put("ingest.stream_ms_p50", "ms", median(selfs("ingest.stream")))
	r.put("ingest.finish_wait_ms_p50", "ms", finish.p50)
	r.put("ingest.finish_wait_ms_tail", "ms", finish.tail)
	r.put("ingest.slot_wait_ms_p50", "ms", backends.histQuantile("ingest_slot_wait_ns", 0.5)/1e6)
	r.put("ingest.sessions_opened", "count", backends["ingest_sessions_opened_total"])
	r.put("ingest.events_total", "count", backends["ingest_events_total"])
	r.put("ingest.admission_rejected", "count", backends.family("ingest_admission_rejected_total"))
	r.put("ingest.frames_read", "count", backends.family("ingest_frames_read_total"))
	r.put("ingest.router.relay_ms_p50", "ms", median(diffs))
	r.put("ingest.router.frames_forwarded", "count", router["router_frames_forwarded_total"])
	r.put("ingest.router.bytes_forwarded", "B", router["router_frame_bytes_forwarded_total"])
	r.put("ingest.router.sessions_lost", "count", router["router_sessions_lost_total"])
	var most, sum int64
	for _, a := range assigned {
		most, sum = max(most, a), sum+a
	}
	r.put("ingest.router.backend_skew", "ratio", float64(most)/(float64(sum)/float64(len(assigned))))
	r.put("ingest.router.fleet_aggregate_ms", "ms", ms(took))
	r.put("loadgen.lateness_ms_p50", "ms", late.p50)
	r.put("loadgen.lateness_ms_tail", "ms", late.tail)
	r.note("finish_wait tail is p%g over %d sessions; lateness tail is p%g", finish.tailPct, finish.n, late.tailPct)

	path, err := t.write(filepath.Join(cfg.dir, "spans"), fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	r.note("%d spans written to %s", len(t.spans), path)
	return nil
}

// calibrate measures the fleet's closed-loop capacity with fleetConns
// connections, the basis of fleetRate.
func calibrate(cfg config) error {
	traces, err := sipTraces(cfg.seed)
	if err != nil {
		return err
	}
	o, err := setupOffline(traces)
	if err != nil {
		return err
	}
	if _, err := o.check(1); err != nil {
		return err
	}
	f, err := startFleet(cfg.dir, o.tools, fleetBackends)
	if err != nil {
		return err
	}
	defer f.stop()
	perSec, p50, err := closedLoop(f.rspec, traces, o.want, cfg.dur)
	if err != nil {
		return err
	}
	fmt.Printf("closed loop, %d connections: %.1f sessions/s, p50 %.2f ms; open-loop rate is %.0f/s\n", fleetConns, perSec, p50, fleetRate)
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: sip, table or fleet")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs, trace order, arrival gaps and session names")
		seconds  = flag.Int("seconds", 10, "length of the timed phase in seconds")
		traceOn  = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
		dir      = flag.String("dir", ".bench_build", "directory for unix sockets and span files")
		calib    = flag.Bool("calibrate", false, "measure the fleet's closed-loop capacity instead of running a workload")
	)
	flag.Parse()
	cfg := config{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		traced: *traceOn == 1, nproc: runtime.NumCPU(), dir: *dir,
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "benchsuite: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if *calib {
		if err := calibrate(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		return
	}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchsuite: workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		cfg.workload, cfg.seed, *seconds, *traceOn, cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version())
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
