// Command perfbench is the repository's benchmark. It runs one named
// workload against the WOHA layers, checks every output, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run),
// ending with one JSON line:
//
//	go build -o perfbench . && ./perfbench --workload corpus --seed 1 --seconds 15 --trace 0
//
// Workloads: corpus (the Fig 8 experiment), frontdoor (plan, admission and
// federated routing of a ten-fold Yahoo population) and heartbeat (the live
// JobTracker under a closed loop of TaskTracker heartbeats). README.md has
// the layer-to-metric map and the recorded baseline.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// bench is one workload, already built by its setup.
type bench interface {
	// pass carries every workflow once through the layers under test. tr is
	// nil on untraced passes.
	pass(tr *tracer) (passStats, error)
	// layers derives the per-layer metrics of the traced phase: tr holds its
	// spans and passes counts its passes.
	layers(tr *tracer, passes int) map[string]float64
}

// passStats is what one pass reports.
type passStats struct {
	// workflows counts the workflows carried to a final verdict and tasks
	// their tasks; failed counts the workflows whose outputs broke a check.
	workflows, tasks, failed int
	wall                     time.Duration
	// lat holds the pass's samples of the workload's unit of service, in µs.
	lat []float64
	// misses counts simulated deadline misses, rejections included; -1 when
	// the workload keeps no simulated time.
	misses int
	// sig fingerprints the simulated outputs (miss vector, event count);
	// every pass of a seed must reproduce it. 0 when outputs are not
	// deterministic (the live tracker runs on wall time).
	sig uint64
}

var setups = map[string]func(seed int64) (bench, error){
	"corpus":    setupCorpus,
	"frontdoor": setupFrontdoor,
	"heartbeat": setupHeartbeat,
}

// outDir receives the traced run's spans and profiles, relative to the
// working directory.
const outDir = ".bench_out"

// setupRuns is how many times a run builds its workload; setup_s is the
// median of their CPU times, so one slow build does not move it.
const setupRuns = 3

// minLatSamples keeps a run going until the printed p99 has ten samples
// beyond it.
const minLatSamples = 1000

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "corpus", "workload: corpus, frontdoor or heartbeat")
	seed := fs.Int64("seed", 1, "Yahoo generator seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := setups[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	fmt.Fprintf(stdout, "# %s\n", provenance(*name, *seed))

	var w bench
	var setupTimes []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := cpuTime()
		var err error
		if w, err = setup(*seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		setupTimes = append(setupTimes, (cpuTime() - t0).Seconds())
	}

	res := result{Metrics: map[string]metric{}}
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		ph, err := measure(w, budget, nil, minLatSamples)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res.Attempted, res.Failed = ph.workflows, ph.failed
		report(stdout, res.Metrics, ph, median(setupTimes), *name)
	} else {
		// The untraced half runs under the CPU and mutex profilers and is the
		// base of the tracing overhead; the traced half records spans, and
		// its passes must reproduce the untraced outputs exactly.
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		plain, err := measureProfiled(w, budget/2, *name, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		tr := newTracer()
		traced, err := measure(w, budget-budget/2, tr, 0)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res.Attempted = plain.workflows + traced.workflows
		res.Failed = plain.failed + traced.failed
		layers := w.layers(tr, traced.passes)
		for mod, share := range plain.cpu {
			if _, listed := layerUnit["cpu."+mod]; !listed {
				mod = "other"
			}
			layers["cpu."+mod] += share
		}
		layers["live.mutex_wait_ms"] = plain.mutexMs / float64(plain.passes)
		layers["trace.untraced_workflows_per_s"] = plain.wps
		layers["trace.traced_workflows_per_s"] = traced.wps
		layers["trace.overhead_ratio"] = 1 - traced.wps/plain.wps
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
			fmt.Fprintf(stdout, "layer %-34s %14.6g %s\n", m.name, layers[m.name], m.unit)
		}
		path, err := tr.write(fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s (%d kept); profiles beside them\n", path, len(tr.spans))
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "error_ratio %.6g (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// subSeeds derives a run's k Yahoo generator seeds from its --seed: one
// seed's draw varies too much in size and load for the figures of two seeds
// to be compared, so a run measures several draws together.
func subSeeds(seed int64, k int) []int64 {
	out := make([]int64, k)
	for j := range out {
		out[j] = seed*100 + int64(j)
	}
	return out
}

// provenance stamps a report with the host and build it came from.
func provenance(name string, seed int64) string {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return fmt.Sprintf("workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s%s",
		name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, dirty)
}

// phase aggregates the passes of one measured phase.
type phase struct {
	passes, workflows, tasks, failed int
	// wps is the median over passes of workflows carried per wall second,
	// tps of tasks carried per CPU second of the process.
	wps, tps, tpsQ1, tpsQ3 float64
	lat                    []float64
	missRatio              float64 // -1 when not simulated
	allocBytes, mallocs    float64
	cpu                    map[string]float64
	mutexMs                float64
}

// measure runs passes until d has elapsed and at least minLat latency
// samples exist.
func measure(w bench, d time.Duration, tr *tracer, minLat int) (phase, error) {
	var ph phase
	var wfRates, taskRates []float64
	misses, simulated := 0, 0
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for start := time.Now(); time.Since(start) < d || len(ph.lat) < minLat; {
		c0 := cpuTime()
		ps, err := w.pass(tr)
		if err != nil {
			return ph, err
		}
		cpu := cpuTime() - c0
		ph.passes++
		ph.workflows += ps.workflows
		ph.tasks += ps.tasks
		ph.failed += ps.failed
		ph.lat = append(ph.lat, ps.lat...)
		wfRates = append(wfRates, float64(ps.workflows)/ps.wall.Seconds())
		taskRates = append(taskRates, float64(ps.tasks)/cpu.Seconds())
		if ps.misses >= 0 {
			misses += ps.misses
			simulated += ps.workflows
		}
	}
	runtime.ReadMemStats(&m1)
	ph.wps, ph.tps = median(wfRates), median(taskRates)
	ph.tpsQ1, ph.tpsQ3, _ = quartiles(taskRates)
	ph.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	ph.mallocs = float64(m1.Mallocs - m0.Mallocs)
	ph.missRatio = -1
	if simulated > 0 {
		ph.missRatio = float64(misses) / float64(simulated)
	}
	return ph, nil
}

// serviceName names each workload's unit of service in the figures the
// JSON line leaves out.
var serviceName = map[string]string{"corpus": "event", "frontdoor": "submit", "heartbeat": "heartbeat"}

// report fills the end-to-end metrics and prints them, then prints the
// workload's figures that the JSON line leaves out: wall-clock throughput,
// figures defined only on some workloads, and allocated bytes, which swing
// with the pool refills after each collection.
func report(out io.Writer, ms map[string]metric, ph phase, setup float64, name string) {
	sort.Float64s(ph.lat)
	at := func(p float64) float64 { return ph.lat[rank(p, len(ph.lat))-1] }
	vals := map[string]float64{
		"tasks_per_cpu_s":     ph.tps,
		"service_p50_us":      at(50),
		"service_p90_us":      at(90),
		"allocs_per_workflow": ph.mallocs / float64(ph.workflows),
		"setup_s":             setup,
	}
	for _, m := range endToEnd {
		ms[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		fmt.Fprintf(out, "metric %-26s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Fprintf(out, "# tasks_per_cpu_s over %d passes: q1 %.6g, q3 %.6g\n", ph.passes, ph.tpsQ1, ph.tpsQ3)
	svc := serviceName[name]
	p, _ := highestPercentile(len(ph.lat))
	fmt.Fprintf(out, "# %s latency samples %d; highest percentile with ten beyond: p%g = %.6g us\n", svc, len(ph.lat), p, at(p))
	fmt.Fprintf(out, "metric %-26s %14.6g 1/s\n", "workflows_per_s", ph.wps)
	fmt.Fprintf(out, "metric %-26s %14.6g bytes\n", "alloc_bytes_per_workflow", ph.allocBytes/float64(ph.workflows))
	if ph.missRatio >= 0 {
		fmt.Fprintf(out, "metric %-26s %14.6g ratio\n", "deadline_miss_ratio", ph.missRatio)
	}
	if svc != "event" {
		fmt.Fprintf(out, "metric %-26s %14.6g us\n", svc+"_p50_us", at(50))
		fmt.Fprintf(out, "metric %-26s %14.6g us\n", svc+"_p99_us", at(99))
	}
}

// named lists a metric with its unit.
type named struct{ name, unit string }

// endToEnd is the untraced run's JSON metric set, in BENCHMARK.json order.
var endToEnd = []named{
	{"tasks_per_cpu_s", "1/s"},
	{"service_p50_us", "us"},
	{"service_p90_us", "us"},
	{"allocs_per_workflow", "count"},
	{"setup_s", "s"},
}

// perLayer is the traced run's JSON metric set, in BENCHMARK.json order.
// Every workload reports all of them; a layer a workload does not reach
// reads 0.
var perLayer = []named{
	{"cluster.events", "count"},
	{"cluster.ns_per_event", "ns"},
	{"cluster.speculative_attempts", "count"},
	{"core.next_task_ns", "ns"},
	{"core.calls", "count"},
	{"scheduler.next_task_ns", "ns"},
	{"scheduler.calls", "count"},
	{"planner.plan_us_p50", "us"},
	{"planner.plans", "count"},
	{"planner.sims_per_plan", "count"},
	{"admission.decide_us_p50", "us"},
	{"admission.decide_us_p99", "us"},
	{"admission.decisions", "count"},
	{"admission.defers", "count"},
	{"admission.rejects", "count"},
	{"admission.useful_ratio", "ratio"},
	{"federation.route_ns", "ns"},
	{"federation.routes", "count"},
	{"live.beats", "count"},
	{"live.assignments_per_beat", "count"},
	{"live.idle_beat_ratio", "ratio"},
	{"live.policy_ns", "ns"},
	{"live.mutex_wait_ms", "ms"},
	{"cpu.simtime", "ratio"},
	{"cpu.cluster", "ratio"},
	{"cpu.core", "ratio"},
	{"cpu.dsl", "ratio"},
	{"cpu.scheduler", "ratio"},
	{"cpu.workflow", "ratio"},
	{"cpu.plan", "ratio"},
	{"cpu.planner", "ratio"},
	{"cpu.admission", "ratio"},
	{"cpu.federation", "ratio"},
	{"cpu.live", "ratio"},
	{"cpu.runtime", "ratio"},
	{"cpu.other", "ratio"},
	{"trace.untraced_workflows_per_s", "1/s"},
	{"trace.traced_workflows_per_s", "1/s"},
	{"trace.overhead_ratio", "ratio"},
}

var layerUnit = func() map[string]string {
	m := map[string]string{}
	for _, l := range perLayer {
		m[l.name] = l.unit
	}
	return m
}()

// mean returns sum/n, or 0 when n is 0 (a layer the workload never calls).
func mean(sum, n float64) float64 {
	if n == 0 {
		return 0
	}
	return sum / n
}

// pct returns the p-th percentile of a span's durations in µs, 0 if none.
func pct(st spanStats, p float64) float64 {
	if len(st.durs) == 0 {
		return 0
	}
	return percentile(st.durs, p) / 1e3
}

// measureProfiled is an untraced measure with the CPU profiler and the
// mutex profiler running. It buckets both by module and keeps the raw
// profiles beside the spans.
func measureProfiled(w bench, d time.Duration, name string, seed int64) (phase, error) {
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return phase{}, fmt.Errorf("cpu profile: %w", err)
	}
	prev := runtime.SetMutexProfileFraction(1)
	ph, err := measure(w, d, nil, 0)
	runtime.SetMutexProfileFraction(prev)
	pprof.StopCPUProfile()
	if err != nil {
		return ph, err
	}
	cp, err := parseProfile(cpu.Bytes())
	if err != nil {
		return ph, err
	}
	col, err := cp.column("cpu/nanoseconds")
	if err != nil {
		return ph, err
	}
	ph.cpu = cp.flatShares(col)

	var mu bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&mu, 0); err != nil {
		return ph, fmt.Errorf("mutex profile: %w", err)
	}
	mp, err := parseProfile(mu.Bytes())
	if err != nil {
		return ph, err
	}
	if col, err = mp.column("delay/nanoseconds"); err != nil {
		return ph, err
	}
	ph.mutexMs = float64(mp.weightIn(col, "live")) / 1e6
	for kind, raw := range map[string][]byte{"cpu": cpu.Bytes(), "mutex": mu.Bytes()} {
		path := filepath.Join(outDir, fmt.Sprintf("%s-%s-seed%d.pprof", kind, name, seed))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return ph, err
		}
	}
	return ph, nil
}
