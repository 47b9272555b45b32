// Command perfbench is the repository benchmark. It drives the system from
// outside, through its public entry points — scenario.GridSweepStream for
// batch sweeps, an in-process serve.Server over loopback HTTP for the
// daemon — on one of two seeded workloads, checks every output against an
// independent reference, and prints one JSON object as its last line of
// output.
//
//	go run . --workload grid-storm --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics. With --trace 1
// the run measures the workload untraced and then traced, records spans
// around each call it makes into a layer, writes them as Chrome trace-event
// JSON under --out, prints a per-layer table and reports the per-layer
// metrics. DESIGN.md lists the workloads, their parameters and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// benchConfig is one invocation's settings.
type benchConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	// workers sizes the sweep pool, the daemon's pool and the generator's
	// connection limit: nproc.
	workers int
	outDir  string
}

// phaseResult is what one phase of a measurement observed. Every
// operation (a job) is sent, then either succeeds or fails; a failure is a
// panic, an error row, a fingerprint mismatch, a rejected submit, a
// non-done terminal state or a broken stream.
type phaseResult struct {
	name                    string
	sent, succeeded, failed int
	errors                  []string
	// ttfr, fresh and cached are the daemon phases' per-job latencies in
	// ms: due time to first row, and due time to done for simulated and
	// fully cached jobs.
	ttfr, fresh, cached []float64
	peakLiveMB          float64
	serve               serveCounters
}

// measurement is what one measure call observed: every phase that ran,
// and the figures the end-to-end metrics come from. A workload runs its
// job set for several rounds, and each latency sample is one job's best
// round (DESIGN.md, Noise).
type measurement struct {
	phases []*phaseResult
	// runsPerS and jobsPerS are verified simulation runs and jobs per
	// second of host time.
	runsPerS, jobsPerS float64
	// ttfr, fresh and cached are per-job latency samples in ms.
	ttfr, fresh, cached []float64
	// sloMet of sloJobs distinct jobs finished within the workload's
	// latency limit in their best round; a job that failed in any round
	// misses it.
	sloMet, sloJobs int
	// allocBytes is heap allocated while the system worked, charged to
	// allocRuns simulated runs.
	allocBytes uint64
	allocRuns  int
}

// serveCounters are the daemon-side layer figures of a phase.
type serveCounters struct {
	submitMS     []float64
	inflight     []float64
	streamBytes  int64
	streamedJobs int
	rejected429  int
	lateMaxMS    float64
	cacheHits    uint64
	cacheLookups uint64
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// setup builds the workload's inputs from the seed and brings the
	// system up, then tears it down; measured several times per run.
	setup func(cfg benchConfig) error
	// measure runs the workload's fixed job set and verifies every job.
	measure func(cfg benchConfig, tr *tracer) (*measurement, error)
	// layers computes the per-layer metrics on the workload's fixed,
	// seed-determined count set.
	layers func(cfg benchConfig, tr *tracer) (map[string]float64, error)
	// warm runs a few of the workload's jobs untimed, so lazily built
	// tables and the heap's steady size are in place before measuring.
	warm func(cfg benchConfig) error
}

func workloads() map[string]workloadDef {
	return map[string]workloadDef{
		"grid-storm":  gridStorm,
		"daemon-jobs": daemonJobs,
	}
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string, stderr io.Writer) (benchConfig, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg benchConfig
	var seconds float64
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: grid-storm or daemon-jobs")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&seconds, "seconds", 30, "seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", ".bench_out", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads()[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		return cfg, fmt.Errorf("bad --seconds %v or --trace %d", seconds, traceFlag)
	}
	cfg.workers = runtime.NumCPU()
	cfg.duration = time.Duration(seconds * float64(time.Second))
	cfg.trace = traceFlag == 1
	return cfg, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a run sets the workload up; setup_s is
// their median.
const setupReps = 25

func run(cfg benchConfig, out io.Writer) (result, error) {
	w := workloads()[cfg.workload]
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(cfg); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := checkGoldenAnchor(); err != nil {
		return result{}, err
	}
	if err := w.warm(cfg); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}

	measured, err := w.measure(cfg, nil)
	if err != nil {
		return result{}, err
	}
	e2e := endToEnd(measured, median(setups))
	res := result{Correct: true, Metrics: map[string]metric{}}
	fmt.Fprintf(out, "%s latency samples: ttfr n=%d, fresh n=%d, cached n=%d\n",
		w.name, len(measured.ttfr), len(measured.fresh), len(measured.cached))
	for _, ph := range measured.phases {
		reportPhase(out, w.name, ph)
		res.Attempted += ph.sent
		res.Failed += ph.failed
	}
	if !cfg.trace {
		for _, d := range endToEndMetrics {
			res.Metrics[d.name] = metric{Value: e2e[d.name], Unit: d.unit}
		}
		res.Correct = res.Failed == 0
		return res, nil
	}

	tr := newTracer()
	tmeasured, err := w.measure(cfg, tr)
	if err != nil {
		return result{}, err
	}
	traced := endToEnd(tmeasured, median(setups))
	for _, ph := range tmeasured.phases {
		reportPhase(out, w.name+" (traced)", ph)
		res.Attempted += ph.sent
		res.Failed += ph.failed
	}
	layer, err := w.layers(cfg, tr)
	if err != nil {
		return result{}, err
	}
	layer["tracing.runs_per_s_delta"] = traced["runs_per_s"] - e2e["runs_per_s"]
	layer["tracing.fresh_job_ms_p50_delta"] = traced["fresh_job_ms_p50"] - e2e["fresh_job_ms_p50"]
	layer["fail_share"] = share(float64(res.Failed), float64(res.Attempted))
	all := append(append([]*phaseResult(nil), measured.phases...), tmeasured.phases...)
	peak := 0.0
	for _, ph := range all {
		peak = max(peak, ph.peakLiveMB)
	}
	layer["process.peak_live_heap_mb"] = peak
	addServeLayers(layer, all)
	path, err := tr.write(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s: spans written to %s\n", w.name, path)
	printLayerTable(out, w.name, layer)
	for _, d := range perLayerMetrics {
		v, ok := layer[d.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEnd derives the end-to-end metrics from a measurement; ok_share
// counts every phase.
func endToEnd(m *measurement, setupS float64) map[string]float64 {
	var sent, ok int
	for _, p := range m.phases {
		sent += p.sent
		ok += p.succeeded
	}
	return map[string]float64{
		"runs_per_s":        m.runsPerS,
		"alloc_mb_per_run":  share(float64(m.allocBytes)/(1<<20), float64(m.allocRuns)),
		"job_ttfr_ms_p50":   median(m.ttfr),
		"job_ttfr_ms_p90":   quantile(m.ttfr, 0.9),
		"fresh_job_ms_p50":  median(m.fresh),
		"fresh_job_ms_p90":  quantile(m.fresh, 0.9),
		"cached_job_ms_p50": median(m.cached),
		"job_slo_share":     share(float64(m.sloMet), float64(m.sloJobs)),
		"daemon_jobs_per_s": m.jobsPerS,
		"ok_share":          share(float64(ok), float64(sent)),
		"setup_s":           setupS,
	}
}

func reportPhase(out io.Writer, name string, ph *phaseResult) {
	fmt.Fprintf(out, "%s %s: sent %d, succeeded %d, failed %d\n", name, ph.name, ph.sent, ph.succeeded, ph.failed)
	for i, e := range ph.errors {
		if i == 5 {
			fmt.Fprintf(out, "  ... %d more failures\n", len(ph.errors)-5)
			break
		}
		fmt.Fprintf(out, "  failure: %s\n", e)
	}
}

func printLayerTable(out io.Writer, name string, layer map[string]float64) {
	names := make([]string, 0, len(layer))
	for n := range layer {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "per-layer metrics, workload %s\n", name)
	for _, n := range names {
		fmt.Fprintf(out, "  %-36s %16.6g\n", n, layer[n])
	}
}
