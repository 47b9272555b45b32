package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spotserve/internal/experiments"
	"spotserve/internal/scenario"
)

// parallelWorkers is the pool size the exact-count tests compare against a
// single worker: every core, and at least two.
func parallelWorkers() int {
	if n := runtime.NumCPU(); n > 2 {
		return n
	}
	return 2
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// tables in step, and holds the file to the benchmark contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []def `json:"end_to_end"`
		PerLayer   []def `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		if _, ok := workloads()[w.Name]; !ok || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: unknown or bad why", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists workloads %v, program has %d", names, len(workloads()))
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: %+v, program has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bad bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics, true)
	check("per_layer", b.PerLayer, perLayerMetrics, false)
}

// resultsVia runs one batch job through its parallel entry point at the
// given pool size and returns every replica's Result in sweep order.
func resultsVia(t *testing.T, j batchJob, workers int) []experiments.Result {
	t.Helper()
	scs, err := j.grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]experiments.Result, len(scs))
	capture := func(i int, r experiments.Result, _ bool) { out[i] = r }
	if _, err := scenario.GridSweepStream(j.grid, experiments.Sweep{Parallel: workers, OnResult: capture}, nil); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCountsRepeatExactly pins the exact-count contract: at a fixed seed the
// count metrics repeat bit for bit across two serial probes and across one
// worker versus every core on the workload's own parallel path.
func TestCountsRepeatExactly(t *testing.T) {
	jobs := gridStormJobs(7, 4)
	serial := func() map[string]float64 {
		p := &layerProbe{}
		for _, j := range jobs {
			scs, err := j.grid.Cells()
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range scs {
				p.count(experiments.Run(sc))
			}
		}
		return p.counts()
	}
	want := serial()
	if got := serial(); !reflect.DeepEqual(got, want) {
		t.Errorf("serial counts differ between runs:\n%v\n%v", got, want)
	}
	for _, w := range []int{1, parallelWorkers()} {
		p := &layerProbe{}
		for _, j := range jobs {
			for _, r := range resultsVia(t, j, w) {
				p.count(r)
			}
		}
		if got := p.counts(); !reflect.DeepEqual(got, want) {
			t.Errorf("at %d workers: counts %v, serial %v", w, got, want)
		}
	}
	if want["sim.events_per_run"] == 0 || want["core.requests_per_run"] == 0 {
		t.Errorf("empty counts %v", want)
	}
}

// TestStreamBytesRepeatExactly: the NDJSON bytes each daemon job streams
// repeat exactly across daemons and pool sizes.
func TestStreamBytesRepeatExactly(t *testing.T) {
	plans := daemonPlans(7, 6)
	bytesAt := func(workers int) []int64 {
		rig, err := startDaemon(workers, cacheCellsFor(plans))
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := rig.stop(); err != nil {
				t.Error(err)
			}
		}()
		g := &generator{rig: rig, plans: plans}
		var out []int64
		for i := range plans {
			rec := g.launch(i, time.Now())
			g.finish(rec)
			if rec.err != nil {
				t.Fatal(rec.err)
			}
			out = append(out, rec.bytes)
		}
		return out
	}
	want := bytesAt(1)
	for _, w := range []int{1, parallelWorkers()} {
		if got := bytesAt(w); !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: stream bytes %v, want %v", w, got, want)
		}
	}
}

// TestDaemonCacheHoldsEveryRun: each pass's daemon gets a cell cache that
// holds every replica its fresh plans can write, and a cache one cell too
// small is caught as an eviction instead of surfacing as failed repeats.
func TestDaemonCacheHoldsEveryRun(t *testing.T) {
	cfg := benchConfig{seed: 7, duration: 30 * time.Second}
	for _, n := range []int{daemonPassPlans(cfg), daemonOpenPlans(cfg)} {
		plans := daemonPlans(cfg.seed, n)
		need := 0
		for _, p := range plans {
			if !p.fresh {
				continue
			}
			g, err := p.spec.Grid()
			if err != nil {
				t.Fatal(err)
			}
			cells, err := g.Cells()
			if err != nil {
				t.Fatal(err)
			}
			need += len(cells) * p.spec.Seeds
		}
		if got := cacheCellsFor(plans); got < need {
			t.Errorf("%d plans: cache sized for %d cells, plans write %d", n, got, need)
		}
	}

	small := daemonPlans(7, 8)
	run := func(cacheCells int) (*phaseResult, error) {
		rig, err := startDaemon(2, cacheCells)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := rig.stop(); err != nil {
				t.Error(err)
			}
		}()
		g := &generator{rig: rig, plans: small}
		for i := range small {
			g.finish(g.launch(i, time.Now()))
		}
		if _, _, err := rig.cacheStats(); err != nil {
			return nil, err
		}
		counts, err := rig.jobCacheCounts()
		if err != nil {
			t.Fatal(err)
		}
		refs, err := referenceRows(g.recs, small, 2)
		if err != nil {
			t.Fatal(err)
		}
		ph := &phaseResult{name: "test"}
		verifyPass(ph, g.recs, small, refs, counts)
		return ph, nil
	}
	ph, err := run(cacheCellsFor(small))
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 || len(ph.fresh) != 4 || len(ph.cached) != 4 {
		t.Errorf("sized cache: %d failed, %d fresh, %d cached: %v", ph.failed, len(ph.fresh), len(ph.cached), ph.errors)
	}
	if _, err := run(cacheCellsFor(small) - 1); err == nil {
		t.Error("a cache one cell too small evicted without an error")
	}
}

// TestOracleCatchesWrongOutput: a batch job whose fingerprint was tampered
// with, or a daemon row that does not match its reference, fails.
func TestOracleCatchesWrongOutput(t *testing.T) {
	job := gridStormJobs(3, 1)[0]
	jr := runBatchJob(job, 2, nil)
	bad := jr
	bad.fps = append([]string(nil), jr.fps...)
	bad.fps[3] = strings.Repeat("0", 64)
	_, errs := verifyBatchJob(job, []jobRun{jr, bad}, 2)
	if errs[0] != nil {
		t.Fatalf("untouched job: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("verify accepted a wrong fingerprint")
	}

	ref := []scenario.GridRow{{Fingerprints: []string{"a", "b"}}, {Fingerprints: []string{"c", "d"}}}
	good := &jobRecord{rows: map[int][]string{0: {"a", "b"}, 1: {"c", "d"}}}
	if err := checkRows(good, ref); err != nil {
		t.Fatal(err)
	}
	for _, rows := range []map[int][]string{
		{0: {"a", "b"}, 1: {"c", "x"}},
		{0: {"a", "b"}},
		{0: {"a", "b"}, 2: {"c", "d"}},
	} {
		if err := checkRows(&jobRecord{rows: rows}, ref); err == nil {
			t.Errorf("checkRows accepted %v", rows)
		}
	}
}

// TestRunReportsEveryMetric runs each workload briefly, untraced and
// traced, and checks the result line carries every metric with correct
// outputs, and the traced run writes a Chrome trace-event file.
func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads() {
		cfg := benchConfig{workload: name, seed: 5, duration: 400 * time.Millisecond,
			workers: 2, outDir: t.TempDir()}
		if name == "daemon-jobs" {
			cfg.duration = time.Second // enough open-loop jobs to include repeats
		}
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range endToEndMetrics {
			m, ok := res.Metrics[d.name]
			// job_slo_share may be 0 when the host is slow enough (say,
			// under the race detector) that no job meets its limit.
			zeroOK := d.name == "job_slo_share" && m.Value == 0
			if !ok || (m.Value <= 0 && !zeroOK) || m.Unit != d.unit {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", name, d.name, m, ok)
			}
		}
		cfg.trace = true
		res, err = run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if len(res.Metrics) != len(perLayerMetrics) || !res.Correct {
			t.Errorf("%s traced: %d metrics, correct=%v", name, len(res.Metrics), res.Correct)
		}
		data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+name+"-seed5.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tf); err != nil || len(tf.TraceEvents) == 0 {
			t.Errorf("%s: trace file: %v, %d events", name, err, len(tf.TraceEvents))
		}
	}
}

func TestParseFlagsRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "grid-storm", "--trace", "2"},
		{"--workload", "grid-storm", "--seconds", "0"},
		{"--workload", "grid-storm", "--workers", "4"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) accepted bad input", args)
		}
	}
}
