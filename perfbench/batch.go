package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"spotserve/internal/experiments"
	"spotserve/internal/model"
	"spotserve/internal/scenario"
)

// batchJob is one in-process sweep call: a FullGrid sub-grid at one seed
// through scenario.GridSweepStream.
type batchJob struct {
	name string
	grid scenario.Grid
}

// jobSeed draws replica seeds well away from the small seeds the tests and
// goldens use, so a run's inputs come from the benchmark seed alone.
func jobSeed(rng *rand.Rand) int64 { return 1000 + rng.Int63n(1<<30) }

// gridStormJobs returns the first n grid-storm jobs for the seed. FullGrid
// (17 availability variants × 5 policies × 4 fleets × 3 markets) is cut
// into 170 six-cell sub-grids, one per (availability variant, policy, pair
// of fleets). Each pass visits all 170 in a fresh seeded order, each job at
// its own seeded replica seed, so any 170 consecutive jobs cover the whole
// grid. Whole passes keep the seed from choosing which cells a run
// measures: only the replica seeds and the order change.
func gridStormJobs(seed int64, n int) []batchJob {
	full := scenario.FullGrid()
	policies := full.Policies
	if len(policies) == 0 {
		policies = scenario.Policies()
	}
	type part struct {
		avail, policy string
		fleets        []string
	}
	var parts []part
	for _, a := range full.Avail {
		for _, p := range policies {
			for f := 0; f < len(full.Fleets); f += 2 {
				parts = append(parts, part{a, p, full.Fleets[f:min(f+2, len(full.Fleets))]})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var out []batchJob
	for len(out) < n {
		for _, i := range rng.Perm(len(parts)) {
			if len(out) == n {
				break
			}
			g := full
			g.Avail = []string{parts[i].avail}
			g.Policies = []string{parts[i].policy}
			g.Fleets = parts[i].fleets
			g.Seed = jobSeed(rng)
			out = append(out, batchJob{name: fmt.Sprintf("%s/%s/%s", parts[i].avail, parts[i].policy, parts[i].fleets[0]), grid: g})
		}
	}
	return out
}

// jobRun is what one measured sweep call produced: its timings, how many
// runs the result cache served, and the fingerprint of every run in sweep
// order.
type jobRun struct {
	start       time.Time
	first, done time.Time
	allocs      uint64
	cacheHits   int
	fps         []string
	err         error
}

// runBatchJob executes one job through scenario.GridSweepStream. Only the
// sweep call itself is inside [start, done].
func runBatchJob(job batchJob, workers int, cache experiments.ResultCache) (jr jobRun) {
	defer func() {
		if p := recover(); p != nil {
			jr.err = fmt.Errorf("job %s panicked: %v", job.name, p)
		}
	}()
	a0 := heapAllocs()
	sw := experiments.Sweep{Parallel: workers, Cache: cache,
		OnResult: func(_ int, _ experiments.Result, fromCache bool) {
			if fromCache {
				jr.cacheHits++
			}
		}}
	jr.start = time.Now()
	rows, err := scenario.GridSweepStream(job.grid, sw, func(int, scenario.GridRow) {
		if jr.first.IsZero() {
			jr.first = time.Now()
		}
	})
	jr.done = time.Now()
	jr.allocs = heapAllocs() - a0
	if err != nil {
		jr.err = fmt.Errorf("job %s: %w", job.name, err)
		return jr
	}
	for _, r := range rows {
		if r.Err != "" || len(r.Fingerprints) != 1 {
			jr.err = fmt.Errorf("job %s: bad row %s/%s/%s: %q", job.name, r.Avail, r.Policy, r.Fleet, r.Err)
			return jr
		}
		jr.fps = append(jr.fps, r.Fingerprints[0])
	}
	return jr
}

// parallelFor calls f(0..n-1) on `workers` goroutines and waits for them.
func parallelFor(n, workers int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// mapCache is an in-memory experiments.ResultCache.
type mapCache struct {
	mu sync.Mutex
	m  map[string]experiments.Result
}

func (c *mapCache) Get(key string) (experiments.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	return r, ok
}

func (c *mapCache) Put(key string, r experiments.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = r
}

// references runs every scenario directly through experiments.Run with the
// reconfiguration cache off — the cold reference path — and fingerprints
// each, spread over workers goroutines. Each reference is a plain serial
// Run; the goroutines only shorten the check's wall time.
func references(scs []experiments.Scenario, workers int) ([]experiments.Result, []string, error) {
	out := make([]experiments.Result, len(scs))
	fps := make([]string, len(scs))
	errs := make([]error, len(scs))
	parallelFor(len(scs), workers, func(i int) {
		defer func() {
			if p := recover(); p != nil {
				errs[i] = fmt.Errorf("reference run panicked: %v", p)
			}
		}()
		sc := scs[i]
		sc.DisableReconfigCache = true
		out[i] = experiments.Run(sc)
		fps[i] = out[i].Fingerprint()
	})
	return out, fps, errors.Join(errs...)
}

// verifyBatchJob checks every round of one job against the cache-off
// references, then replays the job through a result cache holding those
// references. Every replayed run must come from the cache and carry the
// same fingerprints. It returns the replay's latency and one error per
// round (nil when that round's output was right); a failed reference or
// replay fails every round.
func verifyBatchJob(job batchJob, jrs []jobRun, workers int) (cachedMS float64, errs []error) {
	errs = make([]error, len(jrs))
	failAll := func(err error) (float64, []error) {
		for k := range errs {
			if errs[k] == nil {
				errs[k] = err
			}
		}
		return 0, errs
	}
	scs, err := job.grid.Cells()
	if err != nil {
		return failAll(err)
	}
	refs, refFPs, err := references(scs, workers)
	if err != nil {
		return failAll(fmt.Errorf("job %s: %w", job.name, err))
	}
	for k, jr := range jrs {
		switch {
		case jr.err != nil:
			errs[k] = jr.err
		case len(jr.fps) != len(scs):
			errs[k] = fmt.Errorf("job %s: %d results for %d runs", job.name, len(jr.fps), len(scs))
		default:
			for i := range scs {
				if jr.fps[i] != refFPs[i] {
					errs[k] = fmt.Errorf("job %s run %d: fingerprint %.12s, cache-off reference %.12s", job.name, i, jr.fps[i], refFPs[i])
					break
				}
			}
		}
	}
	cache := &mapCache{m: map[string]experiments.Result{}}
	for i, r := range refs {
		key, ok := scs[i].CacheKey()
		if !ok {
			return failAll(fmt.Errorf("job %s run %d: scenario is not cacheable", job.name, i))
		}
		cache.Put(key, r)
	}
	// The reference pass's garbage is collected first, and the fastest of
	// three replays is reported, so a collection does not land on a
	// millisecond-sized sample.
	runtime.GC()
	cachedMS = -1
	for k := 0; k < 3; k++ {
		replay := runBatchJob(job, workers, cache)
		if replay.err != nil {
			return failAll(replay.err)
		}
		if replay.cacheHits != len(scs) {
			return failAll(fmt.Errorf("job %s: cached replay served %d of %d runs from the cache", job.name, replay.cacheHits, len(scs)))
		}
		for i := range replay.fps {
			if replay.fps[i] != refFPs[i] {
				return failAll(fmt.Errorf("job %s run %d: cached replay fingerprint differs", job.name, i))
			}
		}
		if d := ms(replay.done.Sub(replay.start)); cachedMS < 0 || d < cachedMS {
			cachedMS = d
		}
	}
	return cachedMS, errs
}

// Grid-storm sizing (DESIGN.md records why).
const (
	// gridStormRounds is how many times a run executes its job set, each
	// round in its own seeded order. A job's figures are its best round.
	gridStormRounds = 3
	// gridStormJobsPerSec is about how many jobs the reference 2-vCPU host
	// runs per second; it sizes the job set so that all rounds take about
	// --seconds there. At 30 s the set is one whole pass: 170 jobs.
	gridStormJobsPerSec = 17
	// batchLimitMS is the job latency limit behind job_slo_share.
	batchLimitMS = 300
	// gridStormCountSet is how many leading jobs the per-layer probes
	// replay.
	gridStormCountSet = 6
	// warmJobs is how many leading jobs a run executes untimed before it
	// measures.
	warmJobs = 4
)

// gridStormJobCount is the size of a run's job set.
func gridStormJobCount(cfg benchConfig) int {
	return max(1, int(math.Round(cfg.duration.Seconds()*gridStormJobsPerSec/gridStormRounds)))
}

// measureBatch runs the job set gridStormRounds times, jobs back to back —
// one closed-loop client, like the daemon's single runner — then verifies
// every execution. The latency samples are each job's best round, and the
// throughput figures divide by the sum of those best times. A job meets
// the latency limit when every round succeeded and its best round was
// within the limit.
func measureBatch(jobs []batchJob, cfg benchConfig, tr *tracer) *measurement {
	ph := &phaseResult{name: "closed-loop"}
	m := &measurement{phases: []*phaseResult{ph}}
	watch := watchHeap(50 * time.Millisecond)
	rng := rand.New(rand.NewSource(cfg.seed))
	runs := make([][]jobRun, len(jobs))
	for round := 0; round < gridStormRounds; round++ {
		for _, i := range rng.Perm(len(jobs)) {
			jr := runBatchJob(jobs[i], cfg.workers, nil)
			if tr != nil {
				req := fmt.Sprintf("job-%d/round-%d", i, round)
				id := tr.add("scenario.GridSweepStream", req, 0, jr.start, jr.done)
				if !jr.first.IsZero() {
					tr.add("first-row", req, id, jr.start, jr.first)
				}
			}
			runs[i] = append(runs[i], jr)
		}
	}
	ph.peakLiveMB = watch.stop()
	var bestSum time.Duration
	var jobsOK, runsOK int
	for i, jrs := range runs {
		cachedMS, errs := verifyBatchJob(jobs[i], jrs, cfg.workers)
		var best, bestFirst time.Duration
		for k, jr := range jrs {
			ph.sent++
			m.allocBytes += jr.allocs
			m.allocRuns += len(jr.fps)
			if errs[k] != nil {
				ph.failed++
				ph.errors = append(ph.errors, errs[k].Error())
				continue
			}
			ph.succeeded++
			d, first := jr.done.Sub(jr.start), jr.first.Sub(jr.start)
			if best == 0 || d < best {
				best = d
			}
			if bestFirst == 0 || first < bestFirst {
				bestFirst = first
			}
		}
		m.sloJobs++
		if best == 0 {
			continue
		}
		if errors.Join(errs...) == nil && ms(best) <= batchLimitMS {
			m.sloMet++
		}
		jobsOK++
		runsOK += len(jrs[0].fps)
		bestSum += best
		m.ttfr = append(m.ttfr, ms(bestFirst))
		m.fresh = append(m.fresh, ms(best))
		m.cached = append(m.cached, cachedMS)
	}
	m.runsPerS = share(float64(runsOK), bestSum.Seconds())
	m.jobsPerS = share(float64(jobsOK), bestSum.Seconds())
	return m
}

var gridStorm = workloadDef{
	name: "grid-storm",
	setup: func(cfg benchConfig) error {
		for _, j := range gridStormJobs(cfg.seed, gridStormJobCount(cfg)) {
			if _, err := j.grid.Cells(); err != nil {
				return err
			}
		}
		return nil
	},
	measure: func(cfg benchConfig, tr *tracer) (*measurement, error) {
		return measureBatch(gridStormJobs(cfg.seed, gridStormJobCount(cfg)), cfg, tr), nil
	},
	layers: func(cfg benchConfig, tr *tracer) (map[string]float64, error) {
		return batchLayers(gridStormJobs(cfg.seed, gridStormCountSet), scenario.FullGrid().Model, cfg, tr)
	},
	warm: func(cfg benchConfig) error {
		for _, j := range gridStormJobs(cfg.seed, warmJobs) {
			if err := runBatchJob(j, cfg.workers, nil).err; err != nil {
				return err
			}
		}
		return nil
	},
}

// batchLayers probes a batch workload's count set.
func batchLayers(jobs []batchJob, spec model.Spec, cfg benchConfig, tr *tracer) (map[string]float64, error) {
	p := &layerProbe{tr: tr, workers: cfg.workers}
	for _, j := range jobs {
		scs, err := j.grid.Cells()
		if err != nil {
			return nil, err
		}
		err = p.job(probeJob{name: j.name, scs: scs, perCell: 1, grid: true,
			cells: func() error { _, err := j.grid.Cells(); return err },
			parallel: func() (time.Time, time.Time, error) {
				jr := runBatchJob(j, cfg.workers, nil)
				return jr.start, jr.done, jr.err
			}})
		if err != nil {
			return nil, err
		}
	}
	return p.metrics(spec), nil
}
