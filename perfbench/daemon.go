package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"spotserve/internal/experiments"
	"spotserve/internal/scenario"
	"spotserve/internal/serve"
)

// Daemon workload parameters (DESIGN.md records why).
const (
	// daemonRounds is how many times a run sends its plan set in each
	// closed-loop phase, each time to a fresh daemon. A job's latency is
	// its best round, a phase's throughput its best round.
	daemonRounds = 2
	// daemonJobsPerSec is about how many jobs of this mix the reference
	// 2-vCPU host's daemon finishes per second; it sizes the plan set so
	// that every round of both closed-loop phases takes about --seconds
	// there.
	daemonJobsPerSec = 29
	// openLoopRate is the traced open-loop phase's fixed job rate in
	// jobs/s, about half of one runner's capacity on this job mix at 2
	// workers.
	openLoopRate float64 = 16
	// openLoopShare is the open loop's length as a share of --seconds.
	openLoopShare = 0.45
	// daemonLimitMS is the latency limit behind job_slo_share.
	daemonLimitMS = 1000.0
	// streamCountSet: serve.stream_bytes_per_job averages the jobs of the
	// first streamCountSet plans, a seed-determined set, so it is an exact
	// count.
	streamCountSet = 48
)

// jobPlan is one planned daemon job: a spec shaped like examples/daemon's
// (2 availability models × 2 policies × 1 fleet × 2 seeds), either fresh —
// seeds no earlier job used, so every replica simulates — or a repeat of an
// earlier fresh spec, served from the cell cache.
type jobPlan struct {
	spec  scenario.JobSpec
	body  []byte
	fresh bool
	// origin is the index of the fresh plan this one repeats (itself when
	// fresh).
	origin int
}

// daemonPlans returns the first n job plans for the seed. Jobs come in
// blocks of two, one fresh and one repeat in seeded order (the first
// block starts fresh), so half of the jobs simulate. Fresh specs
// cycle through every (pair of daemonModels, fleet) combination in seeded
// order — the axes that set a job's cost — with a seeded policy pair each.
// A repeat names a seeded earlier fresh spec. The mix is an assumption: no
// recorded daemon traffic exists.
func daemonPlans(seed int64, n int) []jobPlan {
	rng := rand.New(rand.NewSource(seed))
	policies := scenario.Policies()
	type combo struct {
		avail []string
		fleet string
	}
	var combos []combo
	for i := range daemonModels {
		for j := i + 1; j < len(daemonModels); j++ {
			for _, f := range scenario.Fleets() {
				combos = append(combos, combo{[]string{daemonModels[i], daemonModels[j]}, f})
			}
		}
	}
	seedBase := jobSeed(rng)
	var out, fresh []jobPlan
	var cycle []int
	for len(out) < n {
		block := rng.Perm(2) // 0 is the fresh job, 1 the repeat
		if len(out) == 0 {
			block = []int{0, 1}
		}
		for _, b := range block {
			if len(out) == n {
				break
			}
			if b == 1 {
				orig := fresh[rng.Intn(len(fresh))]
				orig.fresh = false
				out = append(out, orig)
				continue
			}
			if len(cycle) == 0 {
				cycle = rng.Perm(len(combos))
			}
			c := combos[cycle[0]]
			cycle = cycle[1:]
			pp := rng.Perm(len(policies))
			spec := scenario.JobSpec{
				Avail:    c.avail,
				Policies: []string{policies[pp[0]], policies[pp[1]]},
				Fleets:   []string{c.fleet},
				Seed:     seedBase + int64(2*len(fresh)),
				Seeds:    2,
			}
			body, _ := json.Marshal(spec) // a JobSpec always encodes
			p := jobPlan{spec: spec, body: body, fresh: true, origin: len(out)}
			out = append(out, p)
			fresh = append(fresh, p)
		}
	}
	return out
}

// daemonModels are the availability models daemon jobs draw from: every
// registered model but price-signal, whose cells cost about twice the
// others' (grid-storm covers it). Cheaper, evener fresh jobs keep the open
// loop well below capacity, so a short slowdown of the host does not build
// a queue that swamps the latency figures.
var daemonModels = []string{"diurnal", "bursty", "crunch", "multizone"}

// jobRecord is what the generator saw of one job.
type jobRecord struct {
	plan              int
	due, sent, posted time.Time
	firstRow, done    time.Time
	id                string
	status            int
	rows              map[int][]string
	bytes             int64
	inflightAtSend    int
	err               error
}

// daemonRig is one in-process spotserved on a loopback listener plus the
// generator's HTTP client, limited to `workers` connections.
type daemonRig struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	client *http.Client
	served chan error
}

// cacheCellsFor sizes the daemon's cell cache to hold every replica the
// fresh plans can write, so no run, however fast the host, evicts a cell a
// later repeat names.
func cacheCellsFor(plans []jobPlan) int {
	n := 0
	for _, p := range plans {
		if p.fresh {
			n += jobReplicas(p.spec)
		}
	}
	return n
}

// jobReplicas is the number of per-seed replicas a daemon spec runs.
func jobReplicas(spec scenario.JobSpec) int {
	return len(spec.Avail) * len(spec.Policies) * len(spec.Fleets) * spec.Seeds
}

// startDaemon starts a daemon whose pool has `workers` workers and whose
// cell cache holds cacheCells replicas.
func startDaemon(workers, cacheCells int) (*daemonRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemonRig{
		srv:    serve.New(serve.Options{Parallel: workers, CacheCells: cacheCells}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
		}},
	}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.http.Serve(ln) }()
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return d, nil
}

// stop drains the daemon, closes the listener and waits for the serve
// goroutine to exit.
func (d *daemonRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	derr := d.srv.Shutdown(ctx)
	herr := d.http.Shutdown(ctx)
	d.client.CloseIdleConnections()
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(derr, herr)
}

// submit POSTs the plan's spec and records the job id or the refusal.
func (d *daemonRig) submit(rec *jobRecord, body []byte) {
	rec.sent = time.Now()
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	rec.posted = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return
	}
	defer resp.Body.Close()
	rec.status = resp.StatusCode
	var sub struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		rec.err = fmt.Errorf("submit: status %d", resp.StatusCode)
		return
	}
	if derr != nil || sub.ID == "" {
		rec.err = fmt.Errorf("submit: bad response: %v", derr)
		return
	}
	rec.id = sub.ID
}

// streamLine decodes both NDJSON line kinds: a row (cell + GridRow) and
// the terminal {"done": true, ...} status.
type streamLine struct {
	Done         bool     `json:"done"`
	State        string   `json:"state"`
	Error        string   `json:"error"`
	Cell         *int     `json:"cell"`
	Fingerprints []string `json:"Fingerprints"`
}

// stream reads the job's NDJSON stream to its terminal line.
func (d *daemonRig) stream(rec *jobRecord) {
	resp, err := d.client.Get(d.base + "/jobs/" + rec.id + "/stream")
	if err != nil {
		rec.err = fmt.Errorf("stream: %w", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("stream: status %d", resp.StatusCode)
		return
	}
	rec.rows = map[int][]string{}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		rec.bytes += int64(len(line))
		if len(bytes.TrimSpace(line)) > 0 {
			var l streamLine
			if jerr := json.Unmarshal(line, &l); jerr != nil {
				rec.err = fmt.Errorf("stream: bad line: %w", jerr)
				return
			}
			if l.Done {
				rec.done = time.Now()
				if l.State != string(serve.StateDone) {
					rec.err = fmt.Errorf("job %s ended %s: %s", rec.id, l.State, l.Error)
				}
				io.Copy(io.Discard, resp.Body)
				return
			}
			if rec.firstRow.IsZero() {
				rec.firstRow = time.Now()
			}
			if l.Cell == nil || l.Error != "" {
				rec.err = fmt.Errorf("job %s: error row: %q", rec.id, l.Error)
				return
			}
			if _, dup := rec.rows[*l.Cell]; dup {
				rec.err = fmt.Errorf("job %s: cell %d streamed twice", rec.id, *l.Cell)
				return
			}
			rec.rows[*l.Cell] = l.Fingerprints
		}
		if err != nil {
			rec.err = fmt.Errorf("stream broke before done: %w", err)
			return
		}
	}
}

// jobCacheCounts reads every job's cache hits and misses from GET /jobs.
func (d *daemonRig) jobCacheCounts() (map[string][2]int, error) {
	var list struct {
		Jobs []serve.Status `json:"jobs"`
	}
	if err := d.getJSON("/jobs", &list); err != nil {
		return nil, err
	}
	out := map[string][2]int{}
	for _, st := range list.Jobs {
		out[st.ID] = [2]int{st.CacheHits, st.CacheMisses}
	}
	return out, nil
}

func (d *daemonRig) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// generator runs a phase's jobs and keeps the in-flight count.
type generator struct {
	rig      *daemonRig
	plans    []jobPlan
	tr       *tracer
	mu       sync.Mutex
	inflight int
	recs     []*jobRecord
}

// launch submits plan i (the caller serializes launches, so submission
// order is plan order and a repeat always queues behind its origin).
func (g *generator) launch(i int, due time.Time) *jobRecord {
	rec := &jobRecord{plan: i, due: due}
	g.mu.Lock()
	rec.inflightAtSend = g.inflight
	g.inflight++
	g.recs = append(g.recs, rec)
	g.mu.Unlock()
	g.rig.submit(rec, g.plans[i].body)
	return rec
}

// finish streams a submitted job to its end.
func (g *generator) finish(rec *jobRecord) {
	if rec.err == nil {
		g.rig.stream(rec)
	}
	if rec.done.IsZero() {
		rec.done = time.Now()
	}
	g.mu.Lock()
	g.inflight--
	g.mu.Unlock()
	if g.tr != nil {
		req := rec.id
		if req == "" {
			req = fmt.Sprintf("plan-%d", rec.plan)
		}
		root := g.tr.add("daemon.job", req, 0, rec.due, rec.done)
		g.tr.add("generator.wait", req, root, rec.due, rec.sent)
		g.tr.add("http.POST /jobs", req, root, rec.sent, rec.posted)
		if rec.id != "" {
			sid := g.tr.add("http.GET /jobs/{id}/stream", req, root, rec.posted, rec.done)
			if !rec.firstRow.IsZero() {
				g.tr.add("first-row", req, sid, rec.posted, rec.firstRow)
			}
		}
	}
}

// openLoop sends the plans at a fixed rate. A job holds one of the
// generator's `workers` connections from its submit to its terminal line;
// when all are busy the next job goes out late, and its latency still
// counts from its due time.
func openLoop(rig *daemonRig, plans []jobPlan, workers int, tr *tracer) ([]*jobRecord, time.Duration) {
	g := &generator{rig: rig, plans: plans, tr: tr}
	slots := make(chan struct{}, workers)
	var wg sync.WaitGroup
	start := time.Now()
	rate := openLoopRate
	interval := time.Duration(float64(time.Second) / rate)
	for i := range plans {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		slots <- struct{}{}
		rec := g.launch(i, due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			g.finish(rec)
		}()
	}
	wg.Wait()
	return g.recs, time.Since(start)
}

// closedLoop runs `clients` clients, each sending its next job as soon as
// the previous one ends, until every plan has been sent; it returns when
// the last job ends.
func closedLoop(rig *daemonRig, plans []jobPlan, clients int, tr *tracer) ([]*jobRecord, time.Duration) {
	g := &generator{rig: rig, plans: plans, tr: tr}
	var launchMu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				launchMu.Lock()
				if next == len(plans) {
					launchMu.Unlock()
					return
				}
				rec := g.launch(next, time.Now())
				next++
				launchMu.Unlock()
				g.finish(rec)
			}
		}()
	}
	wg.Wait()
	return g.recs, time.Since(start)
}

// verifyPass checks one pass's job records, marking each failed record
// with its error, and folds them into ph. refs maps a fresh plan's spec to
// its reference rows.
func verifyPass(ph *phaseResult, recs []*jobRecord, plans []jobPlan, refs map[string][]scenario.GridRow,
	counts map[string][2]int) {
	for _, rec := range recs {
		p := plans[rec.plan]
		ph.sent++
		ph.serve.submitMS = append(ph.serve.submitMS, ms(rec.posted.Sub(rec.sent)))
		ph.serve.inflight = append(ph.serve.inflight, float64(rec.inflightAtSend))
		ph.serve.lateMaxMS = max(ph.serve.lateMaxMS, ms(rec.sent.Sub(rec.due)))
		if rec.status == http.StatusTooManyRequests {
			ph.serve.rejected429++
		}
		if rec.err == nil {
			rec.err = checkRows(rec, refs[string(p.body)])
		}
		if rec.err == nil {
			rec.err = checkCacheUse(rec, p, counts)
		}
		if rec.err != nil {
			ph.failed++
			ph.errors = append(ph.errors, fmt.Sprintf("plan %d (%s): %v", rec.plan, rec.id, rec.err))
			continue
		}
		ph.succeeded++
		if rec.plan < streamCountSet {
			ph.serve.streamBytes += rec.bytes
			ph.serve.streamedJobs++
		}
		total := ms(rec.done.Sub(rec.due))
		ph.ttfr = append(ph.ttfr, ms(rec.firstRow.Sub(rec.due)))
		if p.fresh {
			ph.fresh = append(ph.fresh, total)
		} else {
			ph.cached = append(ph.cached, total)
		}
	}
}

// checkRows compares every streamed row with the direct GridSweep of the
// job's spec.
func checkRows(rec *jobRecord, ref []scenario.GridRow) error {
	if len(rec.rows) != len(ref) {
		return fmt.Errorf("streamed %d rows, reference has %d", len(rec.rows), len(ref))
	}
	for cell, fps := range rec.rows {
		if cell < 0 || cell >= len(ref) {
			return fmt.Errorf("row for unknown cell %d", cell)
		}
		if fmt.Sprint(fps) != fmt.Sprint(ref[cell].Fingerprints) {
			return fmt.Errorf("cell %d: fingerprints differ from the direct GridSweep", cell)
		}
	}
	return nil
}

// checkCacheUse holds the mix to its design: a fresh job simulates every
// replica and a repeat is served entirely from the cell cache.
func checkCacheUse(rec *jobRecord, p jobPlan, counts map[string][2]int) error {
	c, ok := counts[rec.id]
	if !ok {
		return fmt.Errorf("job missing from GET /jobs")
	}
	replicas := len(rec.rows) * p.spec.Seeds
	if p.fresh && (c[0] != 0 || c[1] != replicas) {
		return fmt.Errorf("fresh job: %d cache hits / %d misses, want 0 / %d", c[0], c[1], replicas)
	}
	if !p.fresh && (c[0] != replicas || c[1] != 0) {
		return fmt.Errorf("repeat job: %d cache hits / %d misses, want %d / 0", c[0], c[1], replicas)
	}
	return nil
}

// referenceRows runs each fresh plan the recs used through a direct
// scenario.GridSweep — the CLI path — outside any timed section, and
// returns the rows by spec.
func referenceRows(recs []*jobRecord, plans []jobPlan, workers int) (map[string][]scenario.GridRow, error) {
	refs := map[string][]scenario.GridRow{}
	for _, rec := range recs {
		spec := plans[plans[rec.plan].origin]
		key := string(spec.body)
		if _, ok := refs[key]; ok {
			continue
		}
		g, err := spec.spec.Grid()
		if err != nil {
			return nil, err
		}
		sw := spec.spec.Sweep()
		sw.Parallel = workers
		rows, err := scenario.GridSweep(g, sw)
		if err != nil {
			return nil, err
		}
		refs[key] = rows
	}
	return refs, nil
}

// cacheStats reads the daemon's cumulative cell-cache counters. Every miss
// stores a distinct replica (a repeat runs after its origin), so a cache
// holding fewer cells than it missed has evicted one; that is an error,
// because a later repeat could then simulate and count as a failed job.
func (d *daemonRig) cacheStats() (hits, lookups uint64, err error) {
	var st serve.Stats
	if err := d.getJSON("/stats", &st); err != nil {
		return 0, 0, err
	}
	if st.Cache == nil {
		return 0, 0, fmt.Errorf("/stats: cache disabled")
	}
	if uint64(st.Cache.Size) != st.Cache.Misses {
		return 0, 0, fmt.Errorf("cell cache evicted: %d cells held after %d misses (max %d)",
			st.Cache.Size, st.Cache.Misses, st.Cache.Max)
	}
	return st.Cache.Hits, st.Cache.Hits + st.Cache.Misses, nil
}

// daemonPassPlans is the size of a run's plan set: each closed-loop pass
// sends all of it.
func daemonPassPlans(cfg benchConfig) int {
	return max(4, int(math.Round(cfg.duration.Seconds()*daemonJobsPerSec/(2*daemonRounds))))
}

// daemonOpenPlans is how many plans the traced open loop sends.
func daemonOpenPlans(cfg benchConfig) int {
	return max(4, int(openLoopRate*openLoopShare*cfg.duration.Seconds()))
}

// daemonPass is one pass of plans through a fresh daemon.
type daemonPass struct {
	recs          []*jobRecord
	counts        map[string][2]int
	wall          time.Duration
	allocs        uint64
	hits, lookups uint64
}

// runPass starts a daemon whose cache holds every replica the plans can
// write, sends the plans through send, reads the daemon's cache figures
// and stops it.
func runPass(cfg benchConfig, plans []jobPlan, send func(*daemonRig) ([]*jobRecord, time.Duration)) (dp daemonPass, err error) {
	rig, err := startDaemon(cfg.workers, cacheCellsFor(plans))
	if err != nil {
		return dp, err
	}
	defer func() {
		if serr := rig.stop(); serr != nil && err == nil {
			err = fmt.Errorf("daemon shutdown: %w", serr)
		}
	}()
	a0 := heapAllocs()
	dp.recs, dp.wall = send(rig)
	dp.allocs = heapAllocs() - a0
	if dp.hits, dp.lookups, err = rig.cacheStats(); err != nil {
		return dp, err
	}
	dp.counts, err = rig.jobCacheCounts()
	return dp, err
}

// measureDaemon sends the run's plan set daemonRounds times through each
// closed-loop phase, every pass to a fresh daemon, so each pass's fresh
// jobs simulate. The latency phase has one client, so a job's latency is
// its own service time; the capacity phase has nproc clients and keeps
// the runner busy. A traced run then adds an open-loop phase, whose
// figures are per-layer only (DESIGN.md says why). Every job is verified.
func measureDaemon(cfg benchConfig, tr *tracer) (*measurement, error) {
	nPass := daemonPassPlans(cfg)
	nOpen := 0
	if tr != nil {
		nOpen = daemonOpenPlans(cfg)
	}
	plans := daemonPlans(cfg.seed, max(nPass, nOpen))
	lat := &phaseResult{name: "closed-loop, 1 client"}
	capa := &phaseResult{name: fmt.Sprintf("closed-loop, %d clients", cfg.workers)}
	m := &measurement{phases: []*phaseResult{lat, capa}}
	watch := watchHeap(50 * time.Millisecond)
	var latPasses, capPasses []daemonPass
	for round := 0; round < daemonRounds; round++ {
		for _, clients := range []int{1, cfg.workers} {
			dp, err := runPass(cfg, plans[:nPass], func(rig *daemonRig) ([]*jobRecord, time.Duration) {
				return closedLoop(rig, plans[:nPass], clients, tr)
			})
			if err != nil {
				watch.stop()
				return nil, err
			}
			if clients == 1 {
				latPasses = append(latPasses, dp)
			} else {
				capPasses = append(capPasses, dp)
			}
		}
	}
	peak := watch.stop()
	lat.peakLiveMB, capa.peakLiveMB = peak, peak
	var open daemonPass
	if tr != nil {
		var err error
		open, err = runPass(cfg, plans[:nOpen], func(rig *daemonRig) ([]*jobRecord, time.Duration) {
			return openLoop(rig, plans[:nOpen], cfg.workers, tr)
		})
		if err != nil {
			return nil, err
		}
	}

	var recs []*jobRecord
	for _, dp := range append(append(append([]daemonPass(nil), latPasses...), capPasses...), open) {
		recs = append(recs, dp.recs...)
	}
	refs, err := referenceRows(recs, plans, cfg.workers)
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	fold := func(ph *phaseResult, dp daemonPass) {
		verifyPass(ph, dp.recs, plans, refs, dp.counts)
		ph.serve.cacheHits += dp.hits
		ph.serve.cacheLookups += dp.lookups
		m.allocBytes += dp.allocs
		for _, rec := range dp.recs {
			if rec.err == nil && plans[rec.plan].fresh {
				m.allocRuns += jobReplicas(plans[rec.plan].spec)
			}
		}
	}
	// Latency: each plan's best round in the one-client phase.
	bestTotal := make([]float64, nPass)
	bestFirst := make([]float64, nPass)
	failed := make([]bool, nPass)
	for _, dp := range latPasses {
		fold(lat, dp)
		for _, rec := range dp.recs {
			if rec.err != nil {
				failed[rec.plan] = true
				continue
			}
			total, first := ms(rec.done.Sub(rec.due)), ms(rec.firstRow.Sub(rec.due))
			if bestTotal[rec.plan] == 0 || total < bestTotal[rec.plan] {
				bestTotal[rec.plan] = total
			}
			if bestFirst[rec.plan] == 0 || first < bestFirst[rec.plan] {
				bestFirst[rec.plan] = first
			}
		}
	}
	for i := range bestTotal {
		m.sloJobs++
		if bestTotal[i] == 0 {
			continue // failed in every round
		}
		if !failed[i] && bestTotal[i] <= daemonLimitMS {
			m.sloMet++
		}
		// A repeat's first row is as early as its whole stream
		// (cached_job_ms), so first-row latency counts fresh jobs only.
		if plans[i].fresh {
			m.ttfr = append(m.ttfr, bestFirst[i])
			m.fresh = append(m.fresh, bestTotal[i])
		} else {
			m.cached = append(m.cached, bestTotal[i])
		}
	}
	// Throughput: the capacity phase's best round.
	for _, dp := range capPasses {
		before := capa.succeeded
		fold(capa, dp)
		simRuns := 0
		for _, rec := range dp.recs {
			if rec.err == nil && plans[rec.plan].fresh {
				simRuns += jobReplicas(plans[rec.plan].spec)
			}
		}
		m.jobsPerS = max(m.jobsPerS, share(float64(capa.succeeded-before), dp.wall.Seconds()))
		m.runsPerS = max(m.runsPerS, share(float64(simRuns), dp.wall.Seconds()))
	}
	if tr != nil {
		ph := &phaseResult{name: "open-loop"}
		verifyPass(ph, open.recs, plans, refs, open.counts)
		ph.serve.cacheHits, ph.serve.cacheLookups = open.hits, open.lookups
		m.phases = append(m.phases, ph)
	}
	return m, nil
}

// addServeLayers reports the serve-layer figures of a traced run's phases
// (all zero for the batch workloads, which do not use the daemon). The
// open-loop figures come from the traced run's open-loop phase.
func addServeLayers(layer map[string]float64, phases []*phaseResult) {
	var submit, inflight []float64
	var hits, lookups uint64
	var streamBytes int64
	var streamed, rejected int
	var open phaseResult
	for _, ph := range phases {
		submit = append(submit, ph.serve.submitMS...)
		inflight = append(inflight, ph.serve.inflight...)
		hits += ph.serve.cacheHits
		lookups += ph.serve.cacheLookups
		rejected += ph.serve.rejected429
		if ph.name == "open-loop" {
			open = *ph
		}
	}
	// The untraced latency phase is the first phase; its leading jobs are
	// the stream-bytes count set.
	if len(phases) > 0 {
		streamBytes, streamed = phases[0].serve.streamBytes, phases[0].serve.streamedJobs
	}
	layer["serve.submit_ms_p50"] = median(submit)
	layer["serve.inflight_jobs_p90"] = quantile(inflight, 0.9)
	layer["serve.cache_hit_share"] = share(float64(hits), float64(lookups))
	layer["serve.stream_bytes_per_job"] = share(float64(streamBytes), float64(streamed))
	layer["serve.rejected_429"] = float64(rejected)
	layer["serve.generator_late_ms_max"] = open.serve.lateMaxMS
	layer["serve.open_loop_ttfr_ms_p50"] = median(open.ttfr)
	layer["serve.open_loop_fresh_ms_p90"] = quantile(open.fresh, 0.9)
	layer["serve.open_loop_cached_ms_p50"] = median(open.cached)
}

// daemonLayers probes the first fresh specs of the plan as the count set.
func daemonLayers(cfg benchConfig, tr *tracer) (map[string]float64, error) {
	p := &layerProbe{tr: tr, workers: cfg.workers}
	for _, plan := range daemonPlans(cfg.seed, daemonCountSet) {
		if !plan.fresh {
			continue
		}
		spec := plan.spec
		g, err := spec.Grid()
		if err != nil {
			return nil, err
		}
		cells, err := g.Cells()
		if err != nil {
			return nil, err
		}
		sw := spec.Sweep()
		var scs []experiments.Scenario
		for _, c := range cells {
			for _, s := range sw.Seeds {
				c.Seed = s
				scs = append(scs, c)
			}
		}
		sw.Parallel = cfg.workers
		err = p.job(probeJob{
			name: fmt.Sprintf("spec-%d", plan.origin),
			cells: func() error {
				g, err := spec.Grid()
				if err == nil {
					_, err = g.Cells()
				}
				return err
			},
			grid: true, scs: scs, perCell: len(sw.Seeds),
			parallel: func() (time.Time, time.Time, error) {
				start := time.Now()
				_, err := scenario.GridSweep(g, sw)
				return start, time.Now(), err
			},
		})
		if err != nil {
			return nil, err
		}
	}
	return p.metrics(scenario.DefaultGrid().Model), nil
}

// daemonCountSet is how many leading plans the per-layer probes draw their
// fresh specs from.
const daemonCountSet = 24

var daemonJobs = workloadDef{
	name: "daemon-jobs",
	setup: func(cfg benchConfig) error {
		plans := daemonPlans(cfg.seed, daemonPassPlans(cfg))
		for _, p := range plans {
			if _, err := scenario.ParseJobSpec(p.body); err != nil {
				return err
			}
		}
		rig, err := startDaemon(cfg.workers, cacheCellsFor(plans))
		if err != nil {
			return err
		}
		return rig.stop()
	},
	measure: measureDaemon,
	layers:  daemonLayers,
	warm: func(cfg benchConfig) error {
		for _, p := range daemonPlans(cfg.seed, warmJobs) {
			g, err := p.spec.Grid()
			if err != nil {
				return err
			}
			sw := p.spec.Sweep()
			sw.Parallel = cfg.workers
			if _, err := scenario.GridSweep(g, sw); err != nil {
				return err
			}
		}
		return nil
	},
}
