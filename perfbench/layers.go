package main

import (
	"fmt"
	"time"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/core"
	"spotserve/internal/cost"
	"spotserve/internal/experiments"
	"spotserve/internal/model"
	"spotserve/internal/reconfig"
	"spotserve/internal/scenario"
	"spotserve/internal/workload"
)

// probeJob is one job of a workload's count set: the fixed, seed-determined
// jobs whose runs the per-layer probes replay serially. Because the set
// does not depend on timing, every count derived from it repeats exactly.
type probeJob struct {
	name string
	// cells builds the job's cell list the way its entry point does
	// (Grid.Cells, JobSpec.Grid + Grid.Cells); nil when the job has no grid.
	cells func() error
	// grid marks jobs whose rows go through BuildRow and RenderGrid.
	grid bool
	// scs are the job's runs, cell-major, perCell seeds per cell.
	scs     []experiments.Scenario
	perCell int
	// parallel runs the job once through its parallel entry point and
	// returns when the call started and ended.
	parallel func() (start, end time.Time, err error)
}

// layerProbe accumulates per-layer timings and counts over a count set.
type layerProbe struct {
	tr      *tracer
	workers int

	runMS, fpUS, traceUS, marketUS, genUS []float64
	cellsMS, buildRowUS, renderMS         []float64
	proposeUS, mapUS, planUS              []float64
	serial, parallel                      time.Duration

	runs                                      int
	steps                                     uint64
	submitted, completed, migrations, reloads int
	configChanges, tokensRecovered            int
	cache                                     reconfig.CacheStats
	lookups, shiftMisses                      int
}

// timed runs f inside a span and returns its duration.
func (p *layerProbe) timed(name, req string, parent int64, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	p.tr.add(name, req, parent, t0, t1)
	return t1.Sub(t0)
}

// job probes one count-set job.
func (p *layerProbe) job(j probeJob) error {
	root := p.tr.begin("probe.job", j.name, 0)
	defer p.tr.end(root)
	if j.cells != nil {
		var err error
		d := p.timed("scenario.Grid.Cells", j.name, root, func() { err = j.cells() })
		if err != nil {
			return err
		}
		p.cellsMS = append(p.cellsMS, ms(d))
	}
	start, end, err := j.parallel()
	if err != nil {
		return fmt.Errorf("%s: parallel pass: %w", j.name, err)
	}
	p.tr.add("pool.parallel", j.name, root, start, end)
	p.parallel += end.Sub(start)
	results := make([]experiments.Result, len(j.scs))
	for i, sc := range j.scs {
		var r experiments.Result
		d := p.timed("experiments.Run", j.name, root, func() { r = experiments.Run(sc) })
		p.serial += d
		p.runMS = append(p.runMS, ms(d))
		p.fpUS = append(p.fpUS, us(p.timed("Result.Fingerprint", j.name, root, func() { r.Fingerprint() })))
		if sc.TraceFn != nil {
			p.traceUS = append(p.traceUS, us(p.timed("Scenario.TraceFn", j.name, root, func() { sc.TraceFn(sc.Seed) })))
		}
		if sc.MarketFn != nil {
			p.marketUS = append(p.marketUS, us(p.timed("Scenario.MarketFn", j.name, root, func() { sc.MarketFn(sc.Seed) })))
		}
		var gerr error
		p.genUS = append(p.genUS, us(p.timed("workload.Generate", j.name, root, func() { gerr = generateFor(sc, r) })))
		if gerr != nil {
			return gerr
		}
		p.count(r)
		p.reconfig(sc, r, j.name, root)
		results[i] = r
	}
	if !j.grid {
		return nil
	}
	var rows []scenario.GridRow
	for c := 0; c+j.perCell <= len(results); c += j.perCell {
		var row scenario.GridRow
		d := p.timed("scenario.BuildRow", j.name, root, func() { row = scenario.BuildRow(results[c:c+j.perCell], scenario.DefaultSLO) })
		p.buildRowUS = append(p.buildRowUS, us(d))
		rows = append(rows, row)
	}
	p.renderMS = append(p.renderMS, ms(p.timed("scenario.RenderGrid", j.name, root, func() { scenario.RenderGrid(rows) })))
	return nil
}

// generateFor regenerates the run's arrivals with the parameters
// experiments.Run used.
func generateFor(sc experiments.Scenario, r experiments.Result) error {
	opts := core.DefaultOptions(sc.Spec)
	horizon := r.Scenario.Trace.Horizon // the trace Run generated
	if horizon <= 0 {
		horizon = 1200
	}
	rate := sc.RateFn
	if rate == nil {
		rate = workload.ConstantRate(sc.Rate)
	}
	cv := sc.CV
	if cv <= 0 {
		cv = 6
	}
	_, err := workload.Generate(workload.Options{Horizon: horizon, Rate: rate,
		CV: cv, SeqIn: opts.SeqIn, SeqOut: opts.SeqOut, Seed: sc.Seed})
	return err
}

// count folds one run's exact counters.
func (p *layerProbe) count(r experiments.Result) {
	st := r.Stats
	p.runs++
	p.steps += r.Steps
	p.submitted += st.Submitted
	p.completed += st.Completed
	p.migrations += st.Migrations
	p.reloads += st.Reloads
	p.configChanges += len(st.ConfigLog)
	p.tokensRecovered += st.TokensRecovered
	c := st.ReconfigCache
	p.cache.ProposalHits += c.ProposalHits
	p.cache.ProposalMisses += c.ProposalMisses
	p.cache.MappingHits += c.MappingHits
	p.cache.MappingMisses += c.MappingMisses
	p.cache.PlanHits += c.PlanHits
	p.cache.PlanMisses += c.PlanMisses
	p.cache.KMHits += c.KMHits
	p.cache.KMMisses += c.KMMisses
	p.lookups += c.Lookups()
	p.shiftMisses += c.ShiftMisses()
}

// reconfig replays the run's ConfigLog transitions through a cold engine
// (DisableCache) with SpotServe's full pipeline, timing the production
// Engine.Propose, Engine.Map and Engine.Plan once per transition. Devices
// hold the previous configuration's parameter shards on a homogeneous
// fleet just large enough for both ends of the transition. A transition
// that fleet cannot map or plan is left out of the timings: the probe's
// synthetic fleet, not the run, is what failed.
func (p *layerProbe) reconfig(sc experiments.Scenario, r experiments.Result, req string, parent int64) {
	log := r.Stats.ConfigLog
	if len(log) < 2 {
		return
	}
	opts := core.DefaultOptions(sc.Spec)
	cp := opts.CostParams
	eng := reconfig.NewEngine(reconfig.Options{
		Spec: sc.Spec, Est: cost.NewEstimator(cp, sc.Spec), Limits: opts.Limits,
		GPUsPerInstance: cp.GPUsPerInstance, MaxInstances: opts.MaxInstances,
		SeqIn: opts.SeqIn, SeqOut: opts.SeqOut,
		UseKM: true, Hierarchical: true, Progressive: true, MemOpt: true,
		UmaxBytes: cp.BufMaxBytes, MigrateCache: true, DisableCache: true,
	})
	for i := 1; i < len(log); i++ {
		prev, next := log[i-1].Config, log[i].Config
		if prev.IsZero() || next.IsZero() {
			continue
		}
		n := prev.GPUs()
		if next.GPUs() > n {
			n = next.GPUs()
		}
		devs := deviceContexts(sc.Spec, (n+cp.GPUsPerInstance-1)/cp.GPUsPerInstance, cp.GPUsPerInstance, prev)
		rq := reconfig.Request{Alpha: sc.Rate, GPUsAvail: len(devs), MaxGPUs: len(devs), SpeedFloor: 1, MemFloor: 1}
		p.proposeUS = append(p.proposeUS, us(p.timed("reconfig.Engine.Propose", req, parent, func() { eng.Propose(rq) })))
		var m reconfig.Mapping
		var err error
		d := p.timed("reconfig.Engine.Map", req, parent, func() { m, err = eng.Map(devs, next, nil) })
		if err != nil {
			continue
		}
		p.mapUS = append(p.mapUS, us(d))
		d = p.timed("reconfig.Engine.Plan", req, parent, func() { _, err = eng.Plan(devs, m, nil) })
		if err == nil {
			p.planUS = append(p.planUS, us(d))
		}
	}
}

// deviceContexts builds nInst instances of gpi GPUs and binds them, in
// order, to the positions of cfg with the matching parameter shards.
func deviceContexts(spec model.Spec, nInst, gpi int, cfg config.Config) []reconfig.DeviceContext {
	positions := cfg.Positions()
	var out []reconfig.DeviceContext
	id := int64(0)
	for i := 0; i < nInst; i++ {
		inst := &cloud.Instance{ID: int64(i), Kind: cloud.Spot, State: cloud.Running}
		for s := 0; s < gpi; s++ {
			g := &cloud.GPU{ID: id, Slot: s, Inst: inst}
			inst.GPUs = append(inst.GPUs, g)
			dc := reconfig.DeviceContext{GPU: g, CachePipeline: -1}
			if k := len(out); k < len(positions) {
				pos := positions[k]
				dc.ModelCtx = model.PositionRect(spec, cfg.P, cfg.M, pos.P, pos.M)
			}
			out = append(out, dc)
			id++
		}
	}
	return out
}

// costProbes times cold per-call cost-model queries on the workload's
// model: FeasibleShapes for every allowed batch size and Exec for every
// feasible shape, each on a fresh estimator so no memo answers.
func (p *layerProbe) costProbes(spec model.Spec) (feasNS, execNS float64) {
	lim := config.DefaultLimits()
	var feas, exec []float64
	for rep := 0; rep < 40; rep++ {
		est := cost.NewEstimator(cost.DefaultParams(), spec)
		var shapes []config.Config
		for _, b := range lim.Bs {
			t0 := time.Now()
			s := est.FeasibleShapes(lim, b, cost.DefaultMaxTokens, false)
			feas = append(feas, float64(time.Since(t0).Nanoseconds()))
			if b == 1 {
				shapes = s
			}
		}
		for _, s := range shapes {
			for _, b := range lim.Bs {
				t0 := time.Now()
				est.Exec(s.P, s.M, b, cost.DefaultSeqIn, cost.DefaultSeqOut)
				exec = append(exec, float64(time.Since(t0).Nanoseconds()))
			}
		}
	}
	return median(feas), median(exec)
}

// counts returns the per-layer metrics that are exact counts over the
// count set: they repeat bit for bit at a fixed seed, whatever the worker
// count, so a later change can rest a count claim on them.
func (p *layerProbe) counts() map[string]float64 {
	n := float64(p.runs)
	c := p.cache
	return map[string]float64{
		"sim.events_per_run":            share(float64(p.steps), n),
		"core.requests_per_run":         share(float64(p.submitted), n),
		"core.completed_share":          share(float64(p.completed), float64(p.submitted)),
		"core.migrations_per_run":       share(float64(p.migrations), n),
		"core.reloads_per_run":          share(float64(p.reloads), n),
		"core.config_changes_per_run":   share(float64(p.configChanges), n),
		"core.tokens_recovered_per_run": share(float64(p.tokensRecovered), n),
		"reconfig.lookups_per_run":      share(float64(p.lookups), n),
		"reconfig.proposal_hit_share":   share(float64(c.ProposalHits), float64(c.ProposalHits+c.ProposalMisses)),
		"reconfig.mapping_hit_share":    share(float64(c.MappingHits), float64(c.MappingHits+c.MappingMisses)),
		"reconfig.plan_hit_share":       share(float64(c.PlanHits), float64(c.PlanHits+c.PlanMisses)),
		"reconfig.shift_miss_share":     share(float64(p.shiftMisses), float64(p.lookups)),
		"km.solves_per_run":             share(float64(c.KMMisses), n),
		"km.warm_hit_share":             share(float64(c.KMHits), float64(c.KMHits+c.KMMisses)),
	}
}

// metrics turns the probe's accumulators into per-layer metrics.
func (p *layerProbe) metrics(spec model.Spec) map[string]float64 {
	m := p.counts()
	feas, exec := p.costProbes(spec)
	for k, v := range map[string]float64{
		"experiments.run_ms_p50":          median(p.runMS),
		"experiments.pool_overhead_share": 1 - share(p.serial.Seconds(), float64(p.workers)*p.parallel.Seconds()),
		"experiments.fingerprint_us":      median(p.fpUS),
		"scenario.cells_ms":               median(p.cellsMS),
		"scenario.trace_gen_us":           median(p.traceUS),
		"scenario.build_row_us":           median(p.buildRowUS),
		"scenario.render_ms":              median(p.renderMS),
		"market.curve_gen_us":             median(p.marketUS),
		"workload.generate_us":            median(p.genUS),
		"sim.events_per_host_ms":          share(float64(p.steps), ms(p.serial)),
		"reconfig.propose_us":             median(p.proposeUS),
		"reconfig.map_us":                 median(p.mapUS),
		"reconfig.plan_us":                median(p.planUS),
		"cost.feasible_shapes_ns":         feas,
		"cost.exec_ns":                    exec,
	} {
		m[k] = v
	}
	return m
}
