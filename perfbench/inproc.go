package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"retstack/internal/experiments"
	"retstack/internal/resultstore"
	"retstack/internal/sweep"
)

// opStat is what one in-process operation measured: a cold pass of
// sweep-cold or a warm campaign of store-warm.
type opStat struct {
	traced     bool
	start, end time.Time
	open       time.Duration   // resultstore.Open
	run        time.Duration   // time inside experiments.Run
	render     time.Duration   // time inside Result.String
	exps       []time.Duration // each experiment's run and render
	// Engine accounting summed over the operation's sweeps.
	simulated, cellErrs int
	busy, wait          time.Duration
	// Store lookups.
	gets, hits int
	// When cells is set, an untraced operation keeps each sweep cell's
	// latency there. When trackRSS is set, peaks holds the process's
	// peak resident set during each experiment.
	cells    *cellTimes
	trackRSS bool
	peaks    []float64
	rssErr   error
}

func (o *opStat) wall() time.Duration { return o.end.Sub(o.start) }

// onWorkerStats accumulates the sweep engine's per-worker accounting. The
// engine calls it on the experiments.Run goroutine after each sweep.
func (o *opStat) onWorkerStats(ws []sweep.WorkerStats) {
	for _, w := range ws {
		o.simulated += w.Started
		o.cellErrs += w.Errs
		o.busy += w.Busy
		o.wait += w.Wait
	}
}

// opTracer records one traced operation's spans below the experiment
// level: sweep cells through sweep.Monitor and store lookups through the
// store's Observer. parent is the running experiment's span.
type opTracer struct {
	rec    *recorder
	op     int64
	parent atomic.Int64

	mu     sync.Mutex
	getLat []float64 // store lookup latency, microseconds
}

// tracer returns a tracer for a new traced operation, nil when untraced.
func (b *bench) tracer(traced bool) *opTracer {
	if !traced {
		return nil
	}
	return &opTracer{rec: b.rec, op: b.rec.newID()}
}

// cellTimes is a sweep.Monitor that keeps each cell's latency.
type cellTimes struct {
	mu sync.Mutex
	ms []float64
}

func (c *cellTimes) CellStart(cell, worker int) {}

func (c *cellTimes) CellDone(cell, worker int, d time.Duration, err error) {
	c.mu.Lock()
	c.ms = append(c.ms, ms(d))
	c.mu.Unlock()
}

func (t *opTracer) CellStart(cell, worker int) {}

func (t *opTracer) CellDone(cell, worker int, d time.Duration, err error) {
	end := time.Now()
	t.rec.add(0, t.parent.Load(), t.op, "pipeline.cell", worker, end.Add(-d), end)
}

func (t *opTracer) onGet(hit bool, seconds float64) {
	end := time.Now()
	t.rec.add(0, t.parent.Load(), t.op, "resultstore.get", -1,
		end.Add(-time.Duration(seconds*float64(time.Second))), end)
	t.mu.Lock()
	t.getLat = append(t.getLat, seconds*1e6)
	t.mu.Unlock()
}

// shuffledIDs returns every experiment id in a seed-drawn order.
func shuffledIDs(rng *rand.Rand) []string {
	ids := experiments.IDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// runExperiments runs the experiments in order, against the store when st
// is not nil, and returns each one's rendered tables or the reason it has
// none. tr is nil for an untraced operation.
func (b *bench) runExperiments(order []string, st *resultstore.Store, scope string, o *opStat, tr *opTracer) (tables, problems map[string]string) {
	tables, problems = map[string]string{}, map[string]string{}
	var rec *recorder
	var op int64
	if tr != nil {
		rec, op = tr.rec, tr.op
	}
	for _, id := range order {
		p := experiments.Params{
			InstBudget:    b.p.InstBudget,
			Parallel:      b.workers,
			OnWorkerStats: o.onWorkerStats,
		}
		if st != nil {
			p.Store, p.StoreScope = st, scope
		}
		expSpan := rec.newID()
		switch {
		case tr != nil:
			tr.parent.Store(expSpan)
			p.Monitor = tr
		case o.cells != nil:
			p.Monitor = o.cells
		}
		if o.trackRSS && o.rssErr == nil {
			// Each experiment starts from a collected heap handed back
			// to the system, so its peak does not depend on how much
			// garbage the one before it left.
			debug.FreeOSMemory()
			o.rssErr = resetPeakRSS()
		}
		t := time.Now()
		res, err := experiments.Run(id, p)
		done := time.Now()
		if o.trackRSS && o.rssErr == nil {
			var peak float64
			peak, o.rssErr = peakRSSMB()
			o.peaks = append(o.peaks, peak)
		}
		rec.add(expSpan, op, op, "experiments.run", -1, t, done)
		o.run += done.Sub(t)
		if err != nil {
			o.exps = append(o.exps, done.Sub(t))
			problems[id] = err.Error()
			continue
		}
		text := res.String()
		rendered := time.Now()
		rec.add(0, op, op, "stats.render", -1, done, rendered)
		o.render += rendered.Sub(done)
		o.exps = append(o.exps, rendered.Sub(t))
		if len(res.Holes) > 0 {
			problems[id] = fmt.Sprintf("%d cell(s) failed", len(res.Holes))
			continue
		}
		tables[id] = text
	}
	return tables, problems
}

func fingerprint(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// coldProblem says why an experiment's cold tables fail the gate, or ""
// when they match the recorded fingerprint.
func (b *bench) coldProblem(id string, tables, problems map[string]string) string {
	if msg, bad := problems[id]; bad {
		return msg
	}
	if fingerprint(tables[id]) != b.p.Fingerprints[id] {
		return "tables differ from the recorded fingerprint"
	}
	return ""
}

// inprocLayers turns the traced operations and their spans into the
// per-layer metrics of the in-process workloads. root names the spans
// that stand for whole operations.
func (b *bench) inprocLayers(ops []opStat, getLat []float64, root string) {
	var run, render, opens, tracedWalls, plainWalls []float64
	var busy, wait, wall time.Duration
	var cellErrs, gets, hits int
	for _, o := range ops {
		if !o.traced {
			plainWalls = append(plainWalls, secs(o.wall()))
			continue
		}
		tracedWalls = append(tracedWalls, secs(o.wall()))
		run = append(run, secs(o.run))
		render = append(render, ms(o.render))
		opens = append(opens, ms(o.open))
		busy += o.busy
		wait += o.wait
		wall += o.wall()
		cellErrs += o.cellErrs
		gets += o.gets
		hits += o.hits
	}
	spans := b.rec.snapshot()
	cs := cellStats(spans, b.workers)
	b.vals["pipeline.cells"] = float64(cs.n)
	b.vals["pipeline.cell_p50_ms"] = ms(cs.p50)
	b.vals["pipeline.cell_tail_ms"] = ms(cs.tail)
	if cs.n > 0 {
		b.vals["pipeline.ns_per_inst"] = float64(cs.busy) / float64(cs.n) / float64(b.p.InstBudget)
	}
	b.vals["sweep.busy_s"] = secs(busy)
	b.vals["sweep.wait_s"] = secs(wait)
	b.vals["sweep.utilization"] = secs(busy) / (float64(b.workers) * secs(wall))
	b.vals["sweep.barrier_idle_s"] = secs(cs.barrierIdle)
	b.vals["sweep.straggler_ratio"] = cs.straggler
	b.vals["sweep.cell_errors"] = float64(cellErrs)
	b.vals["experiments.run_s"] = median(run)
	b.vals["stats.render_ms"] = median(render)
	b.vals["resultstore.open_ms"] = median(opens)
	b.vals["resultstore.gets"] = float64(gets)
	if gets > 0 {
		b.vals["resultstore.hit_ratio"] = float64(hits) / float64(gets)
	}
	b.vals["inputs.repeat_frac"] = b.vals["resultstore.hit_ratio"]
	b.vals["resultstore.get_p50_us"] = median(getLat)
	b.vals["resultstore.get_tail_us"], _ = tail(getLat)
	b.traceResults(spans, root)
	b.vals["trace.overhead_frac"] = median(tracedWalls)/median(plainWalls) - 1
}

// traceResults reports self time per layer and unattributed time.
func (b *bench) traceResults(spans []span, root string) {
	sum := summarize(spans, root)
	for _, l := range selfLayers {
		b.vals["self."+l+"_ms"] = ms(sum.selfPerOp[l])
	}
	b.vals["trace.unattributed_frac"] = sum.unattributed
	b.detail["traced_ops"] = sum.ops
}
