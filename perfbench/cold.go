package main

import (
	"math/rand"
	"sort"
	"time"
)

// sweepCold repeats cold passes until the run's time is spent: every
// experiment through experiments.Run at inst_budget with Parallel = nproc,
// no store and no telemetry, in a seed-drawn order. Each experiment is one
// checked operation: its tables must match the recorded fingerprint
// whatever the order. Latency is timed per sweep cell, the unit of work
// the engine schedules, and resident memory per experiment. A pass
// starts only while at most half of it is expected to fall beyond the
// deadline; there is always one, and a traced run alternates untraced
// and traced passes and makes at least two, so the tracing overhead can
// be measured.
func (b *bench) sweepCold() error {
	images, err := b.setupImages([]uint64{b.p.InstBudget})
	if err != nil {
		return err
	}
	b.detail["setup_reps"] = setupReps
	rng := rand.New(rand.NewSource(b.seed))
	var passes []opStat
	var walls []float64
	deadline := time.Now().Add(b.seconds)
	for i := 0; ; i++ {
		expected := time.Duration(median(walls) * float64(time.Second))
		if i > 0 && time.Now().Add(expected/2).After(deadline) && !(b.traced() && i < 2) {
			break
		}
		o := b.coldPass(i, b.traced() && i%2 == 1, rng)
		if o.rssErr != nil {
			return o.rssErr
		}
		passes, walls = append(passes, o), append(walls, secs(o.wall()))
	}

	var plain, rates, cells, peaks, exps []float64
	var total time.Duration
	for _, o := range passes {
		if o.traced {
			continue
		}
		plain = append(plain, secs(o.wall()))
		rates = append(rates, float64(o.simulated)/secs(o.wall()))
		total += o.wall()
		cells = append(cells, o.cells.ms...)
		peaks = append(peaks, o.peaks...)
		for _, d := range o.exps {
			exps = append(exps, ms(d))
		}
	}
	tailV, tailPct := tail(cells)
	b.vals["setup_s"] = secs(images)
	b.vals["wall_s"] = median(plain)
	b.vals["cells_per_s"] = median(rates)
	b.vals["op_p50_ms"] = median(cells)
	b.vals["goodput_per_s"] = float64(b.attempted-b.failed) / secs(total)
	b.vals["max_rss_mb"] = median(peaks)
	b.detail["op_tail_ms"] = tailV
	b.detail["op_tail_percentile"] = tailPct
	b.detail["op_samples"] = len(cells)
	b.detail["pass_walls_s"] = walls
	b.detail["repeat_share"] = 0.0
	slow := append([]float64(nil), exps...)
	sort.Sort(sort.Reverse(sort.Float64Slice(slow)))
	b.detail["slowest_experiments_ms"] = slow[:min(10, len(slow))]
	if b.traced() {
		b.inprocLayers(passes, nil, "pass")
	}
	return nil
}

// coldPass runs and checks one cold pass.
func (b *bench) coldPass(i int, traced bool, rng *rand.Rand) opStat {
	o := opStat{traced: traced, trackRSS: true}
	if !traced {
		o.cells = &cellTimes{}
	}
	tr := b.tracer(traced)
	ids := shuffledIDs(rng)
	o.start = time.Now()
	tables, problems := b.runExperiments(ids, nil, "", &o, tr)
	o.end = time.Now()
	if traced {
		b.rec.add(tr.op, 0, tr.op, "pass", -1, o.start, o.end)
	}
	for _, id := range ids {
		b.attempted++
		if msg := b.coldProblem(id, tables, problems); msg != "" {
			b.fail("pass %d %s: %s", i, id, msg)
		}
	}
	return o
}
