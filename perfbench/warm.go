package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"retstack"
	"retstack/internal/experiments"
	"retstack/internal/resultstore"
	"retstack/internal/workloads"
)

// storeWarm fills a fresh store in set-up — a cold sweep of every
// experiment, whose tables must match the recorded fingerprints — then
// runs blocks of blockSize warm campaigns until the run's time is spent:
// open the store, run every experiment against it in a seed-drawn order,
// render, close. Every render must be byte-equal to the cold one, and no
// cell may simulate.
func (b *bench) storeWarm() error {
	images, err := b.setupImages([]uint64{b.p.InstBudget})
	if err != nil {
		return err
	}
	dir := filepath.Join(b.work, "store")
	scope := resultstore.Scope(retstack.Baseline().Describe(), b.p.InstBudget, 0, workloads.SPECNames())
	t := time.Now()
	st, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	var fill opStat
	cold, problems := b.runExperiments(experiments.IDs(), st, scope, &fill, nil)
	if err := st.Close(); err != nil {
		return fmt.Errorf("close store after fill: %w", err)
	}
	// Hand the fill's simulation heap back before timing, so the first
	// warm campaigns do not pay for scavenging it.
	debug.FreeOSMemory()
	fillTime := time.Since(t)
	b.attempted++
	for _, id := range experiments.IDs() {
		if msg := b.coldProblem(id, cold, problems); msg != "" {
			b.fail("fill %s: %s", id, msg)
			break
		}
	}
	fillFailed := b.failed
	b.detail["setup_reps"] = setupReps
	b.detail["block_size"] = blockSize
	b.detail["fill_s"] = secs(fillTime)
	b.detail["fill_cells_per_s"] = float64(fill.simulated) / secs(fillTime)

	// Blocks of campaigns repeat until the run's time is spent, at least
	// one. A traced run alternates untraced and traced campaigns, so the
	// tracing overhead can be measured. Each campaign's peak resident set
	// is read on its own.
	rng := rand.New(rand.NewSource(b.seed))
	var ops []opStat
	var blocks, peaks, getLat []float64
	deadline := time.Now().Add(b.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); {
		t := time.Now()
		for end := i + blockSize; i < end; i++ {
			if err := resetPeakRSS(); err != nil {
				return err
			}
			o, lat := b.warmCampaign(i, b.traced() && i%2 == 1, rng, dir, scope, cold)
			peak, err := peakRSSMB()
			if err != nil {
				return err
			}
			ops, peaks, getLat = append(ops, o), append(peaks, peak), append(getLat, lat...)
		}
		blocks = append(blocks, secs(time.Since(t)))
	}

	var lat []float64
	var total float64
	hits := 0
	for _, o := range ops {
		if !o.traced {
			lat = append(lat, ms(o.wall()))
			hits += o.hits
		}
	}
	for _, s := range blocks {
		total += s
	}
	tailV, tailPct := tail(lat)
	b.vals["setup_s"] = secs(images + fillTime)
	b.vals["wall_s"] = median(blocks)
	b.vals["cells_per_s"] = float64(hits) / total
	b.vals["op_p50_ms"] = median(lat)
	b.vals["goodput_per_s"] = float64(len(ops)-(b.failed-fillFailed)) / total
	b.vals["max_rss_mb"] = median(peaks)
	b.detail["op_tail_ms"] = tailV
	b.detail["op_tail_percentile"] = tailPct
	b.detail["op_samples"] = len(lat)
	b.detail["repeat_share"] = 1.0
	slow := append([]float64(nil), lat...)
	sort.Sort(sort.Reverse(sort.Float64Slice(slow)))
	b.detail["slowest_campaigns_ms"] = slow[:min(10, len(slow))]
	if b.traced() {
		b.inprocLayers(ops, getLat, "campaign")
	}
	return nil
}

// warmCampaign runs and checks one warm campaign, returning what it
// measured and, when traced, its store lookup latencies.
func (b *bench) warmCampaign(i int, traced bool, rng *rand.Rand, dir, scope string, cold map[string]string) (opStat, []float64) {
	o := opStat{traced: traced}
	tr := b.tracer(traced)
	ids := shuffledIDs(rng)
	b.attempted++
	o.start = time.Now()
	st, err := resultstore.Open(dir)
	o.open = time.Since(o.start)
	if err != nil {
		o.end = time.Now()
		b.fail("campaign %d: %v", i, err)
		return o, nil
	}
	if traced {
		b.rec.add(0, tr.op, tr.op, "resultstore.open", -1, o.start, o.start.Add(o.open))
		st.SetObserver(resultstore.Observer{OnGet: tr.onGet})
	}
	tables, problems := b.runExperiments(ids, st, scope, &o, tr)
	t := time.Now()
	closeErr := st.Close()
	o.end = time.Now()
	var getLat []float64
	if traced {
		b.rec.add(0, tr.op, tr.op, "resultstore.close", -1, t, o.end)
		b.rec.add(tr.op, 0, tr.op, "campaign", -1, o.start, o.end)
		getLat = tr.getLat
	}
	s := st.Stats()
	o.gets, o.hits = int(s.Hits+s.Misses), int(s.Hits)
	for _, id := range ids {
		if msg, bad := problems[id]; bad {
			b.fail("campaign %d %s: %s", i, id, msg)
			return o, getLat
		}
		if tables[id] != cold[id] {
			b.fail("campaign %d %s: warm tables differ from the cold render", i, id)
			return o, getLat
		}
	}
	switch {
	case o.simulated > 0:
		b.fail("campaign %d: %d cell(s) simulated on a warm store", i, o.simulated)
	case closeErr != nil:
		b.fail("campaign %d: close store: %v", i, closeErr)
	}
	return o, getLat
}
