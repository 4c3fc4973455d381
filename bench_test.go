// Benchmarks regenerating every table and figure of the paper. Each
// Benchmark* runs the corresponding experiment sweep and reports its
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Component microbenchmarks at the bottom
// measure the simulator itself.
package retstack_test

import (
	"runtime"
	"testing"
	"time"

	"retstack"
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/experiments"
	"retstack/internal/resultstore"
	"retstack/internal/sweep"
)

// benchBudget keeps the full sweep tractable under `go test -bench=.`;
// rasbench uses bigger budgets for the recorded EXPERIMENTS.md numbers.
const benchBudget = 60_000

func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(id, experiments.Params{InstBudget: benchBudget})
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func metric(b *testing.B, res *experiments.Result, name, metricKey, bench, cfg string, scale float64) {
	b.Helper()
	v, ok := res.Get(metricKey, bench, cfg)
	if !ok {
		b.Fatalf("missing value %s/%s/%s", metricKey, bench, cfg)
	}
	b.ReportMetric(v*scale, name)
}

// BenchmarkTable2 regenerates the benchmark-summary table.
func BenchmarkTable2(b *testing.B) {
	res := runExperiment(b, "t2")
	metric(b, res, "li-maxdepth", "maxdepth", "li", "base", 1)
	metric(b, res, "ijpeg-call%", "callpct", "ijpeg", "base", 1)
}

// BenchmarkTable3 regenerates return hit rates per repair mechanism.
func BenchmarkTable3(b *testing.B) {
	res := runExperiment(b, "t3")
	metric(b, res, "go-hit-none-%", "hit", "go", "none", 100)
	metric(b, res, "go-hit-proposal-%", "hit", "go", core.RepairTOSPointerAndContents.String(), 100)
	metric(b, res, "li-hit-proposal-%", "hit", "li", core.RepairTOSPointerAndContents.String(), 100)
}

// BenchmarkTable4 regenerates the BTB-only return-prediction table.
func BenchmarkTable4(b *testing.B) {
	res := runExperiment(b, "t4")
	metric(b, res, "vortex-btb-hit-%", "hit", "vortex", "btb-only", 100)
	metric(b, res, "vortex-speedup-%", "speedup", "vortex", "ras-vs-btb", 1)
	metric(b, res, "ijpeg-speedup-%", "speedup", "ijpeg", "ras-vs-btb", 1)
}

// BenchmarkFigStackSize regenerates the hit-rate-vs-depth sensitivity
// figure.
func BenchmarkFigStackSize(b *testing.B) {
	res := runExperiment(b, "f1")
	metric(b, res, "li-hit@4-%", "hit.tos-ptr+contents", "li", "4", 100)
	metric(b, res, "li-hit@64-%", "hit.tos-ptr+contents", "li", "64", 100)
}

// BenchmarkFigOverflow regenerates the overflow/underflow figure.
func BenchmarkFigOverflow(b *testing.B) {
	res := runExperiment(b, "f2")
	metric(b, res, "li-ovf@2-per1K", "ovf", "li", "2", 1)
	metric(b, res, "li-ovf@64-per1K", "ovf", "li", "64", 1)
}

// BenchmarkFigSpeedup regenerates the single-path speedup figure.
func BenchmarkFigSpeedup(b *testing.B) {
	res := runExperiment(b, "f3")
	metric(b, res, "go-speedup-%", "speedup", "go", core.RepairTOSPointerAndContents.String(), 1)
	metric(b, res, "ijpeg-speedup-%", "speedup", "ijpeg", core.RepairTOSPointerAndContents.String(), 1)
}

// BenchmarkFigMultipath regenerates the multipath stack-organization
// figure.
func BenchmarkFigMultipath(b *testing.B) {
	res := runExperiment(b, "f4")
	metric(b, res, "go-2p-perpath-rel", "rel", "go", "2p-per-path", 1)
	metric(b, res, "go-4p-perpath-rel", "rel", "go", "4p-per-path", 1)
}

// BenchmarkAblationShadow regenerates the bounded-shadow-slot ablation.
func BenchmarkAblationShadow(b *testing.B) {
	res := runExperiment(b, "a1")
	metric(b, res, "go-hit@slots1-%", "hit", "go", "1", 100)
	metric(b, res, "go-hit@slots20-%", "hit", "go", "20", 100)
}

// BenchmarkAblationJourdan regenerates the linked-stack extension table.
func BenchmarkAblationJourdan(b *testing.B) {
	res := runExperiment(b, "a2")
	metric(b, res, "go-linked64-hit-%", "hit", "go", "linked64", 100)
	metric(b, res, "go-circ32-hit-%", "hit", "go", "circ32", 100)
}

// BenchmarkAblationSpecHistory regenerates the predictor-update ablation.
func BenchmarkAblationSpecHistory(b *testing.B) {
	res := runExperiment(b, "a3")
	metric(b, res, "ijpeg-commit-mispred-%", "mispred", "ijpeg", "commit", 100)
	metric(b, res, "ijpeg-spec-mispred-%", "mispred", "ijpeg", "spec", 100)
}

// BenchmarkExtensionTargetCache regenerates the target-cache comparison.
func BenchmarkExtensionTargetCache(b *testing.B) {
	res := runExperiment(b, "a4")
	metric(b, res, "m88ksim-ind-btb-%", "indhit", "m88ksim", "ind-btb", 100)
	metric(b, res, "m88ksim-ind-tc-%", "indhit", "m88ksim", "ind-tc", 100)
}

// BenchmarkAblationTopK regenerates the top-K checkpoint sweep.
func BenchmarkAblationTopK(b *testing.B) {
	res := runExperiment(b, "a5")
	metric(b, res, "go-hit@K0-%", "hit", "go", "K0", 100)
	metric(b, res, "go-hit@K1-%", "hit", "go", "K1", 100)
	metric(b, res, "go-hit@K32-%", "hit", "go", "K32", 100)
}

// BenchmarkExtensionValidBits regenerates the Pentium-style repair table.
func BenchmarkExtensionValidBits(b *testing.B) {
	res := runExperiment(b, "a6")
	metric(b, res, "go-validbits-hit-%", "hit", "go", "valid-bits", 100)
	metric(b, res, "go-none-hit-%", "hit", "go", "none", 100)
}

// BenchmarkFigCorruption regenerates the wrong-path activity table.
func BenchmarkFigCorruption(b *testing.B) {
	res := runExperiment(b, "f5")
	metric(b, res, "go-wp-push-per1K", "wppush", "go", "none", 1)
	metric(b, res, "go-recov-per1K", "recov", "go", "none", 1)
}

// BenchmarkExtensionSMT regenerates the shared-vs-per-thread SMT table.
func BenchmarkExtensionSMT(b *testing.B) {
	res := runExperiment(b, "a7")
	metric(b, res, "vortex-shared-hit-%", "hit", "vortex", "shared", 100)
	metric(b, res, "vortex-perthread-hit-%", "hit", "vortex", "per-thread", 100)
}

// BenchmarkAblationPredictorQuality regenerates the predictor sweep.
func BenchmarkAblationPredictorQuality(b *testing.B) {
	res := runExperiment(b, "a8")
	metric(b, res, "gcc-bimodal-speedup-%", "speedup", "gcc", "bimodal", 1)
	metric(b, res, "gcc-hybrid-speedup-%", "speedup", "gcc", "hybrid", 1)
}

// sweepBenchParams is the cell-rich configuration the sweep-engine
// benchmarks share: t3 is eight workloads x four repair policies = 32
// independent simulations, enough cells to keep every worker busy.
func sweepBenchParams(parallel int) experiments.Params {
	return experiments.Params{InstBudget: benchBudget, Parallel: parallel}
}

// BenchmarkSweepSerial runs the t3 sweep on one worker — the baseline the
// parallel engine is judged against.
func BenchmarkSweepSerial(b *testing.B) {
	// Warm the image arena untimed so a -benchtime 1x smoke run measures
	// steady-state sweep cost, not the one-time assembly of eight images
	// (the committed baseline's numbers are warm-run numbers).
	if _, err := experiments.Run("t3", sweepBenchParams(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("t3", sweepBenchParams(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the same sweep across GOMAXPROCS workers and
// reports the wall-clock speedup over a serial run measured outside the
// timed loop. The worker count is reported alongside the speedup: a
// speedup of ~1.0 on a 1-CPU machine is expected, not a regression, and
// comparing speedups across reports is only meaningful at equal "procs".
// Throughput is reported both absolutely (cells/s) and normalised per
// worker (cells/s/proc): the per-proc figure is what should hold steady as
// core counts grow — a falling cells/s/proc at rising procs is the
// signature of cross-worker contention.
func BenchmarkSweepParallel(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	serialStart := time.Now()
	if _, err := experiments.Run("t3", sweepBenchParams(1)); err != nil {
		b.Fatal(err)
	}
	serial := time.Since(serialStart)

	var cells int
	params := sweepBenchParams(procs)
	params.OnWorkerStats = func(ws []sweep.WorkerStats) {
		for _, w := range ws {
			cells += w.Finished
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("t3", params); err != nil {
			b.Fatal(err)
		}
	}
	// Only report speedup with real parallelism: on a single-core runner
	// the ratio is serial-vs-serial noise (0.93x reads as a regression),
	// and benchjson -baseline skips the comparison for procs <= 1 too.
	parallelPerOp := b.Elapsed() / time.Duration(b.N)
	if parallelPerOp > 0 && procs > 1 {
		b.ReportMetric(float64(serial)/float64(parallelPerOp), "speedup")
	}
	if secs := b.Elapsed().Seconds(); secs > 0 && cells > 0 {
		cellsPerSec := float64(cells) / secs
		b.ReportMetric(cellsPerSec, "cells/s")
		b.ReportMetric(cellsPerSec/float64(procs), "cells/s/proc")
	}
	b.ReportMetric(float64(procs), "procs")
}

// BenchmarkSweepCached measures the content-addressed result store end to
// end: one cold t3 sweep populates a store, then the timed loop reruns
// the sweep warm — every cell answers from cache without simulating. The
// cold/warm wall-clock ratio is reported as "cacheSpeedup"; CI's
// cache-smoke job asserts the same >= 10x bar on full -exp all runs.
func BenchmarkSweepCached(b *testing.B) {
	st, err := resultstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	params := func() experiments.Params {
		p := sweepBenchParams(runtime.GOMAXPROCS(0))
		p.Store = st
		p.StoreScope = "bench"
		return p
	}

	coldStart := time.Now()
	if _, err := experiments.Run("t3", params()); err != nil {
		b.Fatal(err)
	}
	cold := time.Since(coldStart)
	afterCold := st.Stats()
	if afterCold.Puts == 0 {
		b.Fatal("cold run persisted nothing")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("t3", params()); err != nil {
			b.Fatal(err)
		}
	}
	warmPerOp := b.Elapsed() / time.Duration(b.N)
	if s := st.Stats(); s.Misses > afterCold.Misses {
		b.Fatalf("warm runs missed %d cells, want pure cache hits", s.Misses-afterCold.Misses)
	}
	if warmPerOp > 0 {
		b.ReportMetric(float64(cold)/float64(warmPerOp), "cacheSpeedup")
	}
}

// BenchmarkWarmCampaign measures a warm campaign end to end, the way a
// user reruns one against a filled store: open the store, run all 17
// experiments against it, render, close. The store is filled once,
// untimed, at a small budget; the cell count, and so the store's size,
// does not depend on the budget. Unlike BenchmarkSweepCached, each
// iteration pays for Open. Every render must match the fill's and no
// cell may miss.
func BenchmarkWarmCampaign(b *testing.B) {
	dir := b.TempDir()
	params := func(st *resultstore.Store) experiments.Params {
		return experiments.Params{InstBudget: 10_000, Parallel: runtime.GOMAXPROCS(0), Store: st, StoreScope: "bench"}
	}
	campaign := func() (map[string]string, resultstore.Stats) {
		st, err := resultstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		tables := map[string]string{}
		for _, id := range experiments.IDs() {
			res, err := experiments.Run(id, params(st))
			if err != nil {
				b.Fatal(err)
			}
			tables[id] = res.String()
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		return tables, st.Stats()
	}
	cold, _ := campaign()

	b.ReportAllocs()
	b.ResetTimer()
	var cells uint64
	for i := 0; i < b.N; i++ {
		tables, s := campaign()
		if s.Misses != 0 {
			b.Fatalf("warm campaign missed %d cells, want pure cache hits", s.Misses)
		}
		for id, want := range cold {
			if tables[id] != want {
				b.Fatalf("%s: warm render differs from the fill", id)
			}
		}
		cells += s.Hits
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cells)/secs, "cells/s")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per wall-clock second) on the baseline machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := retstack.WorkloadByName("gcc")
	cfg := retstack.Baseline().WithPolicy(retstack.RepairTOSPointerAndContents)
	const insts = 100_000
	if _, err := retstack.Run(cfg, w, insts); err != nil { // warm the workload build cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		res, err := retstack.Run(cfg, w, insts)
		if err != nil {
			b.Fatal(err)
		}
		committed += res.Stats.Committed
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "simInsts/s")
}

// BenchmarkSimulatorThroughputMispred is the wrong-path-heavy companion to
// BenchmarkSimulatorThroughput: a weaker direction predictor (bimodal, and
// a short global history for returns' surrounding branches) drives the
// misprediction rate up so the run spends most of its time in speculative
// execution, squash, and recovery — the paths the flat overlay and
// allocation-free recovery exist for.
func BenchmarkSimulatorThroughputMispred(b *testing.B) {
	w, _ := retstack.WorkloadByName("gcc")
	cfg := retstack.Baseline().WithPolicy(retstack.RepairTOSPointerAndContents)
	cfg.DirPred = config.DirBimodal
	cfg.GAgHistBits = 6
	const insts = 100_000
	if _, err := retstack.Run(cfg, w, insts); err != nil { // warm the workload build cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		res, err := retstack.Run(cfg, w, insts)
		if err != nil {
			b.Fatal(err)
		}
		committed += res.Stats.Committed
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "simInsts/s")
}

// BenchmarkRASOperations measures the core data structure itself.
func BenchmarkRASOperations(b *testing.B) {
	s := core.NewStack(32, core.RepairTOSPointerAndContents)
	var cp core.Checkpoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(uint32(i))
		s.SaveInto(&cp)
		s.Pop()
		s.Restore(&cp)
	}
}

// BenchmarkRASFullCheckpoint measures the upper-bound policy's cost.
func BenchmarkRASFullCheckpoint(b *testing.B) {
	s := core.NewStack(32, core.RepairFullStack)
	var cp core.Checkpoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(uint32(i))
		s.SaveInto(&cp)
		s.Pop()
		s.Restore(&cp)
	}
}
