// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload through the simulator's public layers from outside
// and prints one JSON result line:
//
//	sweep-cold  repeated cold passes of all 17 experiments, no store
//	store-warm  a cold sweep fills a result store in set-up; each
//	            operation is one warm campaign against it
//	serve-zipf  the rasserve binary under an open-loop Zipf campaign mix
//
// Every run checks the rendered tables: each cold pass and the store fill
// against the sha256 fingerprints in params.json, each warm campaign
// against the fill, and each served campaign against an in-process render
// of its spec. A mismatch counts as a failed operation and makes the exit
// status 1.
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics, taken from spans recorded at the layer
// boundaries and written to the work directory as JSON Lines.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this program and rasserve first:
//
//	bash perfbench/run.sh --workload store-warm --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"retstack/internal/experiments"
	"retstack/internal/program"
	"retstack/internal/workloads"
)

// Fixed settings of the run loops. Each run reports them in its detail
// line.
const (
	// setupReps is how many times image set-up runs; setup_s takes the
	// median.
	setupReps = 9
	// launchReps is how many times serve-zipf launches rasserve; setup_s
	// takes the median launch.
	launchReps = 3
	// blockSize is the number of warm campaigns in one store-warm block,
	// the fixed work wall_s times.
	blockSize = 20
	// pollInterval is how often serve-zipf polls campaign status, and so
	// its latency resolution.
	pollInterval = 5 * time.Millisecond
	// drainLimit is how long serve-zipf waits after the last due time
	// for outstanding campaigns.
	drainLimit = 60 * time.Second
	// ratePerS is serve-zipf's arrival rate in campaigns per second, about
	// half the capacity measured on the recording host (params.json
	// capacity_note).
	ratePerS = 80
	// zipfS is the exponent of serve-zipf's Zipf draws over the catalogue.
	zipfS = 1.2
	// latencyLimit is the due → final-table latency within which a
	// serve-zipf campaign counts towards goodput.
	latencyLimit = 250 * time.Millisecond
	// storeWarmup is the opening part of serve-zipf's schedule, which
	// fills the store through the server. Its campaigns are checked but
	// not timed, since a store's cold start is paid once per store.
	storeWarmup = 5 * time.Second
)

// params is the fixed part of the benchmark, read from params.json.
type params struct {
	InstBudget   uint64            `json:"inst_budget"`
	Fingerprints map[string]string `json:"fingerprints"`
	Serve        serveParams       `json:"serve"`
}

type serveParams struct {
	// Catalogue lists the campaigns in Zipf rank order, most popular
	// first: [experiment, SPEC clone, instruction budget].
	Catalogue [][3]any `json:"catalogue"`
}

// entry is one decoded catalogue campaign.
type entry struct {
	Exp, Clone string
	Budget     uint64
}

func (s serveParams) entries() ([]entry, error) {
	out := make([]entry, len(s.Catalogue))
	for i, c := range s.Catalogue {
		exp, ok1 := c[0].(string)
		clone, ok2 := c[1].(string)
		budget, ok3 := c[2].(float64)
		if !ok1 || !ok2 || !ok3 || budget <= 0 {
			return nil, fmt.Errorf("catalogue entry %d: want [experiment, clone, budget], got %v", i, c)
		}
		out[i] = entry{exp, clone, uint64(budget)}
	}
	return out, nil
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"sweep-cold", "store-warm", "serve-zipf"}

// Metric names and units. BENCHMARK.json lists the same names; the
// self-test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cells_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"goodput_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"workloads.build_ms", "ms"},
	{"program.predecode_ms", "ms"},
	{"program.prewarm_blocks_ms", "ms"},
	{"pipeline.cells", "count"},
	{"pipeline.cell_p50_ms", "ms"},
	{"pipeline.cell_tail_ms", "ms"},
	{"pipeline.ns_per_inst", "ns"},
	{"sweep.busy_s", "s"},
	{"sweep.wait_s", "s"},
	{"sweep.utilization", "ratio"},
	{"sweep.barrier_idle_s", "s"},
	{"sweep.straggler_ratio", "ratio"},
	{"sweep.cell_errors", "count"},
	{"experiments.run_s", "s"},
	{"stats.render_ms", "ms"},
	{"resultstore.open_ms", "ms"},
	{"resultstore.gets", "count"},
	{"resultstore.hit_ratio", "ratio"},
	{"resultstore.get_p50_us", "us"},
	{"resultstore.get_tail_us", "us"},
	{"resultstore.puts", "count"},
	{"resultstore.put_p50_ms", "ms"},
	{"resultstore.put_tail_ms", "ms"},
	{"resultstore.shared", "count"},
	{"rasserve.submit_p50_ms", "ms"},
	{"rasserve.submit_tail_ms", "ms"},
	{"rasserve.queue_wait_p50_ms", "ms"},
	{"rasserve.queue_wait_tail_ms", "ms"},
	{"rasserve.run_p50_ms", "ms"},
	{"rasserve.run_tail_ms", "ms"},
	{"rasserve.tables_ms", "ms"},
	{"rasserve.backlog_max", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"inputs.repeat_frac", "ratio"},
	{"self.experiments_ms", "ms"},
	{"self.pipeline_ms", "ms"},
	{"self.resultstore_ms", "ms"},
	{"self.stats_ms", "ms"},
	{"self.rasserve_ms", "ms"},
	{"self.loadgen_ms", "ms"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// selfLayers are the span layers whose self time a traced run reports.
var selfLayers = []string{"experiments", "pipeline", "resultstore", "stats", "rasserve", "loadgen"}

type metricDef struct{ Name, Unit string }

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

// bench is one run's state: its settings and what it measured.
type bench struct {
	p        params
	seed     int64
	seconds  time.Duration
	workers  int
	work     string    // run scratch directory, removed at exit
	rasserve string    // rasserve binary (serve-zipf)
	rec      *recorder // nil when untraced

	vals      map[string]float64
	detail    map[string]any
	attempted int
	failed    int
	failures  []string
}

// fail counts one failed operation and keeps the first few reasons.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) traced() bool { return b.rec != nil }

// setupImages is the image set-up every workload starts with: assemble
// each SPEC clone at the scale a budget needs, predecode it and fill its
// block table. It runs setupReps times and reports medians. Every rep but
// the last builds on a fresh arena; the last builds on the shared arena,
// whose images the experiments then reuse.
func (b *bench) setupImages(budgets []uint64) (time.Duration, error) {
	var total, build, pre, warm []float64
	for rep := 0; rep < setupReps; rep++ {
		buildOne := workloads.NewArena().Build
		if rep == setupReps-1 {
			buildOne = func(w workloads.Workload, scale int) (*program.Image, error) { return w.Build(scale) }
		}
		var tb, tp, tw time.Duration
		var ims []*program.Image
		for _, budget := range budgets {
			for _, w := range workloads.SPEC() {
				t := time.Now()
				im, err := buildOne(w, w.ScaleFor(budget*2))
				tb += time.Since(t)
				if err != nil {
					return 0, err
				}
				ims = append(ims, im)
			}
		}
		for _, im := range ims {
			t := time.Now()
			pl := im.Predecode()
			tp += time.Since(t)
			t = time.Now()
			if pl != nil {
				pl.PrewarmBlocks()
			}
			tw += time.Since(t)
		}
		total = append(total, secs(tb+tp+tw))
		build, pre, warm = append(build, ms(tb)), append(pre, ms(tp)), append(warm, ms(tw))
	}
	b.vals["workloads.build_ms"] = median(build)
	b.vals["program.predecode_ms"] = median(pre)
	b.vals["program.prewarm_blocks_ms"] = median(warm)
	return time.Duration(median(total) * float64(time.Second)), nil
}

// resetPeakRSS restarts this process's peak resident-set count, so each
// operation's peak can be read on its own.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// emit fills the result with the metric set the run mode asks for.
func (b *bench) emit() (result, error) {
	defs := endToEnd
	if b.traced() {
		defs = perLayer
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := b.vals[d.Name]
		if !ok && !b.traced() {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}

func main() {
	var (
		workload   = flag.String("workload", "", "sweep-cold, store-warm or serve-zipf")
		seed       = flag.Int64("seed", 1, "input seed: experiment order, campaign draws")
		seconds    = flag.Float64("seconds", 20, "how long to measure")
		trace      = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		paramsPath = flag.String("params", "perfbench/params.json", "fixed benchmark parameters")
		rasserve   = flag.String("rasserve", ".bench_build/bin/rasserve", "rasserve binary (serve-zipf)")
		workRoot   = flag.String("work", ".bench_build/work", "directory for stores, queues and traces")
	)
	flag.Parse()
	res, err := run(*workload, *seed, *seconds, *trace == 1, *paramsPath, *rasserve, *workRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its detail line; the caller
// prints the result line after it.
func run(workload string, seed int64, seconds float64, traced bool, paramsPath, rasserve, workRoot string) (result, error) {
	raw, err := os.ReadFile(paramsPath)
	if err != nil {
		return result{}, err
	}
	var p params
	if err := json.Unmarshal(raw, &p); err != nil {
		return result{}, fmt.Errorf("%s: %w", paramsPath, err)
	}
	if p.InstBudget == 0 {
		return result{}, fmt.Errorf("%s: inst_budget must be positive", paramsPath)
	}
	for _, id := range experiments.IDs() {
		if p.Fingerprints[id] == "" {
			return result{}, fmt.Errorf("%s: no table fingerprint for experiment %s", paramsPath, id)
		}
	}
	if seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(workRoot, workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	b := &bench{
		p: p, seed: seed,
		seconds:  time.Duration(seconds * float64(time.Second)),
		workers:  runtime.NumCPU(),
		work:     work,
		rasserve: rasserve,
		vals:     map[string]float64{},
		detail:   map[string]any{"workload": workload, "seed": seed, "nproc": runtime.NumCPU()},
	}
	if traced {
		b.rec = newRecorder()
	}
	switch workload {
	case "sweep-cold":
		err = b.sweepCold()
	case "store-warm":
		err = b.storeWarm()
	case "serve-zipf":
		err = b.serveZipf()
	default:
		err = fmt.Errorf("unknown --workload %q (sweep-cold, store-warm, serve-zipf)", workload)
	}
	if err != nil {
		return result{}, err
	}
	if traced {
		path := filepath.Join(workRoot, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
		if err := b.rec.write(path); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		b.detail["trace_file"] = path
	}
	if b.attempted > 0 {
		b.detail["fail_frac"] = float64(b.failed) / float64(b.attempted)
	}
	if len(b.failures) > 0 {
		b.detail["failures"] = b.failures
	}
	res, err := b.emit()
	if err != nil {
		return result{}, err
	}
	line, err := json.Marshal(map[string]any{"detail": b.detail})
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(line))
	return res, nil
}
