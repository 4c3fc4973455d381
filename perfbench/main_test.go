package main

// The benchmark's self-test. It runs every workload at a tiny budget. It
// lives in the benchmark's own module, so the repository's
// `go test ./...` neither builds nor runs it:
//
//	cd perfbench && go test .

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"retstack/internal/experiments"
)

const tinyBudget = 2000

// tinyParams returns parameters for fast runs: a small instruction
// budget with its table fingerprints, and a three-campaign catalogue.
func tinyParams(t *testing.T) params {
	t.Helper()
	p := params{InstBudget: tinyBudget, Fingerprints: map[string]string{}}
	for _, id := range experiments.IDs() {
		res, err := experiments.Run(id, experiments.Params{InstBudget: tinyBudget})
		if err != nil {
			t.Fatal(err)
		}
		p.Fingerprints[id] = fingerprint(res.String())
	}
	p.Serve = serveParams{
		Catalogue: [][3]any{{"t3", "go", float64(tinyBudget)}, {"t4", "li", float64(tinyBudget)}, {"a1", "gcc", float64(tinyBudget)}},
	}
	return p
}

func writeParams(t *testing.T, p params) string {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "params.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func buildRasserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rasserve")
	if out, err := exec.Command("go", "build", "-o", bin, "retstack/cmd/rasserve").CombinedOutput(); err != nil {
		t.Fatalf("build rasserve: %v\n%s", err, out)
	}
	return bin
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// repository's BENCHMARK.json in step, names, units and order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], perfbench %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != strings.Join(workloadNames, ",") {
		t.Errorf("workloads = %s", got)
	}
}

// TestEveryMetricEmitted runs each workload untraced and traced and
// checks that every named metric comes out with its unit, the
// end-to-end ones never 0.
func TestEveryMetricEmitted(t *testing.T) {
	path := writeParams(t, tinyParams(t))
	srv := buildRasserve(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := run(w, 1, 0.3, traced, path, srv, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w, traced, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
			if w == "store-warm" && traced && res.Metrics["pipeline.cells"].Value != 0 {
				t.Errorf("store-warm simulated %v cells", res.Metrics["pipeline.cells"].Value)
			}
			if w == "serve-zipf" && traced {
				if h := res.Metrics["resultstore.hit_ratio"].Value; h <= 0 || h >= 1 {
					t.Errorf("serve-zipf hit ratio %v, want strictly between 0 and 1", h)
				}
			}
		}
	}
}

// TestAlteredTableFailsGate alters the expected tables and checks that
// each workload's gate counts the mismatch.
func TestAlteredTableFailsGate(t *testing.T) {
	p := tinyParams(t)
	p.Fingerprints["t3"] = fingerprint("an altered table\n")
	path := writeParams(t, p)
	for _, w := range []string{"sweep-cold", "store-warm"} {
		res, err := run(w, 1, 0.1, false, path, "", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: an altered t3 table passed the gate (attempted %d, failed %d)", w, res.Attempted, res.Failed)
		}
	}

	b := &bench{vals: map[string]float64{}, detail: map[string]any{}}
	cat := []entry{{"t3", "go", tinyBudget}}
	refs := map[int]string{0: "== t3 ==\n"}
	runs := []*campaignRun{
		{id: "c1", state: "completed", tables: "== t3 ==\n"},
		{id: "c2", state: "completed", tables: "== t3 (altered) ==\n"},
		{refused: "429 Too Many Requests"},
		{id: "c4"}, // never finished
		{id: "c5", state: "failed"},
	}
	good := b.checkCampaigns(runs, cat, refs)
	if len(good) != 1 || good[0].id != "c1" || b.failed != 4 {
		t.Errorf("serve-zipf gate kept %d campaigns and failed %d; want only c1 kept, 4 failed (%v)", len(good), b.failed, b.failures)
	}
}

// TestRootModuleExcludesBenchmark pins that the repository's tier-1
// `go test ./...` does not reach this module, so the benchmark adds
// nothing to tier-1 time.
func TestRootModuleExcludesBenchmark(t *testing.T) {
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = ".."
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	pkgs := strings.Fields(string(out))
	if len(pkgs) == 0 {
		t.Fatal("go list ./... found no packages")
	}
	for _, pkg := range pkgs {
		if strings.HasPrefix(pkg, "retstack/perfbench") {
			t.Errorf("tier-1 go test ./... would include %s", pkg)
		}
	}
}
