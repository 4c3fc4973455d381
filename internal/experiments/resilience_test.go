package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"retstack/internal/faultinject"
	"retstack/internal/sweep"
)

// t3 over two workloads is 8 cells (4 repair policies each): small enough
// to sweep repeatedly, big enough to exercise every policy path.
func resilParams() Params {
	return Params{InstBudget: 15_000, Workloads: []string{"go", "li"}, Parallel: 2}
}

func mustPlan(t *testing.T, spec string, seed uint64) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cellLog is a Monitor recording which cells entered the sweep engine
// and which finished successfully; cancelAfter, if set, fires once the
// given number of cells has succeeded.
type cellLog struct {
	mu          sync.Mutex
	started     map[int]bool
	succeeded   map[int]bool
	cancelAfter int
	cancel      context.CancelFunc
}

func newCellLog() *cellLog {
	return &cellLog{started: map[int]bool{}, succeeded: map[int]bool{}}
}

func (l *cellLog) CellStart(cell, worker int) {
	l.mu.Lock()
	l.started[cell] = true
	l.mu.Unlock()
}

func (l *cellLog) CellDone(cell, worker int, d time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil {
		l.succeeded[cell] = true
	}
	if l.cancel != nil && len(l.succeeded) == l.cancelAfter {
		l.cancel()
	}
}

// TestStoreResumesInterruptedRun is the crash-safe-resume contract: a
// store-backed run canceled partway persists the cells it finished, and
// rerunning against the reopened store renders byte-identically to an
// uncached run. The store refuses fault injection, so the rerun's monitor
// is what proves the persisted cells were spliced rather than executed:
// OnStoreHit fires exactly once for each of them, and CellStart fires
// only for the rest.
func TestStoreResumesInterruptedRun(t *testing.T) { checkStoreResume(t, "t3") }

// TestT2ResumeRoundTrips: t2's stored cells carry both the simulation
// stats and the functional profile, so a resumed Table 2 is
// byte-identical too.
func TestT2ResumeRoundTrips(t *testing.T) { checkStoreResume(t, "t2") }

// checkStoreResume interrupts a store-backed, serial run of exp after
// half its cells, reruns it against the reopened store, and checks the
// rerun against an uncached run and against which cells were persisted.
func checkStoreResume(t *testing.T, exp string) {
	t.Helper()
	all := newCellLog()
	p := resilParams()
	p.Monitor = all
	clean, err := Run(exp, p)
	if err != nil {
		t.Fatal(err)
	}
	n := len(all.started)
	k := n / 2
	if k < 1 {
		t.Fatalf("%s swept %d cells; interrupting it partway needs at least 2", exp, n)
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := newCellLog()
	first.cancelAfter, first.cancel = k, cancel
	pi := storeParams(st, "s")
	pi.Parallel = 1 // the sweep stops claiming right after cell k-1
	pi.Ctx, pi.Monitor = ctx, first
	if _, err := Run(exp, pi); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if len(first.succeeded) != k || st.Len() != k {
		t.Fatalf("interrupted run finished %d cells and stored %d, want %d of %d",
			len(first.succeeded), st.Len(), k, n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	second := newCellLog()
	hits := map[int]int{}
	var mu sync.Mutex
	pr := storeParams(openStore(t, dir), "s")
	pr.Monitor = second
	pr.OnStoreHit = func(_ string, cell int, _ bool) {
		mu.Lock()
		hits[cell]++
		mu.Unlock()
	}
	resumed, err := Run(exp, pr)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.String() != clean.String() {
		t.Errorf("resumed output differs from an uncached run:\n--- uncached ---\n%s--- resumed ---\n%s",
			clean, resumed)
	}
	for cell := 0; cell < n; cell++ {
		if first.succeeded[cell] {
			if hits[cell] != 1 || second.started[cell] {
				t.Errorf("persisted cell %d: %d store hits, executed %v; want 1 hit, not executed",
					cell, hits[cell], second.started[cell])
			}
		} else if hits[cell] != 0 || !second.started[cell] {
			t.Errorf("unpersisted cell %d: %d store hits, executed %v; want 0 hits, executed",
				cell, hits[cell], second.started[cell])
		}
	}
}

// TestRetryOutlastsBoundedTransient: a fault that fails the first two
// attempts clears on the third, so the retry policy completes the sweep
// with results identical to an uninjected run.
func TestRetryOutlastsBoundedTransient(t *testing.T) {
	clean, err := Run("t3", resilParams())
	if err != nil {
		t.Fatal(err)
	}
	p := resilParams()
	p.OnCellError = sweep.Retry
	p.RetryBackoff = time.Millisecond
	p.Inject = mustPlan(t, "transient:t3/3x2", 0)
	res, err := Run("t3", p)
	if err != nil {
		t.Fatalf("retry policy did not survive a bounded transient: %v", err)
	}
	if res.String() != clean.String() {
		t.Error("retried run's output differs from a clean run")
	}
}

// TestSkipPolicyLeavesExplicitHole: under skip, the failing cell becomes a
// "-" table entry and a Result.Holes line — never a silent zero.
func TestSkipPolicyLeavesExplicitHole(t *testing.T) {
	p := resilParams()
	p.OnCellError = sweep.Skip
	p.Inject = mustPlan(t, "panic:3x99", 0)
	res, err := Run("t3", p)
	if err != nil {
		t.Fatalf("skip policy aborted: %v", err)
	}
	if len(res.Holes) != 1 {
		t.Fatalf("holes = %v, want exactly one", res.Holes)
	}
	if !strings.Contains(res.Holes[0], "cell 3") || !strings.Contains(res.Holes[0], "injected panic") {
		t.Errorf("hole %q does not name the cell and cause", res.Holes[0])
	}
	out := res.String()
	if !strings.Contains(out, "hole: ") {
		t.Error("rendered result does not surface the hole")
	}
	// Cell 3 is (go, full): its row must show "-" and its values be absent.
	if !strings.Contains(out, "-") {
		t.Error("table does not render the hole as '-'")
	}
	if _, ok := res.Get("hit", "go", "full"); ok {
		t.Error("holed cell still produced a structured value")
	}
	if _, ok := res.Get("hit", "go", "none"); !ok {
		t.Error("sibling cells lost their values")
	}
}

// TestAbortPolicySurfacesCellError: the default policy turns the injected
// failure into a typed *CellError naming the cell.
func TestAbortPolicySurfacesCellError(t *testing.T) {
	p := resilParams()
	p.Inject = mustPlan(t, "transient:t3/3x99", 0)
	_, err := Run("t3", p)
	var ce *sweep.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *sweep.CellError", err)
	}
	if ce.Cell != 3 {
		t.Errorf("failing cell = %d, want 3", ce.Cell)
	}
}

// TestWatchdogAbandonsHungCell: an injected hang trips the per-cell
// watchdog; under skip the sweep completes with the hang as a hole.
func TestWatchdogAbandonsHungCell(t *testing.T) {
	p := resilParams()
	p.OnCellError = sweep.Skip
	// Generous: a healthy 15k-inst cell finishes in milliseconds even under
	// -race, while the injected hang blocks until the watchdog fires.
	p.CellTimeout = 3 * time.Second
	p.Inject = mustPlan(t, "hang:2x99", 0)
	res, err := Run("t3", p)
	if err != nil {
		t.Fatalf("watchdog did not contain the hang: %v", err)
	}
	if len(res.Holes) != 1 || !strings.Contains(res.Holes[0], "watchdog") {
		t.Errorf("holes = %v, want one watchdog timeout", res.Holes)
	}
}

// TestCancellationPropagates: a canceled context stops the sweep with
// context.Canceled, the signal rasbench's interrupted path keys on.
func TestCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := resilParams()
	p.Ctx = ctx
	_, err := Run("t3", p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCorruptionAbsorbedInSweep is the paper-aligned injection contract at
// the experiments level: corrupting a cell's live RAS mid-simulation must
// not fail the sweep or help the predictor — the corruption is repaired or
// becomes mispredictions.
func TestCorruptionAbsorbedInSweep(t *testing.T) {
	clean, err := Run("t3", resilParams())
	if err != nil {
		t.Fatal(err)
	}
	p := resilParams()
	p.Inject = mustPlan(t, "corrupt:0,corrupt:2", 42) // (go, none) and (go, proposal)
	hurt, err := Run("t3", p)
	if err != nil {
		t.Fatalf("corruption crashed the sweep: %v", err)
	}
	for _, cfg := range []string{"none", "tos-ptr+contents"} {
		ch, _ := clean.Get("hit", "go", cfg)
		hh, ok := hurt.Get("hit", "go", cfg)
		if !ok {
			t.Fatalf("corrupted cell (%s) produced no value", cfg)
		}
		if hh > ch+1e-9 {
			t.Errorf("%s: corruption improved the hit rate (%.4f > %.4f)", cfg, hh, ch)
		}
	}
	// Untouched cells are unaffected.
	cl, _ := clean.Get("hit", "li", "full")
	hl, _ := hurt.Get("hit", "li", "full")
	if cl != hl {
		t.Errorf("uninjected cell changed: %.6f vs %.6f", cl, hl)
	}
}
