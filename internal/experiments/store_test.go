package experiments

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"retstack/internal/resultstore"
)

// storeParams mirrors resilParams: t3 over two workloads is 8 cells.
func storeParams(st *resultstore.Store, scope string) Params {
	p := Params{InstBudget: 15_000, Workloads: []string{"go", "li"}, Parallel: 2}
	p.Store, p.StoreScope = st, scope
	return p
}

func openStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoreMatchesUncached is the byte-identity pin for the result store,
// the same contract the -no-blocks/-no-predecode A/B flags carry: an
// uncached run, a cold cached run, and a warm run against a reopened
// store must render identical tables.
func TestStoreMatchesUncached(t *testing.T) {
	uncached, err := Run("t3", storeParams(nil, ""))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cold := openStore(t, dir)
	res, err := Run("t3", storeParams(cold, "scopeA"))
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != uncached.String() {
		t.Errorf("cold cached run differs from uncached:\n--- uncached ---\n%s--- cold ---\n%s", uncached, res)
	}
	if s := cold.Stats(); s.Hits != 0 || s.Misses != 8 || s.Puts != 8 {
		t.Errorf("cold stats = %+v, want 0 hits, 8 misses, 8 puts", s)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	// A cell that splices from the store never enters the sweep engine,
	// so a fully-warm run must report zero starts — the "zero
	// simulations" half of the cache-smoke contract.
	warm := openStore(t, dir)
	mon := newCellLog()
	p := storeParams(warm, "scopeA")
	p.Monitor = mon
	res, err = Run("t3", p)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != uncached.String() {
		t.Errorf("warm cached run differs from uncached:\n--- uncached ---\n%s--- warm ---\n%s", uncached, res)
	}
	if s := warm.Stats(); s.Hits != 8 || s.Misses != 0 || s.Puts != 0 {
		t.Errorf("warm stats = %+v, want 8 hits, 0 misses, 0 puts", s)
	}
	if len(mon.started) != 0 {
		t.Errorf("warm run started %d cells in the engine, want 0 (all spliced)", len(mon.started))
	}
}

// TestStoreScopeSeparatesParams: the store key folds in the caller's
// scope hash, so a warm store probed under a different scope (different
// result-determining parameters) must miss everything and re-simulate.
func TestStoreScopeSeparatesParams(t *testing.T) {
	st := openStore(t, t.TempDir())
	if _, err := Run("t3", storeParams(st, "scopeA")); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	if _, err := Run("t3", storeParams(st, "scopeB")); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if hits := after.Hits - before.Hits; hits != 0 {
		t.Errorf("run under a new scope hit %d cached cells, want 0", hits)
	}
	if miss := after.Misses - before.Misses; miss != 8 {
		t.Errorf("run under a new scope missed %d cells, want 8", miss)
	}
}

// TestOnStoreHitCallback: every warm-splice surfaces through OnStoreHit
// exactly once, with shared=false (no concurrent flight to join). Hits
// are looked up and decoded in parallel, but OnStoreHit fires in
// ascending cell order on the goroutine that called Run — rasserve's
// cell_cached event order relies on it.
func TestOnStoreHitCallback(t *testing.T) {
	st := openStore(t, t.TempDir())
	if _, err := Run("t3", storeParams(st, "s")); err != nil {
		t.Fatal(err)
	}
	caller := goroutineID()
	var cells []int
	p := storeParams(st, "s")
	p.OnStoreHit = func(exp string, cell int, shared bool) {
		if id := goroutineID(); id != caller {
			t.Errorf("cell %d reported on goroutine %d, want the caller's %d", cell, id, caller)
			return
		}
		if exp != "t3" {
			t.Errorf("hit reported for experiment %q, want t3", exp)
		}
		if shared {
			t.Errorf("cell %d reported shared=true on a sequential warm run", cell)
		}
		cells = append(cells, cell)
	}
	if _, err := Run("t3", p); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("OnStoreHit fired %d times (%v), want 8", len(cells), cells)
	}
	for i, c := range cells {
		if c != i {
			t.Fatalf("OnStoreHit order = %v, want cells 0..7 once each, ascending", cells)
		}
	}
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestStoreRefusesFaultInjection: injected cells produce corrupted
// results a clean run must never read back, so combining -store with
// -inject is an error, not a footgun.
func TestStoreRefusesFaultInjection(t *testing.T) {
	st := openStore(t, t.TempDir())
	p := storeParams(st, "s")
	p.Inject = mustPlan(t, "panic:0x1", 0)
	if _, err := Run("t3", p); err == nil {
		t.Fatal("Run with Store+Inject succeeded, want refusal")
	}
}

// TestConcurrentRunsShareFlights is the singleflight collapse proof at
// the experiments layer (run under -race in CI): four identical sweeps
// racing on one cold store must persist each cell exactly once — every
// other caller either joins the in-flight simulation or hits the record
// it left behind — and all four must render identical tables.
func TestConcurrentRunsShareFlights(t *testing.T) {
	st := openStore(t, t.TempDir())
	const racers = 4
	results := make([]*Result, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = Run("t3", storeParams(st, "race"))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", r, err)
		}
	}
	for r := 1; r < racers; r++ {
		if results[r].String() != results[0].String() {
			t.Errorf("racer %d output differs from racer 0", r)
		}
	}
	s := st.Stats()
	if s.Puts != 8 {
		t.Errorf("%d cells persisted across %d concurrent runs, want 8 (one simulation per cell)", s.Puts, racers)
	}
	if got := s.Hits + s.Shared; got != (racers-1)*8 {
		t.Errorf("hits+shared = %d, want %d: every non-leader must hit or join a flight", got, (racers-1)*8)
	}
}

// TestStoreFaultDegradesToUncached is the compute-without-cache
// contract: a store whose Puts fail mid-run (disk full) must not fail
// the run — every cell that simulated successfully completes, the
// OnStoreFault callback fires so a server can flip degraded, and the
// rendered tables are byte-identical to an uncached run. Cells persisted
// before the fault still serve as hits on a rerun.
func TestStoreFaultDegradesToUncached(t *testing.T) {
	uncached, err := Run("t3", storeParams(nil, ""))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	var allowed atomic.Int64
	allowed.Store(2) // first two Puts land, the rest fail
	st.SetPutFault(func() error {
		if allowed.Add(-1) < 0 {
			return errors.New("no space left on device")
		}
		return nil
	})
	var faults atomic.Int64
	p := storeParams(st, "scopeA")
	p.Parallel = 1 // deterministic put order: exactly 2 persisted
	p.OnStoreFault = func(err error) {
		if !resultstore.IsIO(err) {
			t.Errorf("OnStoreFault got a non-I/O error: %v", err)
		}
		faults.Add(1)
	}
	res, err := Run("t3", p)
	if err != nil {
		t.Fatalf("run under store fault failed instead of degrading: %v", err)
	}
	if res.String() != uncached.String() {
		t.Errorf("degraded run differs from uncached:\n--- uncached ---\n%s--- degraded ---\n%s", uncached, res)
	}
	if got := faults.Load(); got != 6 {
		t.Errorf("OnStoreFault fired %d times, want 6 (8 cells - 2 persisted)", got)
	}
	if puts := st.Stats().Puts; puts != 2 {
		t.Errorf("store persisted %d cells, want 2", puts)
	}

	// The two persisted cells are real hits once the fault clears.
	st.SetPutFault(nil)
	hits := 0
	p2 := storeParams(st, "scopeA")
	p2.OnStoreHit = func(exp string, cell int, shared bool) { hits++ }
	p2.Parallel = 1
	if _, err := Run("t3", p2); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Errorf("rerun hit %d cells, want the 2 persisted before the fault", hits)
	}
}

// TestWarmRerunBuildsNoImages is the warm-path contract: after a cold
// fill of every experiment, a warm rerun against the reopened store
// resolves every cell from the store before any image pre-warm, so it
// builds no image (and generates no workload source), starts no cell in
// the engine, and renders what the fill rendered.
func TestWarmRerunBuildsNoImages(t *testing.T) {
	params := func(st *resultstore.Store) Params {
		return Params{InstBudget: 10_000, Parallel: 2, Store: st, StoreScope: "warm"}
	}
	dir := t.TempDir()
	fill := openStore(t, dir)
	before := imageBuilds.Load()
	cold := map[string]string{}
	for _, id := range IDs() {
		res, err := Run(id, params(fill))
		if err != nil {
			t.Fatal(err)
		}
		cold[id] = res.String()
	}
	if imageBuilds.Load() == before {
		t.Fatal("cold fill built no images: the counter is not wired")
	}
	if err := fill.Close(); err != nil {
		t.Fatal(err)
	}

	warm := openStore(t, dir)
	mon := newCellLog()
	before = imageBuilds.Load()
	for _, id := range IDs() {
		p := params(warm)
		p.Monitor = mon
		res, err := Run(id, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.String() != cold[id] {
			t.Errorf("%s: warm rerun differs from the cold fill", id)
		}
	}
	if n := imageBuilds.Load() - before; n != 0 {
		t.Errorf("warm rerun built %d images, want 0", n)
	}
	if len(mon.started) != 0 {
		t.Errorf("warm rerun started %d cells in the engine, want 0", len(mon.started))
	}
	if s := warm.Stats(); s.Misses != 0 || s.Hits == 0 {
		t.Errorf("warm stats = %+v, want hits only", s)
	}
}
