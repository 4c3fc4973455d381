package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"retstack/internal/campaignlog"
	"retstack/internal/experiments"
	"retstack/internal/sweep"
	"retstack/internal/telemetry"
)

// server is a running rasserve child process.
type server struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	eof  chan struct{} // closed when the child's stderr reaches EOF

	mu   sync.Mutex
	last string // last stderr line, for error reports
}

// startServer launches rasserve on fresh store and queue directories
// under dir and returns once /readyz answers 200, with the launch time.
func (b *bench) startServer(dir string) (*server, time.Duration, error) {
	cmd := exec.Command(b.rasserve, "-addr", "127.0.0.1:0",
		"-store", filepath.Join(dir, "store"), "-queue", filepath.Join(dir, "queue"),
		"-parallel", strconv.Itoa(b.workers))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start rasserve: %w", err)
	}
	s := &server{cmd: cmd, eof: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.eof)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
			s.mu.Lock()
			s.last = line
			s.mu.Unlock()
		}
	}()
	fail := func(err error) (*server, time.Duration, error) {
		s.stop()
		s.mu.Lock()
		defer s.mu.Unlock()
		return nil, 0, fmt.Errorf("rasserve: %w (last output: %q)", err, s.last)
	}
	select {
	case s.base = <-addr:
	case <-s.eof:
		return fail(fmt.Errorf("exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(fmt.Errorf("not listening after 30s"))
	}
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			return fail(fmt.Errorf("not ready after 30s"))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop ends the server — SIGTERM, then SIGKILL if it has not exited
// within 40 s — waits for it, and returns its peak resident set in MB.
func (s *server) stop() (float64, error) {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited child is fine
	select {
	case <-s.eof:
	case <-time.After(40 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // as above
		<-s.eof
	}
	err := s.cmd.Wait()
	rss := 0.0
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rss, err
}

// campaignRun is one scheduled campaign as the load generator saw it.
// The sender fills the submit fields and hands the run to the poller over
// a channel; the poller fills the rest.
type campaignRun struct {
	seq                int // position in the schedule
	entry              int
	due                time.Time
	postStart, postEnd time.Time
	id                 string
	refused            string // why the submission failed, if it did

	state       string
	submitted   time.Time     // server clock, from the status view
	serverRun   time.Duration // the server's run time, from the status view
	tablesStart time.Time
	doneAt      time.Time // final tables received
	tables      string
	fetchErr    string
	events      []event // traced runs only
}

func (r *campaignRun) latency() time.Duration { return r.doneAt.Sub(r.due) }

// event is the subset of a campaign result-stream event the trace needs.
type event struct {
	Event   string    `json:"event"`
	Time    time.Time `json:"time"`
	Seconds float64   `json:"seconds"`
	Worker  int       `json:"worker"`
	Cached  bool      `json:"cached"`
	Error   string    `json:"error"`
}

// plan draws the schedule's catalogue entries from the seed: Zipf over
// rank, rank 0 most popular.
func (b *bench) plan(n, entries int) []int {
	rng := rand.New(rand.NewSource(b.seed))
	z := rand.NewZipf(rng, zipfS, 1, uint64(entries-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// oneConn is an HTTP client that holds at most one connection.
func oneConn() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

func getBody(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

// loadgen runs the open loop on two connections: the sender's submits
// every campaign at its due time whatever the server's state, and c
// polls the outstanding campaigns every pollInterval and fetches each
// finished campaign's tables. It returns once every campaign has finished
// or drainLimit has passed since the last due time.
func (b *bench) loadgen(c *http.Client, base string, cat []entry, runs []*campaignRun) (backlog int) {
	// Sized to the schedule, so the sender never waits on the poller.
	accepted := make(chan *campaignRun, len(runs))
	var senderDone sync.WaitGroup
	senderDone.Add(1)
	go func() {
		defer senderDone.Done()
		defer close(accepted)
		c := oneConn()
		for _, r := range runs {
			time.Sleep(time.Until(r.due))
			if b.submit(c, base, cat[r.entry], r) {
				accepted <- r
			}
		}
	}()

	deadline := runs[len(runs)-1].due.Add(drainLimit)
	var outstanding []*campaignRun
	open := true
	for (open || len(outstanding) > 0) && time.Now().Before(deadline) {
		tick := time.Now()
		for drained := false; open && !drained; {
			select {
			case r, ok := <-accepted:
				if !ok {
					open = false
				} else {
					outstanding = append(outstanding, r)
				}
			default:
				drained = true
			}
		}
		backlog = max(backlog, len(outstanding))
		kept := outstanding[:0]
		for _, r := range outstanding {
			if !b.finished(c, base, r) {
				kept = append(kept, r)
				continue
			}
			if r.state != "completed" {
				continue
			}
			r.tablesStart = time.Now()
			r.tables, r.fetchErr = "", ""
			if t, err := getBody(c, base+"/campaigns/"+r.id+"/tables"); err != nil {
				r.fetchErr = err.Error()
			} else {
				r.tables = t
			}
			r.doneAt = time.Now()
		}
		outstanding = kept
		time.Sleep(pollInterval - time.Since(tick))
	}
	senderDone.Wait()
	return backlog
}

// submit posts one campaign and reports whether the server accepted it.
func (b *bench) submit(c *http.Client, base string, e entry, r *campaignRun) bool {
	spec, _ := json.Marshal(map[string]any{"exps": []string{e.Exp}, "insts": e.Budget, "workloads": []string{e.Clone}})
	r.postStart = time.Now()
	resp, err := c.Post(base+"/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		r.postEnd = time.Now()
		r.refused = err.Error()
		return false
	}
	defer resp.Body.Close()
	var v struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	r.postEnd = time.Now()
	switch {
	case resp.StatusCode != http.StatusAccepted:
		r.refused = resp.Status
	case err != nil || v.ID == "":
		r.refused = fmt.Sprintf("unreadable 202 body: %v", err)
	default:
		r.id = v.ID
		return true
	}
	return false
}

// finished polls one campaign's status and reports whether it is
// terminal. A failed poll counts as not yet finished.
func (b *bench) finished(c *http.Client, base string, r *campaignRun) bool {
	body, err := getBody(c, base+"/campaigns/"+r.id)
	if err != nil {
		return false
	}
	var v struct {
		Status    string    `json:"status"`
		Submitted time.Time `json:"submitted"`
		Wall      float64   `json:"wall_seconds"`
	}
	if json.Unmarshal([]byte(body), &v) != nil || !campaignlog.Terminal(v.Status) {
		return false
	}
	r.state, r.submitted = v.Status, v.Submitted
	r.serverRun = time.Duration(v.Wall * float64(time.Second))
	return true
}

func fetchEvents(c *http.Client, base, id string) []event {
	body, err := getBody(c, base+"/campaigns/"+id+"/results")
	if err != nil {
		return nil
	}
	var evs []event
	for _, line := range strings.Split(body, "\n") {
		var e event
		if json.Unmarshal([]byte(line), &e) == nil {
			evs = append(evs, e)
		}
	}
	return evs
}

// scrape reads the server's /metrics as series → value.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	body, err := getBody(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	return telemetry.Samples(strings.NewReader(body))
}

// histDelta is the difference of one histogram's cumulative buckets
// between two scrapes.
func histDelta(before, after map[string]float64, name string) []bucket {
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		le, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le = strings.TrimSuffix(le, `"}`)
		bound := math.Inf(1)
		if le != "+Inf" {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = f
		}
		bs = append(bs, bucket{le: bound, cum: v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	return bs
}

// serveZipf drives the real rasserve under an open loop at a fixed rate
// and checks every campaign's tables against an in-process render.
func (b *bench) serveZipf() error {
	cat, err := b.p.Serve.entries()
	if err != nil {
		return err
	}
	if len(cat) < 2 {
		return fmt.Errorf("params: serve needs at least 2 catalogue entries")
	}
	var budgets []uint64
	seen := map[uint64]bool{}
	for _, e := range cat {
		if !seen[e.Budget] {
			seen[e.Budget] = true
			budgets = append(budgets, e.Budget)
		}
	}
	images, err := b.setupImages(budgets)
	if err != nil {
		return err
	}
	var launches []float64
	var srv *server
	for rep := 0; rep < launchReps; rep++ {
		s, d, err := b.startServer(filepath.Join(b.work, fmt.Sprintf("server%d", rep)))
		if err != nil {
			return err
		}
		launches = append(launches, secs(d))
		if rep < launchReps-1 {
			if _, err := s.stop(); err != nil {
				return fmt.Errorf("stop rasserve after launch %d: %w", rep, err)
			}
			continue
		}
		srv = s
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop() //nolint:errcheck // error path: the run already failed
		}
	}()

	// The schedule opens with a warm-up that fills the store through the
	// server: a store's cold start is paid once per store, not per
	// campaign, and its burst of misses would otherwise decide the tail.
	warm := int(math.Round(ratePerS * storeWarmup.Seconds()))
	n := warm + max(int(math.Round(ratePerS*b.seconds.Seconds())), 1)
	plan := b.plan(n, len(cat))
	runs := make([]*campaignRun, n)
	interval := time.Second / ratePerS
	poller := oneConn()
	before, err := scrape(poller, srv.base)
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	start := time.Now().Add(10 * time.Millisecond)
	for i := range runs {
		runs[i] = &campaignRun{seq: i, entry: plan[i], due: start.Add(time.Duration(i) * interval)}
	}
	backlog := b.loadgen(poller, srv.base, cat, runs)
	loadWall := time.Since(start)
	after, err := scrape(poller, srv.base)
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	// A traced run fetches each timed campaign's event stream only now,
	// so tracing adds no work while the load runs.
	var traceWork time.Duration
	if b.traced() {
		t := time.Now()
		for _, r := range runs[warm:] {
			if r.state == "completed" {
				r.events = fetchEvents(poller, srv.base, r.id)
			}
		}
		traceWork = time.Since(t)
	}
	stopped = true
	rss, err := srv.stop()
	if err != nil {
		return fmt.Errorf("stop rasserve: %w", err)
	}

	refs, cells, err := b.references(cat, runs)
	if err != nil {
		return err
	}
	b.attempted = n
	var timed []*campaignRun
	var lat []float64
	var first, last time.Time
	var serverRun time.Duration
	inLimit, resolved, wantR, wantPuts := 0, 0, 0, 0
	distinct := map[int]bool{}
	for _, r := range b.checkCampaigns(runs, cat, refs) {
		wantR += cells[r.entry]
		if !distinct[r.entry] {
			distinct[r.entry] = true
			wantPuts += cells[r.entry]
		}
		if r.seq < warm {
			continue
		}
		timed = append(timed, r)
		lat = append(lat, ms(r.latency()))
		if r.latency() <= latencyLimit {
			inLimit++
		}
		if first.IsZero() || r.due.Before(first) {
			first = r.due
		}
		if r.doneAt.After(last) {
			last = r.doneAt
		}
		resolved += cells[r.entry]
		serverRun += r.serverRun
	}
	// sched runs from the first timed due time to the last timed table.
	sched := last.Sub(first)
	if sched <= 0 { // nothing timed finished correctly
		sched = loadWall
	}
	sort.Slice(timed, func(i, j int) bool { return timed[i].latency() > timed[j].latency() })
	var slowest [][]any
	for _, r := range timed[:min(10, len(timed))] {
		e := cat[r.entry]
		slowest = append(slowest, []any{secs(r.due.Sub(start)), e.Exp, e.Clone, e.Budget, ms(r.latency())})
	}
	b.detail["slowest_campaigns"] = slowest

	hits := after[telemetry.MetricStoreHits] - before[telemetry.MetricStoreHits]
	misses := after[telemetry.MetricStoreMisses] - before[telemetry.MetricStoreMisses]
	puts := after[telemetry.MetricStorePuts] - before[telemetry.MetricStorePuts]
	shared := after[telemetry.MetricStoreShared] - before[telemetry.MetricStoreShared]
	hitRatio := 0.0
	if lookups := hits + shared + puts; lookups > 0 {
		hitRatio = (hits + shared) / lookups
	}
	tailV, tailPct := tail(lat)
	b.vals["setup_s"] = secs(images) + median(launches)
	b.vals["wall_s"] = secs(serverRun)
	b.vals["cells_per_s"] = 0
	if serverRun > 0 {
		b.vals["cells_per_s"] = float64(resolved) / secs(serverRun)
	}
	b.vals["op_p50_ms"] = median(lat)
	b.vals["goodput_per_s"] = float64(inLimit) / secs(sched)
	b.vals["max_rss_mb"] = rss
	b.detail["op_tail_ms"] = tailV
	b.detail["op_tail_percentile"] = tailPct
	b.detail["op_samples"] = len(lat)
	b.detail["schedule_s"] = secs(sched)
	b.detail["setup_reps"] = setupReps
	b.detail["launch_reps"] = launchReps
	b.detail["latency_resolution_ms"] = ms(pollInterval)
	b.detail["drain_limit_s"] = secs(drainLimit)
	b.detail["latency_limit_ms"] = ms(latencyLimit)
	b.detail["rate_per_s"] = ratePerS
	b.detail["zipf_s"] = zipfS
	b.detail["warmup_campaigns"] = warm
	b.detail["repeat_share"] = hitRatio
	b.detail["distinct_campaigns"] = len(distinct)
	if wantR > 0 {
		// Each distinct campaign simulates its cells once; every other
		// cell lookup is a repeat. The store's counters should agree.
		b.detail["expected_hit_ratio"] = 1 - float64(wantPuts)/float64(wantR)
	}
	if !b.traced() {
		return nil
	}

	b.vals["resultstore.gets"] = hits + misses
	b.vals["resultstore.hit_ratio"] = hitRatio
	b.vals["inputs.repeat_frac"] = hitRatio
	b.vals["resultstore.puts"] = puts
	b.vals["resultstore.shared"] = shared
	gets := histDelta(before, after, telemetry.MetricStoreGetSeconds)
	putsH := histDelta(before, after, telemetry.MetricStorePutSeconds)
	b.vals["resultstore.get_p50_us"] = histQuantile(gets, 0.5) * 1e6
	b.vals["resultstore.get_tail_us"] = histTail(gets) * 1e6
	b.vals["resultstore.put_p50_ms"] = histQuantile(putsH, 0.5) * 1e3
	b.vals["resultstore.put_tail_ms"] = histTail(putsH) * 1e3
	b.vals["rasserve.backlog_max"] = float64(backlog)
	b.vals["trace.overhead_frac"] = secs(traceWork) / secs(loadWall)
	b.serveLayers(runs[warm:], cat, sched)
	return nil
}

// checkCampaigns counts every campaign that was refused, did not finish
// in time, did not complete, or whose tables differ from the in-process
// render of its spec as failed, and returns the rest.
func (b *bench) checkCampaigns(runs []*campaignRun, cat []entry, refs map[int]string) []*campaignRun {
	var good []*campaignRun
	for _, r := range runs {
		switch {
		case r.refused != "":
			b.fail("campaign %d refused: %s", r.seq, r.refused)
		case r.state == "":
			b.fail("campaign %d (%s) did not finish within the drain limit", r.seq, r.id)
		case r.state != "completed":
			b.fail("campaign %d (%s) ended %s", r.seq, r.id, r.state)
		case r.fetchErr != "":
			b.fail("campaign %d (%s) tables: %s", r.seq, r.id, r.fetchErr)
		case r.tables != refs[r.entry]:
			b.fail("campaign %d (%s) tables differ from the in-process render of %v", r.seq, r.id, cat[r.entry])
		default:
			good = append(good, r)
		}
	}
	return good
}

// references renders every catalogue entry the finished campaigns used,
// in process and without a store, and counts each entry's cells.
func (b *bench) references(cat []entry, runs []*campaignRun) (map[int]string, map[int]int, error) {
	refs, cells := map[int]string{}, map[int]int{}
	for _, r := range runs {
		if r.state != "completed" {
			continue
		}
		if _, done := refs[r.entry]; done {
			continue
		}
		e := cat[r.entry]
		n := 0
		res, err := experiments.Run(e.Exp, experiments.Params{
			InstBudget: e.Budget, Workloads: []string{e.Clone},
			Parallel: b.workers,
			OnWorkerStats: func(ws []sweep.WorkerStats) {
				for _, w := range ws {
					n += w.Started
				}
			},
		})
		if err != nil {
			return nil, nil, fmt.Errorf("reference %v: %w", e, err)
		}
		refs[r.entry], cells[r.entry] = res.String(), n
	}
	return refs, cells, nil
}

// serveLayers turns the timed campaigns into spans and per-layer
// metrics.
func (b *bench) serveLayers(runs []*campaignRun, cat []entry, sched time.Duration) {
	var submit, queue, runT, tables, lags []float64
	var cellNs float64
	var cellInsts uint64
	var cellErrs int
	sent := 0
	rec := b.rec
	for _, r := range runs {
		if r.postStart.IsZero() {
			continue
		}
		sent++
		lags = append(lags, ms(r.postStart.Sub(r.due)))
		submit = append(submit, ms(r.postEnd.Sub(r.postStart)))
		if r.doneAt.IsZero() {
			continue
		}
		tables = append(tables, ms(r.doneAt.Sub(r.tablesStart)))
		op := rec.newID()
		rec.add(op, 0, op, "campaign", -1, r.due, r.doneAt)
		rec.add(0, op, op, "loadgen.lag", -1, r.due, r.postStart)
		rec.add(0, op, op, "rasserve.submit", -1, r.postStart, r.postEnd)
		rec.add(0, op, op, "rasserve.tables", -1, r.tablesStart, r.doneAt)
		var started, done time.Time
		for _, e := range r.events {
			switch e.Event {
			case "campaign_start":
				started = e.Time
			case "campaign_done":
				done = e.Time
			}
		}
		if started.IsZero() || done.IsZero() {
			continue
		}
		queue = append(queue, ms(started.Sub(r.submitted)))
		runT = append(runT, ms(done.Sub(started)))
		rec.add(0, op, op, "rasserve.queue", -1, r.submitted, started)
		runSpan := rec.newID()
		rec.add(runSpan, op, op, "rasserve.run", -1, started, done)
		for _, e := range r.events {
			if e.Event != "cell_done" || e.Cached {
				continue
			}
			if e.Error != "" {
				cellErrs++
			}
			d := time.Duration(e.Seconds * float64(time.Second))
			rec.add(0, runSpan, op, "pipeline.cell", e.Worker, e.Time.Add(-d), e.Time)
			cellNs += float64(d)
			cellInsts += cat[r.entry].Budget
		}
	}
	spans := rec.snapshot()
	cs := cellStats(spans, b.workers)
	b.vals["pipeline.cells"] = float64(cs.n)
	b.vals["pipeline.cell_p50_ms"] = ms(cs.p50)
	b.vals["pipeline.cell_tail_ms"] = ms(cs.tail)
	if cellInsts > 0 {
		b.vals["pipeline.ns_per_inst"] = cellNs / float64(cellInsts)
	}
	b.vals["sweep.busy_s"] = secs(cs.busy)
	b.vals["sweep.utilization"] = secs(cs.busy) / (float64(b.workers) * secs(sched))
	b.vals["sweep.barrier_idle_s"] = secs(cs.barrierIdle)
	b.vals["sweep.straggler_ratio"] = cs.straggler
	b.vals["sweep.cell_errors"] = float64(cellErrs)
	b.vals["experiments.run_s"] = median(runT) / 1e3
	b.vals["rasserve.submit_p50_ms"] = median(submit)
	b.vals["rasserve.submit_tail_ms"], _ = tail(submit)
	b.vals["rasserve.queue_wait_p50_ms"] = median(queue)
	b.vals["rasserve.queue_wait_tail_ms"], _ = tail(queue)
	b.vals["rasserve.run_p50_ms"] = median(runT)
	b.vals["rasserve.run_tail_ms"], _ = tail(runT)
	b.vals["rasserve.tables_ms"] = median(tables)
	b.vals["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	b.vals["loadgen.sent"] = float64(sent)
	b.traceResults(spans, "campaign")
}
