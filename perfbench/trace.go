package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// (a campaign) share Op; Parent is the span that caused
// this one, 0 for an operation's root. The layer is the name's prefix
// before the first dot ("pipeline.cell" belongs to "pipeline").
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Worker int    `json:"worker"` // sweep worker of a cell, else -1
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory for one traced run; they are written out
// when the run ends. A nil recorder records nothing, which is how an
// untraced run stays free of tracing work.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span id, so children can name a parent that has not
// ended yet. A nil recorder hands out 0.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span; id 0 allocates a fresh one.
func (r *recorder) add(id, parent, op int64, name string, worker int, start, end time.Time) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.newID()
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name, Worker: worker,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON Lines, ordered by start time.
func (r *recorder) write(path string) error {
	spans := r.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of [start,end) intervals clipped to
// [lo,hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	var c [][2]int64
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if s < e {
			c = append(c, [2]int64{s, e})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curS, curE int64
	open := false
	for _, v := range c {
		if open && v[0] <= curE {
			curE = max(curE, v[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = v[0], v[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// traceSummary is what a traced run reports from its spans.
type traceSummary struct {
	// selfPerOp is each layer's self time per traced operation: a span's
	// duration minus the part of it its children cover, summed by layer.
	selfPerOp map[string]time.Duration
	// unattributed is the share of the operations' wall time covered by no
	// layer span.
	unattributed float64
	ops          int
}

// summarize computes self times and unattributed time for the operations
// rooted at the spans named root.
func summarize(spans []span, root string) traceSummary {
	children := map[int64][][2]int64{}
	byOp := map[int64][][2]int64{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		if s.Name != root {
			byOp[s.Op] = append(byOp[s.Op], [2]int64{s.Start, s.End})
		}
	}
	out := traceSummary{selfPerOp: map[string]time.Duration{}}
	var wall, bare int64
	for _, s := range spans {
		if s.Name == root {
			out.ops++
			wall += s.End - s.Start
			bare += s.End - s.Start - covered(byOp[s.ID], s.Start, s.End)
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out.selfPerOp[s.layer()] += time.Duration(self)
	}
	if out.ops > 0 {
		for k, v := range out.selfPerOp {
			out.selfPerOp[k] = v / time.Duration(out.ops)
		}
	}
	if wall > 0 {
		out.unattributed = float64(bare) / float64(wall)
	}
	return out
}

// cellLayer is what the sweep-engine and pipeline per-layer metrics need
// from a set of pipeline.cell spans.
type cellLayer struct {
	n           int
	p50, tail   time.Duration
	busy        time.Duration
	barrierIdle time.Duration
	straggler   float64 // slowest cell over the median cell
}

// cellStats groups cells by their parent (one experiment's sweep) to
// measure the idle time of workers at the end of each sweep: every worker
// waits from its last cell's end until the sweep's last cell ends. A
// worker that ran no cell of a sweep idles from the sweep's first cell on.
func cellStats(spans []span, workers int) cellLayer {
	var out cellLayer
	var ds []float64
	groups := map[int64][]span{}
	for _, s := range spans {
		if s.Name != "pipeline.cell" {
			continue
		}
		out.n++
		out.busy += s.dur()
		ds = append(ds, float64(s.dur()))
		groups[s.Parent] = append(groups[s.Parent], s)
	}
	if out.n == 0 {
		return out
	}
	out.p50 = time.Duration(median(ds))
	t, _ := tail(ds)
	out.tail = time.Duration(t)
	out.straggler = quantile(ds, 1) / median(ds)
	for _, g := range groups {
		first, last := g[0].Start, g[0].End
		lastBy := map[int]int64{}
		for _, s := range g {
			first, last = min(first, s.Start), max(last, s.End)
			lastBy[s.Worker] = max(lastBy[s.Worker], s.End)
		}
		for w := 0; w < workers; w++ {
			if e, ok := lastBy[w]; ok {
				out.barrierIdle += time.Duration(last - e)
			} else {
				out.barrierIdle += time.Duration(last - first)
			}
		}
	}
	return out
}
