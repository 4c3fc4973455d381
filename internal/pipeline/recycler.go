package pipeline

import (
	"retstack/internal/config"
	"retstack/internal/emu"
	"retstack/internal/program"
)

// Recycler pools a simulator's bulk allocations — the RUU ring, the fetch
// queue, and full-stack checkpoint backing buffers — across the sequence
// of Sim instances one sweep worker runs. A multi-hundred-cell sweep
// otherwise re-allocates (and re-garbage-collects) the same few structures
// hundreds of times.
//
// A Recycler is owned by exactly one worker and is NOT safe for concurrent
// use; workers never share one. Recycled storage is zeroed on reuse, so a
// pooled Sim is indistinguishable from a freshly allocated one — the sweep
// determinism contract (parallel == serial, byte-identical) is preserved.
type Recycler struct {
	ruu      [][]ruuEntry
	slots    [][]fetchSlot
	bufs     [][]uint32
	overlays []*emu.Overlay
}

// NewRecycler returns an empty pool.
func NewRecycler() *Recycler { return &Recycler{} }

// takeRUU returns a zeroed ring of n entries, reusing pooled storage when
// one with sufficient capacity exists.
func (r *Recycler) takeRUU(n int) []ruuEntry {
	if r != nil {
		for i := len(r.ruu) - 1; i >= 0; i-- {
			if cap(r.ruu[i]) >= n {
				s := r.ruu[i][:n]
				r.ruu[i] = r.ruu[len(r.ruu)-1]
				r.ruu = r.ruu[:len(r.ruu)-1]
				clear(s)
				return s
			}
		}
	}
	return make([]ruuEntry, n)
}

// takeSlots returns a zeroed fetch queue of n slots.
func (r *Recycler) takeSlots(n int) []fetchSlot {
	if r != nil {
		for i := len(r.slots) - 1; i >= 0; i-- {
			if cap(r.slots[i]) >= n {
				s := r.slots[i][:n]
				r.slots[i] = r.slots[len(r.slots)-1]
				r.slots = r.slots[:len(r.slots)-1]
				clear(s)
				return s
			}
		}
	}
	return make([]fetchSlot, n)
}

// takeBufs moves every pooled checkpoint buffer into a Sim's free list.
// Contents are irrelevant: SaveInto overwrites a buffer before it is read.
func (r *Recycler) takeBufs() [][]uint32 {
	if r == nil || len(r.bufs) == 0 {
		return nil
	}
	b := r.bufs
	r.bufs = nil
	return b
}

// takeOverlays moves every pooled flat overlay into a Sim's free list.
// Each overlay is rebased (and its spill counter re-pointed) by
// takeOverlay before use, so stale contents and hooks cannot leak between
// simulations.
func (r *Recycler) takeOverlays() []*emu.Overlay {
	if r == nil || len(r.overlays) == 0 {
		return nil
	}
	o := r.overlays
	r.overlays = nil
	return o
}

// Release returns the Sim's bulk storage to the pool. Call it only after
// Run has finished and only when the Sim will not run again — the Sim
// keeps its statistics, machines, and predictors (everything the runners
// read), but its RUU and fetch queue are gone. Checkpoint buffers still
// owned by in-flight entries are harvested first so no stack copy leaks
// with the checkpoint pool.
func (s *Sim) Release(r *Recycler) {
	if r == nil {
		return
	}
	for i := range s.cps {
		if b := s.cps[i].TakeBuffer(); b != nil {
			r.bufs = append(r.bufs, b)
		}
	}
	r.bufs = append(r.bufs, s.cpFree...)
	r.ruu = append(r.ruu, s.ruu)
	r.slots = append(r.slots, s.fetchQ)
	s.ruu, s.fetchQ, s.cpFree = nil, nil, nil
	// Harvest flat overlays still attached to live paths along with the
	// Sim's own free list, detaching the spill counters that point into
	// this Sim's stats.
	for i := range s.paths {
		if o, ok := s.paths[i].overlay.(*emu.Overlay); ok {
			o.SetSpillCounter(nil)
			r.overlays = append(r.overlays, o)
			s.paths[i].overlay = nil
		}
	}
	for _, o := range s.ovFree {
		o.SetSpillCounter(nil)
		r.overlays = append(r.overlays, o)
	}
	s.ovFree = nil
}

// NewWithRecycler is New drawing the Sim's bulk storage from (and
// intended to be returned to, via Release) a worker-local pool. r may be
// nil, in which case it behaves exactly like New.
func NewWithRecycler(cfg config.Config, im *program.Image, r *Recycler) (*Sim, error) {
	n := cfg.SMTThreads
	if n < 1 {
		n = 1
	}
	ims := make([]*program.Image, n)
	for i := range ims {
		ims[i] = im
	}
	return NewSMTWithRecycler(cfg, ims, r)
}
