package pipeline

import (
	"math/bits"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/isa"
)

// The issue and writeback stages never walk the RUU. Following
// sim-outorder's ready queue and event queue, they work from sets of ring
// slots kept current as entries move through the pipeline:
//
//   - Sim.ready holds the unissued entries whose operands are available.
//     Dispatch adds an entry with no pending producer. Otherwise the
//     entry is linked onto each producer's waiters list and counts its
//     pending operands; a producer's completion (or squash) walks its
//     list, and a consumer whose count reaches zero joins the set. Issue
//     and squash remove entries.
//   - Sim.wheel is a completion wheel: one slot set per cycle, modulo a
//     power-of-two span above the longest latency. Issue files an entry
//     under its completeAt; writeback takes the current cycle's bucket;
//     squash removes in-flight entries.
//   - Sim.stores holds the live (dispatched, unsquashed) stores, so a
//     load's forwarding check walks only the older stores.
//
// Walking a set from ruuHead visits its members in ring (age) order, the
// order a scan of the ring would. CheckInvariants recomputes every set by
// such a scan, as an oracle.

// slotSet is a set of RUU ring slots. Each member i is stored twice, at
// bits i and i+n, so the members in ring-age order from head h are the set
// bits in [h, h+n) in ascending order: a walk is one forward bit scan.
type slotSet struct {
	w []uint64
	n int
}

func newSlotSet(n int) slotSet { return slotSet{make([]uint64, (2*n+63)>>6), n} }

func (s slotSet) add(i int) {
	s.w[i>>6] |= 1 << (uint(i) & 63)
	j := i + s.n
	s.w[j>>6] |= 1 << (uint(j) & 63)
}

func (s slotSet) del(i int) {
	s.w[i>>6] &^= 1 << (uint(i) & 63)
	j := i + s.n
	s.w[j>>6] &^= 1 << (uint(j) & 63)
}

func (s slotSet) has(i int) bool { return s.w[i>>6]&(1<<(uint(i)&63)) != 0 }

// next returns the lowest set bit position at or after pos, or a position
// past 2n when there is none. Member slot = position mod n.
func (s slotSet) next(pos int) int {
	w := pos >> 6
	if w >= len(s.w) {
		return len(s.w) << 6
	}
	word := s.w[w] & (^uint64(0) << (uint(pos) & 63))
	for word == 0 {
		if w++; w == len(s.w) {
			return len(s.w) << 6
		}
		word = s.w[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// prev returns the highest set bit position in [lo, pos], or -1.
func (s slotSet) prev(pos, lo int) int {
	if pos < lo {
		return -1
	}
	w := pos >> 6
	word := s.w[w] & (^uint64(0) >> (63 - uint(pos)&63))
	for word == 0 {
		if w--; w < lo>>6 {
			return -1
		}
		word = s.w[w]
	}
	if p := w<<6 | (63 - bits.LeadingZeros64(word)); p >= lo {
		return p
	}
	return -1
}

// newWheel returns an empty completion wheel for an RUU of n slots. Its
// span is a power of two above the longest functional-unit latency (a load
// that misses to memory), so no two live entries in one bucket are a lap
// apart; writeback still checks completeAt, so the sizing is only a speed
// matter.
func newWheel(cfg config.Config, n int) (wheel []slotSet, mask uint64) {
	longest := max(cfg.MulLat, cfg.DivLat, cfg.L1D.HitLatency+cfg.L2.HitLatency+cfg.MemLatency)
	span := 1
	for span <= longest {
		span <<= 1
	}
	words := len(newSlotSet(n).w)
	flat := make([]uint64, span*words)
	wheel = make([]slotSet, span)
	for i := range wheel {
		wheel[i] = slotSet{flat[i*words : (i+1)*words : (i+1)*words], n}
	}
	return wheel, uint64(span - 1)
}

// wake counts down the pending operands of the consumers waiting on slot
// idx's result; a live unissued consumer left with none joins the ready
// set. It runs once per producer, when the producer completes or is
// squashed: consumers are younger, so none can have been recycled yet,
// and the depSeq check only guards that argument.
func (s *Sim) wake(idx int) {
	p := &s.ruu[idx]
	for w := p.waiters; w != 0; {
		c, k := int(w-1)>>1, (w-1)&1
		ce := &s.ruu[c]
		w = ce.nextWaiter[k]
		if ce.depSeq[k] != p.seq {
			continue
		}
		if ce.pending--; ce.pending == 0 && s.ruuState[c] == ruuValid {
			s.ready.add(c)
		}
	}
	p.waiters = 0
}

// issueStage selects ready instructions oldest-first and sends them to
// functional units, respecting the issue width, per-class unit counts, and
// the MSHR bound on outstanding data-cache misses. A candidate refused for
// want of a unit stays in the ready set for the next cycle.
func (s *Sim) issueStage() {
	issueLeft := s.cfg.IssueWidth
	aluLeft := s.cfg.IntALUs
	mulLeft := s.cfg.IntMults
	memLeft := s.cfg.MemPorts
	s.expireMisses()

	n := len(s.ruu)
	end := s.ruuHead + n
	for pos := s.ready.next(s.ruuHead); pos < end && issueLeft > 0; pos = s.ready.next(pos + 1) {
		idx := pos
		if idx >= n {
			idx -= n
		}
		e := &s.ruu[idx]
		var lat int
		switch {
		case e.flags.has(flExecErr):
			// Bubble: drains through an ALU slot.
			if aluLeft == 0 {
				continue
			}
			aluLeft--
			lat = 1
		case e.class == isa.ClassMul:
			if mulLeft == 0 {
				continue
			}
			mulLeft--
			if e.inst.Op == isa.OpDIV || e.inst.Op == isa.OpREM {
				lat = s.cfg.DivLat
			} else {
				lat = s.cfg.MulLat
			}
		case e.flags.has(flLoad):
			if memLeft == 0 {
				continue
			}
			forwarded, ready := s.loadForwarding(idx, e)
			if !ready {
				continue // must wait behind an unissued matching store
			}
			if forwarded {
				memLeft--
				lat = 1
				break
			}
			// A cache access: if it would miss, it needs a free MSHR
			// before the (state-mutating) access happens.
			if !s.hier.L1D.Probe(e.memAddr) && s.cfg.MSHRs > 0 && len(s.misses) >= s.cfg.MSHRs {
				continue // all miss registers busy: the load waits
			}
			l := s.hier.L1D.Access(e.memAddr, false)
			if l > s.cfg.L1D.HitLatency {
				s.allocMSHR(uint64(l))
			}
			memLeft--
			lat = l
		case e.flags.has(flStore):
			if memLeft == 0 {
				continue
			}
			memLeft--
			lat = 1 // address generation; the write happens at commit
		default:
			if aluLeft == 0 {
				continue
			}
			aluLeft--
			lat = 1
		}

		// Writeback runs before issue in a cycle, so the earliest an entry
		// can complete is the next cycle, whatever its latency.
		if lat < 1 {
			lat = 1
		}
		s.ready.del(idx)
		s.ruuState[idx] |= ruuIssued
		e.completeAt = s.cycle + uint64(lat)
		s.wheel[e.completeAt&s.wheelMask].add(idx)
		issueLeft--
	}
}

// loadForwarding resolves a load's LSQ interaction at issue. Addresses of
// older stores are known at dispatch (perfect disambiguation): a load
// matching an older in-flight store forwards from the LSQ in one cycle
// once that store has issued (forwarded=true); a match on an unissued
// store is not ready yet; no match means the load goes to the data cache.
func (s *Sim) loadForwarding(loadIdx int, e *ruuEntry) (forwarded, ready bool) {
	// Walk the older stores newest-first, so the youngest match wins.
	word := e.memAddr &^ 3
	n := len(s.ruu)
	pos := loadIdx
	if pos < s.ruuHead {
		pos += n
	}
	for pos = s.stores.prev(pos-1, s.ruuHead); pos >= 0; pos = s.stores.prev(pos-1, s.ruuHead) {
		idx := pos
		if idx >= n {
			idx -= n
		}
		if s.ruu[idx].memAddr&^3 != word {
			continue
		}
		if s.ruuState[idx]&ruuIssued == 0 {
			return false, false // forwarding data not ready yet
		}
		return true, true // store-to-load forwarding
	}
	return false, true
}

// writebackStage completes instructions whose functional units finish this
// cycle — the current wheel bucket, in age order — and resolves control
// transfers: forked branches squash their losing side, and mispredicted
// correct-path branches trigger recovery (squash, refetch, and
// return-address-stack repair). Squashes only reach younger entries, and
// they leave the bucket, so the walk skips them.
func (s *Sim) writebackStage() {
	due := s.wheel[s.cycle&s.wheelMask]
	n := len(s.ruu)
	end := s.ruuHead + n
	for pos := due.next(s.ruuHead); pos < end; pos = due.next(pos + 1) {
		idx := pos
		if idx >= n {
			idx -= n
		}
		e := &s.ruu[idx]
		if e.completeAt != s.cycle {
			continue // a lap ahead
		}
		due.del(idx)
		s.ruuState[idx] |= ruuCompleted
		if e.waiters != 0 {
			s.wake(idx)
		}
		s.emit(TraceComplete, e.seq, e.pathTok, e.pc, &e.inst, 0)

		if e.flags.has(flForked) {
			s.emit(TraceForkResolve, e.seq, e.pathTok, e.pc, &e.inst, e.actualNPC)
			s.resolveFork(idx)
		} else if e.flags.has(flRecovers) {
			s.recover(idx)
		}
		// The branch is resolved; its shadow checkpoint is dead either way.
		s.releaseCheckpoint(e)
	}
}

// expireMisses retires completed entries from the outstanding-miss queue.
func (s *Sim) expireMisses() {
	kept := s.misses[:0]
	for _, at := range s.misses {
		if at > s.cycle {
			kept = append(kept, at)
		}
	}
	s.misses = kept
}

// allocMSHR records an outstanding miss completing lat cycles from now
// (no-op when unbounded: nothing ever consults the queue then).
func (s *Sim) allocMSHR(lat uint64) {
	if s.cfg.MSHRs == 0 {
		return
	}
	s.misses = append(s.misses, s.cycle+lat)
}

// releaseCheckpoint frees an entry's shadow slot, if it holds one. Safe to
// call more than once (resolution and commit both release).
func (s *Sim) releaseCheckpoint(e *ruuEntry) {
	if e.cp != 0 {
		s.freeCheckpoint(&e.cp)
	}
}

// freeCheckpoint returns the checkpoint behind the non-zero handle *h to
// the pool, recycling its buffer, and clears the handle.
func (s *Sim) freeCheckpoint(h *int32) {
	s.recycleCheckpoint(&s.cps[*h])
	s.cpIdle = append(s.cpIdle, *h)
	s.shadowUsed--
	*h = 0
}

// recycleCheckpoint invalidates a checkpoint and moves its full-stack
// backing buffer (if any) to the free list, so released checkpoints never
// keep a stack copy alive.
func (s *Sim) recycleCheckpoint(c *core.Checkpoint) {
	if b := c.TakeBuffer(); b != nil {
		s.cpFree = append(s.cpFree, b)
	}
}

// lendCheckpointBuffer hands a recycled buffer to a checkpoint about to be
// saved into, making the save allocation-free in steady state.
func (s *Sim) lendCheckpointBuffer(c *core.Checkpoint) {
	if n := len(s.cpFree); n > 0 {
		c.GiveBuffer(s.cpFree[n-1])
		s.cpFree = s.cpFree[:n-1]
	}
}
