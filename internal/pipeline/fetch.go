package pipeline

import (
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/emu"
	"retstack/internal/isa"
)

// fetchStage fetches up to FetchWidth instructions this cycle, shared
// round-robin among live path contexts. Within a path, fetch follows
// predictions through not-taken branches and stops at the first taken
// control transfer (the paper's fetch-engine rule). The return-address
// stack is updated speculatively here — on every path, right or wrong —
// which is precisely how it gets corrupted.
func (s *Sim) fetchStage() {
	budget := s.cfg.FetchWidth
	if s.liveCount == 0 {
		return
	}
	next := 0
	if len(s.paths) > 1 {
		next = int(s.cycle % uint64(len(s.paths)))
	}
	for range s.paths {
		if budget == 0 {
			return
		}
		p := &s.paths[next]
		if next++; next == len(s.paths) {
			next = 0
		}
		if !p.live || p.fetchDead || p.stalledUntil > s.cycle {
			continue
		}
		budget = s.fetchPath(p, budget)
	}
}

// fetchPath fetches instructions for one path until the budget, the fetch
// queue, a taken branch, or an I-cache miss stops it. It returns the
// remaining budget.
func (s *Sim) fetchPath(p *path, budget int) int {
	lineBytes := uint32(s.hier.L1I.LineBytes())
	for budget > 0 {
		if s.fetchQLen == len(s.fetchQ) {
			return budget
		}
		pc := p.fetchPC

		// One I-cache access per line; a miss stalls this path.
		line := pc / lineBytes
		if line+1 != p.lastLine {
			lat := s.hier.L1I.Access(pc, false)
			p.lastLine = line + 1
			if lat > s.cfg.L1I.HitLatency {
				p.stalledUntil = s.cycle + uint64(lat)
				return budget
			}
		}

		// Basic-block fetch: the plane's block table says how many
		// straight-line instructions begin at pc, so pull them into the
		// fetch queue in one run — predictControl is a no-op for every one
		// of them (provably non-control), so the slots need only sequential
		// predNPCs. Capped at the budget, the queue space, and the current
		// cache line; the next line gets its own access/stall check at the
		// top of the loop. Byte-identical to the per-instruction path below
		// by construction: same FetchInstClass per instruction (same
		// predecode counters), same slot fields, same per-instruction trace
		// events (the TraceBlock marker is additional, not a substitute).
		if body := s.threadOf(p).mach.FetchBlockBody(pc); body > 0 {
			mach := s.threadOf(p).mach
			take := body
			if take > budget {
				take = budget
			}
			if space := len(s.fetchQ) - s.fetchQLen; take > space {
				take = space
			}
			if toLine := int((lineBytes - pc%lineBytes) / isa.WordBytes); take > toLine {
				take = toLine
			}
			s.emitA(TraceBlock, s.nextSeq+1, p.token, pc, &noInst,
				uint32(take), uint32(body), 0)
			for i := 0; i < take; i++ {
				slot := s.fetchInto(p, mach, pc)
				budget--
				s.fetchQLen++
				s.emit(TraceFetch, slot.seq, p.token, pc, &slot.inst, slot.predNPC)
				pc += isa.WordBytes
			}
			p.fetchPC = pc
			continue
		}

		slot := s.fetchInto(p, s.threadOf(p).mach, pc)
		budget--
		stop := s.predictControl(p, slot)
		s.fetchQLen++
		s.emit(TraceFetch, slot.seq, p.token, pc, &slot.inst, slot.predNPC)
		p.fetchPC = slot.predNPC
		if stop {
			return budget
		}
	}
	return budget
}

// fetchInto fetches the instruction at pc into the fetch queue's next free
// slot (which the caller then enqueues), predicting the fall-through. The
// instruction comes through the predecode plane: two table loads
// (instruction and precomputed class) for in-segment PCs,
// Read32+Decode+classify otherwise (identical result, see FetchInstClass).
//
// The slot is built in place: zeroed, then assigned field by field, with
// the instruction copied straight from the plane into it. A composite
// literal compiles to a temporary and a block copy, and a by-value
// isa.Inst (20 bytes of mixed-width fields) is staged through stack
// temporaries whose copies stall on store forwarding. The slot starts with
// no checkpoint; takeCheckpoint draws one from the pool when it needs one.
func (s *Sim) fetchInto(p *path, mach *emu.Machine, pc uint32) *fetchSlot {
	tail := s.fetchQHead + s.fetchQLen
	if tail >= len(s.fetchQ) {
		tail -= len(s.fetchQ)
	}
	s.stats.Fetched++
	s.nextSeq++
	slot := &s.fetchQ[tail]
	*slot = fetchSlot{}
	slot.class = mach.FetchInstClass(pc, &slot.inst)
	slot.seq = s.nextSeq
	slot.pathTok = p.token
	slot.readyAt = s.cycle + uint64(s.cfg.BranchLat)
	slot.pc = pc
	slot.predNPC = pc + isa.WordBytes
	return slot
}

// predictControl fills the slot's prediction fields, performs speculative
// RAS updates and checkpointing, and decides whether to fork. It reports
// whether fetch must stop for this path this cycle (predicted-taken
// transfer).
func (s *Sim) predictControl(p *path, slot *fetchSlot) bool {
	in := &slot.inst // not a copy: the slot was just written
	pc := slot.pc
	switch slot.class {
	case isa.ClassJump:
		slot.predNPC = in.DirectTarget(pc)
		slot.flags |= flPredTaken
		return true

	case isa.ClassCall:
		if p.ras != nil {
			s.rasPush(p, slot, in.ReturnAddress(pc))
			slot.flags |= flRASPushed
		}
		slot.predNPC = in.DirectTarget(pc)
		slot.flags |= flPredTaken
		return true

	case isa.ClassCondBranch:
		// Query the predictor regardless (it trains at commit, and the
		// confidence estimator needs the would-be prediction even when the
		// branch forks instead).
		if s.cfg.SpecHistory {
			slot.histSnap = s.hybrid.Snapshot(pc)
		}
		predTaken := s.dirPred.Predict(pc)
		if predTaken {
			slot.flags |= flPredTaken
		}
		if s.cfg.SpecHistory {
			s.hybrid.SpecShift(pc, predTaken)
		}
		if s.tryFork(p, slot) {
			// Parent follows the taken side; the child follows fall-through.
			slot.predNPC = in.DirectTarget(pc)
			return true
		}
		if predTaken {
			slot.predNPC = in.DirectTarget(pc)
			s.takeCheckpoint(p, slot)
			return true
		}
		s.takeCheckpoint(p, slot)
		return false

	case isa.ClassReturn:
		if s.cfg.SpecHistory {
			slot.histSnap = s.hybrid.Snapshot(pc)
		}
		switch {
		case p.ras != nil:
			popSlot := -1
			if s.tracer != nil {
				if ins, ok := p.ras.(core.Inspector); ok {
					popSlot = ins.TOSIndex() // slot the pop is about to read
				}
			}
			target, valid := p.ras.Pop()
			slot.flags |= flRASPopped | flFromRAS
			slot.predNPC = target
			slot.rasAux = PackRASAux(p.rasID, popSlot)
			if !valid {
				slot.flags |= flRASUnderflow
				// The valid-bits design detects corrupt/empty entries and
				// consults the BTB instead of a known-bad address.
				if _, tagged := p.ras.(core.SeqRepairer); tagged {
					slot.flags &^= flFromRAS
					slot.predNPC = slot.inst.FallThrough(pc)
					if t, ok := s.btb.Lookup(pc); ok {
						slot.predNPC = t
					}
				}
			}
			if s.tracer != nil {
				fl := FlagRASPop | FlagReturn
				if slot.flags.has(flRASUnderflow) {
					fl |= FlagUnderflow
				}
				if slot.flags.has(flFromRAS) {
					fl |= FlagFromRAS
				}
				s.emitEvent(TraceRASPop, slot.seq, p.token, pc, *in,
					target, slot.rasAux, fl)
			}
		case s.cfg.ReturnPred == config.ReturnTargetCache:
			if target, ok := s.tcache.Predict(pc); ok {
				slot.predNPC = target
			}
		default:
			if target, ok := s.btb.Lookup(pc); ok {
				slot.predNPC = target
			}
		}
		// On a BTB miss without a RAS the fall-through stands in: the
		// front end has nowhere to redirect until the return resolves.
		slot.flags |= flPredTaken
		s.takeCheckpoint(p, slot)
		return true

	case isa.ClassIndirect:
		if s.cfg.SpecHistory {
			slot.histSnap = s.hybrid.Snapshot(pc)
		}
		if target, ok := s.predictIndirect(pc); ok {
			slot.predNPC = target
		}
		slot.flags |= flPredTaken
		s.takeCheckpoint(p, slot)
		return true

	case isa.ClassIndirectCall:
		if s.cfg.SpecHistory {
			slot.histSnap = s.hybrid.Snapshot(pc)
		}
		if p.ras != nil {
			s.rasPush(p, slot, in.ReturnAddress(pc))
			slot.flags |= flRASPushed
		}
		if target, ok := s.predictIndirect(pc); ok {
			slot.predNPC = target
		}
		slot.flags |= flPredTaken
		s.takeCheckpoint(p, slot)
		return true
	}
	return false
}

// rasPush pushes a return address, carrying the fetch sequence number to
// tag-based (valid-bits) stacks. With a tracer attached it also records
// the push: which physical slot was written (read back from the stack
// after the push) and whether the push wrapped a full stack — the two
// facts misprediction attribution needs to tell an overwrite from a wrap.
func (s *Sim) rasPush(p *path, slot *fetchSlot, addr uint32) {
	if s.tracer == nil {
		if sr, ok := p.ras.(core.SeqRepairer); ok {
			sr.PushSeq(addr, slot.seq)
			return
		}
		p.ras.Push(addr)
		return
	}
	fl := FlagRASPush
	if p.ras.Depth() == p.ras.Size() {
		fl |= FlagOverflow
	}
	if sr, ok := p.ras.(core.SeqRepairer); ok {
		sr.PushSeq(addr, slot.seq)
	} else {
		p.ras.Push(addr)
	}
	idx := -1
	if ins, ok := p.ras.(core.Inspector); ok {
		idx = ins.TOSIndex() // slot the push just wrote
	}
	slot.rasAux = PackRASAux(p.rasID, idx)
	s.emitEvent(TraceRASPush, slot.seq, p.token, slot.pc, slot.inst,
		addr, slot.rasAux, fl)
}

// predictIndirect predicts a non-return indirect target from the
// configured structure.
func (s *Sim) predictIndirect(pc uint32) (uint32, bool) {
	if s.cfg.IndirectPred == config.IndirectTargetCache {
		return s.tcache.Predict(pc)
	}
	return s.btb.Lookup(pc)
}

// takeCheckpoint saves RAS shadow state for a branch that may need repair,
// respecting the bounded shadow storage ("at most a few in-flight branches
// — 4 in the R10000, 20 in the 21264").
func (s *Sim) takeCheckpoint(p *path, slot *fetchSlot) {
	if p.ras == nil {
		return
	}
	h := s.cpIdle[len(s.cpIdle)-1] // taken below only if kept
	c := &s.cps[h]
	s.lendCheckpointBuffer(c)
	p.ras.SaveInto(c)
	if !c.Valid() {
		// Policy saved nothing; return any lent buffer to the pool.
		s.recycleCheckpoint(c)
		return
	}
	if s.cfg.ShadowSlots > 0 && s.shadowUsed >= s.cfg.ShadowSlots {
		s.stats.CheckpointsDenied++
		s.recycleCheckpoint(c)
		s.emitA(TraceCheckpoint, slot.seq, p.token, slot.pc, &slot.inst,
			0, uint32(s.shadowUsed), FlagDenied)
		return
	}
	s.cpIdle = s.cpIdle[:len(s.cpIdle)-1]
	s.shadowUsed++
	slot.cp = h
	s.emitA(TraceCheckpoint, slot.seq, p.token, slot.pc, &slot.inst,
		0, uint32(s.shadowUsed), 0)
}

// tryFork decides whether to fork a conditional branch instead of
// predicting it, and if so allocates the child path context.
func (s *Sim) tryFork(p *path, slot *fetchSlot) bool {
	if s.cfg.MaxPaths <= 1 || s.liveCount >= s.cfg.MaxPaths {
		return false
	}
	if s.conf.High(slot.pc) {
		return false // confident prediction: cheaper than forking
	}
	var child *path
	for i := range s.paths {
		if !s.paths[i].live {
			child = &s.paths[i]
			child.id = i
			break
		}
	}
	if child == nil {
		return false
	}

	s.nextToken++
	*child = path{
		id:          child.id,
		thread:      p.thread,
		token:       s.nextToken,
		live:        true,
		parentToken: p.token,
		forkSeq:     slot.seq,
		fetchPC:     slot.inst.FallThrough(slot.pc),
		correct:     false, // settled when the branch dispatches
	}
	child.resetCreators()
	child.overlay = s.takeOverlay(s.threadOf(p).mach)
	child.ras = s.pathStack(p.ras)
	if child.ras == nil || child.ras == p.ras {
		child.rasID = p.rasID // shares the parent's physical stack
	} else {
		s.nextRasID++ // per-path clone: a new physical stack
		child.rasID = s.nextRasID
	}
	s.liveCount++

	// Under the unified-with-repair organization the fork itself takes a
	// checkpoint so the stack can be restored when the branch resolves.
	if s.cfg.MPStacks == config.MPUnifiedRepair {
		s.takeCheckpoint(p, slot)
	}

	slot.flags |= flForked
	slot.childToken = child.token
	s.stats.Forks++
	s.emit(TraceFork, slot.seq, p.token, slot.pc, &slot.inst, child.fetchPC)
	return true
}
