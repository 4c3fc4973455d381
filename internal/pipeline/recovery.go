package pipeline

import (
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/isa"
)

// recover handles the resolution of a mispredicted branch that was
// dispatched on the correct path: squash everything younger on its path
// (and any path forked from it after the branch), repair the
// return-address stack from the branch's checkpoint, and redirect fetch to
// the true target. idx is the branch's RUU slot.
func (s *Sim) recover(idx int) {
	e := &s.ruu[idx]
	p := s.pathByToken(e.pathTok)
	if p == nil {
		s.fail("recovery for a dead path (seq %d)", e.seq)
		return
	}
	s.stats.Recoveries++
	if s.tracer != nil {
		fl := FlagMispred | rasActivityFlags(e.flags)
		if e.class == isa.ClassReturn {
			fl |= FlagReturn
		}
		if e.flags.has(flFromRAS) {
			fl |= FlagFromRAS
		}
		s.emitEvent(TraceRecover, e.seq, e.pathTok, e.pc, e.inst,
			e.actualNPC, e.rasAux, fl)
	}
	s.squashYounger(p, idx)

	if p.ras != nil {
		if sr, ok := p.ras.(core.SeqRepairer); ok {
			sr.InvalidateAfter(e.seq)
			s.traceRepair(p, e, FlagRepairTagged)
		} else if e.cp != 0 {
			p.ras.Restore(&s.cps[e.cp])
			s.traceRepair(p, e, s.repairFlag())
		} else {
			// No repair available: policy none, or the shadow slot was
			// denied. The no-flags repair event makes the gap visible.
			s.traceRepair(p, e, 0)
		}
	}
	if s.cfg.SpecHistory {
		s.hybrid.RestoreHistory(e.pc, e.histSnap,
			e.class == isa.ClassCondBranch, e.flags.has(flActualTaken))
	}

	p.correct = true
	p.overlay.Reset()
	p.fetchPC = e.actualNPC
	p.fetchDead = false
	p.lastLine = 0
	p.stalledUntil = 0
	s.rebuildCreators(p)
}

// resolveFork squashes the losing side of a forked branch, in RUU slot
// idx, when it resolves.
func (s *Sim) resolveFork(idx int) {
	e := &s.ruu[idx]
	p := s.pathByToken(e.pathTok)
	if p == nil {
		return // whole subtree already gone
	}
	// Unified-with-repair: the shared stack is restored to its fork-time
	// state. This discards the winning side's own pushes too — the reason
	// the paper finds that even checkpoint repair cannot make one unified
	// stack work under multipath execution.
	if s.cfg.MPStacks == config.MPUnifiedRepair && p.ras != nil && e.cp != 0 {
		p.ras.Restore(&s.cps[e.cp])
		s.traceRepair(p, e, s.repairFlag())
	}

	if e.flags.has(flLoserParent) {
		// The parent's continuation lost: squash its post-branch work. Its
		// fetch stream has no correct continuation (the child is it), so
		// the context stops fetching and is reclaimed once it drains.
		s.squashYounger(p, idx)
		p.fetchDead = true
		p.overlay.Reset()
		s.rebuildCreators(p)
		return
	}
	// The child's side lost; it may already be gone (tokens are never
	// reused, so a dead child's token stays unresolvable).
	if child := s.pathByToken(e.childToken); child != nil {
		s.killSubtree(child, idx)
	}
}

// markDoomed adds a live path's token to the squash scratch.
func (s *Sim) markDoomed(tok uint64) { s.doomedToks = append(s.doomedToks, tok) }

// tokenDoomed reports whether the current squash marked tok. The scratch
// holds at most MaxPaths tokens, so membership is a short linear scan — no
// per-squash map allocation.
func (s *Sim) tokenDoomed(tok uint64) bool {
	for _, t := range s.doomedToks {
		if t == tok {
			return true
		}
	}
	return false
}

// doomDescendants grows the scratch to a fixed point: a path is doomed if
// its parent is doomed (the caller seeds the scratch with the roots of the
// condemned subtrees first).
func (s *Sim) doomDescendants() {
	for {
		grew := false
		for i := range s.paths {
			q := &s.paths[i]
			if q.live && !s.tokenDoomed(q.token) && s.tokenDoomed(q.parentToken) {
				s.markDoomed(q.token)
				grew = true
			}
		}
		if !grew {
			return
		}
	}
}

// releaseDoomedPaths frees every context the current squash marked.
// Release order does not matter: re-parenting in releasePath converges to
// the same parentToken/forkSeq regardless (the map this replaced iterated
// in random order already).
func (s *Sim) releaseDoomedPaths() {
	for _, tok := range s.doomedToks {
		s.releasePath(s.pathByToken(tok))
	}
	s.doomedToks = s.doomedToks[:0]
}

// squashYounger invalidates every RUU entry on path p younger than the
// branch in slot at, kills every path forked from p after it
// (transitively), and flushes the fetch queue accordingly.
func (s *Sim) squashYounger(p *path, at int) {
	seq := s.ruu[at].seq
	s.doomedToks = s.doomedToks[:0]
	for i := range s.paths {
		q := &s.paths[i]
		if q.live && q.token != p.token && q.parentToken == p.token && q.forkSeq > seq {
			s.markDoomed(q.token)
		}
	}
	s.doomDescendants()
	for idx, k := at, s.youngerThan(at); k > 0; k-- {
		if idx++; idx == len(s.ruu) {
			idx = 0
		}
		st := s.ruuState[idx]
		if st&ruuValid == 0 || st&ruuSquashed != 0 {
			continue
		}
		e := &s.ruu[idx]
		if e.pathTok == p.token || s.tokenDoomed(e.pathTok) {
			s.squashEntry(idx)
		}
	}
	s.flushDoomedSlots(p.token, seq)
	s.releaseDoomedPaths()
}

// killSubtree squashes a path and all its descendants entirely. root was
// forked by the branch in slot at, so all of the subtree's work is younger.
func (s *Sim) killSubtree(root *path, at int) {
	s.doomedToks = s.doomedToks[:0]
	s.markDoomed(root.token)
	s.doomDescendants()
	for idx, k := at, s.youngerThan(at); k > 0; k-- {
		if idx++; idx == len(s.ruu) {
			idx = 0
		}
		st := s.ruuState[idx]
		if st&ruuValid != 0 && st&ruuSquashed == 0 && s.tokenDoomed(s.ruu[idx].pathTok) {
			s.squashEntry(idx)
		}
	}
	// Token 0 is never assigned, so passing it flushes on doomed-ness alone.
	s.flushDoomedSlots(0, 0)
	s.releaseDoomedPaths()
}

// youngerThan returns the number of RUU entries younger than slot idx.
// The ring holds entries in fetch (seq) order, so these are exactly the
// entries with a larger seq.
func (s *Sim) youngerThan(idx int) int {
	pos := idx - s.ruuHead
	if pos < 0 {
		pos += len(s.ruu)
	}
	return s.ruuCount - pos - 1
}

// squashEntry marks one RUU entry as wrong-path work. The slot itself
// drains through commit ("now-empty entries must still propagate to the
// front and be retired"). A squashed entry leaves the scheduling sets and,
// since squashed counts as completed, wakes its consumers.
func (s *Sim) squashEntry(idx int) {
	e := &s.ruu[idx]
	switch st := s.ruuState[idx]; st {
	case ruuValid:
		s.ready.del(idx)
		s.wake(idx)
	case ruuValid | ruuIssued:
		s.wheel[e.completeAt&s.wheelMask].del(idx)
		s.wake(idx)
	}
	s.ruuState[idx] |= ruuSquashed | ruuCompleted
	s.stores.del(idx)
	e.flags &^= flRecovers
	s.releaseCheckpoint(e)
	if e.flags.has(flLSQHeld) {
		e.flags &^= flLSQHeld
		s.lsqCount--
	}
	if e.flags.has(flRASPushed) {
		s.stats.WrongPathPushes++
	}
	if e.flags.has(flRASPopped) {
		s.stats.WrongPathPops++
	}
	s.stats.Squashed++
	s.emitA(TraceSquash, e.seq, e.pathTok, e.pc, &e.inst, 0, e.rasAux,
		rasActivityFlags(e.flags))
}

// rasActivityFlags summarizes an instruction's fetch-time stack side
// effects for squash and recover events.
func rasActivityFlags(f instFlags) TraceFlags {
	var t TraceFlags
	if f.has(flRASPushed) {
		t |= FlagRASPush
	}
	if f.has(flRASPopped) {
		t |= FlagRASPop
	}
	if f.has(flRASUnderflow) {
		t |= FlagUnderflow
	}
	return t
}

// repairFlag maps the configured checkpoint policy to its repair flag.
func (s *Sim) repairFlag() TraceFlags {
	switch s.cfg.RASPolicy {
	case core.RepairTOSPointer:
		return FlagRepairPointer
	case core.RepairTOSPointerAndContents:
		return FlagRepairContents
	case core.RepairFullStack:
		return FlagRepairFull
	}
	return 0
}

// traceRepair emits the repair event for a recovery: which mechanism ran
// (fl == 0 means none was available) and where the stack's top points
// afterwards. Only called with a tracer attached or behind emitA's nil
// check — the Inspector probe must not run in the disabled steady state.
func (s *Sim) traceRepair(p *path, e *ruuEntry, fl TraceFlags) {
	if s.tracer == nil {
		return
	}
	idx, top := -1, uint32(0)
	if ins, ok := p.ras.(core.Inspector); ok {
		idx, top = ins.TOSIndex(), ins.Top()
	}
	s.emitEvent(TraceRASRepair, e.seq, e.pathTok, e.pc, e.inst,
		top, PackRASAux(p.rasID, idx), fl)
}

// flushDoomedSlots removes (and accounts) every queued slot that is younger
// than seq on the path identified by tok, or that belongs to a doomed path,
// compacting the ring in place. A direct method rather than a predicate
// closure: the closure context (captured token/seq/scratch) costs a heap
// allocation per squash.
func (s *Sim) flushDoomedSlots(tok, seq uint64) {
	// Work on ring slots in place: copying a slot to a local and passing
	// its address into dropFetchSlot forces a heap allocation per examined
	// slot (the local escapes through the checkpoint pointer).
	kept := 0
	src := s.fetchQHead
	dst := s.fetchQHead
	for k := 0; k < s.fetchQLen; k++ {
		sl := &s.fetchQ[src]
		cur := src
		if src++; src == len(s.fetchQ) {
			src = 0
		}
		if sl.pathTok == tok && sl.seq > seq || s.tokenDoomed(sl.pathTok) {
			s.dropFetchSlot(sl)
			continue
		}
		if dst != cur {
			s.fetchQ[dst] = *sl // checkpoint buffers are pool-owned; plain move
		}
		if dst++; dst == len(s.fetchQ) {
			dst = 0
		}
		kept++
	}
	s.fetchQLen = kept
}

// releasePath frees a path context. Live children are re-parented to the
// released path's parent, inheriting its fork point so that future
// squashes on the grandparent still reach them. The path's overlay returns
// to the pool for the next fork.
func (s *Sim) releasePath(q *path) {
	if q == nil || !q.live {
		return
	}
	for i := range s.paths {
		r := &s.paths[i]
		if r.live && r.parentToken == q.token {
			r.parentToken = q.parentToken
			r.forkSeq = q.forkSeq
		}
	}
	// Fold a per-path stack's structural stats before the stack dies.
	if q.ras != nil && q.ras != s.sharedRAS {
		s.addStackStats(q.ras.Stats())
	}
	s.recycleOverlay(q.overlay)
	q.live = false
	q.ras = nil
	q.overlay = nil
	s.liveCount--
	s.stats.PathsSquashed++
}

// reapDrainedPaths frees contexts whose fetch lost a fork once their last
// in-flight work has drained. Called from commit.
func (s *Sim) reapDrainedPaths() {
	for i := range s.paths {
		q := &s.paths[i]
		if !q.live || !q.fetchDead {
			continue
		}
		busy := false
		next := s.ruuHead
		for k := 0; k < s.ruuCount && !busy; k++ {
			busy = s.ruuState[next]&ruuValid != 0 && s.ruu[next].pathTok == q.token
			if next++; next == len(s.ruu) {
				next = 0
			}
		}
		fq := s.fetchQHead
		for k := 0; k < s.fetchQLen && !busy; k++ {
			busy = s.fetchQ[fq].pathTok == q.token
			if fq++; fq == len(s.fetchQ) {
				fq = 0
			}
		}
		if !busy {
			s.releasePath(q)
			// A reaped loser context is not a "squashed path" in the
			// statistics sense; undo the count releasePath applied.
			s.stats.PathsSquashed--
		}
	}
}

// rebuildCreators reconstructs a path's register-producer table from the
// surviving RUU contents after a squash. An entry is visible to p if it is
// on p itself or on an ancestor before the fork leading toward p.
func (s *Sim) rebuildCreators(p *path) {
	p.resetCreators()
	next := s.ruuHead
	for k := 0; k < s.ruuCount; k++ {
		idx := next
		if next++; next == len(s.ruu) {
			next = 0
		}
		st := s.ruuState[idx]
		if st&ruuValid == 0 || st&ruuSquashed != 0 {
			continue
		}
		e := &s.ruu[idx]
		if e.destReg < 0 {
			continue
		}
		if s.visibleTo(e, p) {
			p.creators[e.destReg] = creator{seq: e.seq, idx: int32(idx)}
		}
	}
}

// visibleTo reports whether entry e is part of path p's program-order
// history.
func (s *Sim) visibleTo(e *ruuEntry, p *path) bool {
	if e.pathTok == p.token {
		return true
	}
	bound := ^uint64(0)
	q := p
	for {
		parent := s.pathByToken(q.parentToken)
		if parent == nil {
			return false
		}
		bound = q.forkSeq
		if parent.token == e.pathTok {
			return e.seq <= bound
		}
		q = parent
	}
}
