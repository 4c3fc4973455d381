package pipeline

import (
	"retstack/internal/emu"
	"retstack/internal/isa"
)

// dispatchStage moves up to DecodeWidth instructions from the fetch queue
// into the RUU, executing each functionally — against architectural state
// on the correct path, against the owning path's overlay otherwise. This is
// where mispredictions are discovered (the outcome is compared with the
// fetch-time prediction) and where fork winners are settled.
func (s *Sim) dispatchStage() {
	for n := 0; n < s.cfg.DecodeWidth; n++ {
		if s.fetchQLen == 0 {
			return
		}
		slot := &s.fetchQ[s.fetchQHead]
		if slot.readyAt > s.cycle {
			return // models front-end depth
		}
		p := s.pathByToken(slot.pathTok)
		if p == nil {
			// The owning path was killed after this slot was enqueued but
			// before a flush could see it; drop it as wrong-path work.
			s.dropFetchSlot(slot)
			s.popFetchSlot()
			continue
		}
		if s.threadOf(p).drainExit {
			// Instructions fetched past this thread's exit syscall are
			// junk; drop them so other threads keep dispatching.
			s.dropFetchSlot(slot)
			s.popFetchSlot()
			continue
		}
		if s.ruuCount == len(s.ruu) {
			return
		}
		isMem := slot.class == isa.ClassLoad || slot.class == isa.ClassStore
		if isMem && s.lsqCount == s.cfg.LSQSize {
			return
		}

		// Fill the entry in place, field by field: a composite literal
		// would be built in a temporary and block-copied into the ring.
		e := &s.ruu[s.ruuTail]
		s.ruuState[s.ruuTail] = ruuValid
		*e = ruuEntry{}
		e.seq = slot.seq
		e.pathTok = slot.pathTok
		e.depIdx = [2]int32{invalidIdx, invalidIdx}
		e.pc = slot.pc
		e.inst = slot.inst
		e.class = slot.class
		e.flags = slot.flags
		if slot.class.IsControl() {
			e.flags |= flCtrl
		}
		e.destReg = int8(slot.inst.DestReg())
		// Operands are read off the slot, written cycles ago at fetch: a
		// by-value copy of the entry's just-stored instruction can stall
		// on store forwarding.
		src1, src2 := slot.inst.SrcRegs()
		e.predNPC = slot.predNPC
		e.rasAux = slot.rasAux
		e.histSnap = slot.histSnap
		e.cp = slot.cp // the checkpoint handle moves to the entry
		e.childToken = slot.childToken
		slot.cp = 0
		s.popFetchSlot()

		s.executeAtDispatch(p, e)
		s.wireDependencies(p, e, src1, src2)
		if e.pending == 0 {
			s.ready.add(s.ruuTail)
		}
		if e.flags.has(flStore) {
			s.stores.add(s.ruuTail)
		}
		s.emit(TraceDispatch, e.seq, e.pathTok, e.pc, &e.inst, e.actualNPC)

		if isMem {
			e.flags |= flLSQHeld
			s.lsqCount++
		}
		if s.ruuTail++; s.ruuTail == len(s.ruu) {
			s.ruuTail = 0
		}
		s.ruuCount++
		if s.runErr != nil {
			return
		}
	}
}

func (s *Sim) popFetchSlot() {
	if s.fetchQHead++; s.fetchQHead == len(s.fetchQ) {
		s.fetchQHead = 0
	}
	s.fetchQLen--
}

// dropFetchSlot accounts a never-dispatched slot as wrong-path work and
// frees its checkpoint. The squash event it emits carries the
// slot's RAS side effects (FlagDropped distinguishes it from an RUU
// squash), so the attribution layer sees wrong-path pushes and pops that
// died in the fetch queue too.
func (s *Sim) dropFetchSlot(slot *fetchSlot) {
	if slot.flags.has(flRASPushed) {
		s.stats.WrongPathPushes++
	}
	if slot.flags.has(flRASPopped) {
		s.stats.WrongPathPops++
	}
	if slot.cp != 0 {
		s.freeCheckpoint(&slot.cp)
	}
	s.emitA(TraceSquash, slot.seq, slot.pathTok, slot.pc, &slot.inst, 0,
		slot.rasAux, rasActivityFlags(slot.flags)|FlagDropped)
}

// executeAtDispatch runs the instruction functionally — against
// architectural state on the correct path, against the path's overlay on a
// wrong one — and fills in the resolution fields.
func (s *Sim) executeAtDispatch(p *path, e *ruuEntry) {
	th := s.threadOf(p)
	var st emu.State
	if p.correct {
		if e.pc != th.mach.PC {
			s.fail("correct-path dispatch at pc=%#x but architectural pc=%#x (seq %d, thread %d)",
				e.pc, th.mach.PC, e.seq, th.id)
			return
		}
		st = th.mach
	} else {
		st = p.overlay
	}
	var out emu.Outcome
	if err := emu.Exec(st, e.pc, &e.inst, &out); err != nil {
		if p.correct {
			s.fail("architectural fault at pc=%#x (%s): %v", e.pc, e.inst.Disasm(e.pc), err)
			return
		}
		// Wrong-path faults (data fetched as code, garbage addresses)
		// turn the instruction into a bubble.
		e.flags |= flExecErr
		return
	}
	e.actualNPC = out.NextPC
	if out.Taken {
		e.flags |= flActualTaken
	}
	if out.IsLoad {
		e.flags |= flLoad
		e.memAddr = out.Addr
	}
	if out.IsStore {
		e.flags |= flStore
		e.memAddr = out.Addr
	}

	if p.correct {
		th.mach.PC = out.NextPC
		e.syscall = out.Syscall
		e.syscallArg = out.SyscallArg
		if out.Syscall == emu.SysExit {
			th.drainExit = true
			p.fetchDead = true // nothing after exit is worth fetching
		}

		if e.flags.has(flForked) {
			s.settleFork(p, e)
		} else if e.predNPC != out.NextPC {
			// Misprediction discovered: the path goes speculative; the
			// recovery fires when this entry resolves at writeback.
			e.flags |= flMispred | flRecovers
			p.correct = false
			p.overlay.Reset()
		}
		return
	}
	if e.flags.has(flForked) {
		s.settleFork(p, e)
	} else if e.flags.has(flCtrl) && e.predNPC != out.NextPC {
		// A wrong-path branch that would itself mispredict: note it for
		// statistics, but wrong-path branches never trigger recovery —
		// the whole path is squashed when the real misprediction resolves.
		e.flags |= flMispred
	}
}

// settleFork decides, at the forked branch's dispatch, which side will be
// squashed when the branch resolves, and prepares the child context. The
// child's side loses unless flLoserParent is set.
func (s *Sim) settleFork(p *path, e *ruuEntry) {
	child := s.pathByToken(e.childToken)
	if child == nil {
		// Child was already killed by an older recovery; resolution will
		// have nothing to do on that side.
		if !e.flags.has(flActualTaken) && p.correct {
			e.flags |= flLoserParent
			p.correct = false
			p.overlay.Reset()
		}
		return
	}
	// The child inherits the parent's rename state as of the fork point
	// (no child instruction can have dispatched yet: the queue is FIFO).
	child.creators = p.creators

	if p.correct {
		if e.flags.has(flActualTaken) {
			// Parent side (taken) wins; the child is doomed but keeps
			// executing until resolution, corrupting shared state.
			child.correct = false
			child.overlay.Reset()
		} else {
			child.correct = true
			e.flags |= flLoserParent
			p.correct = false
			p.overlay.Reset()
		}
		return
	}
	// Fork taken on an already-wrong path: both sides are wrong. The
	// overlay outcome still picks which side resolution squashes. The
	// child's fork-time overlay is superseded by a copy of the parent's
	// speculative state; recycle it rather than dropping it to the GC.
	child.correct = false
	s.recycleOverlay(child.overlay)
	child.overlay = s.cloneOverlay(p.overlay)
	if !e.flags.has(flExecErr | flActualTaken) {
		e.flags |= flLoserParent
	}
}

// wireDependencies records the producing RUU slots of the source
// registers s1 and s2 for issue timing and installs this entry as the
// newest producer of its destination.
func (s *Sim) wireDependencies(p *path, e *ruuEntry, s1, s2 int) {
	for slotNo, r := range [2]int{s1, s2} {
		if r <= 0 { // no operand, or $zero (always ready)
			continue
		}
		cr := &p.creators[r]
		idx := cr.idx
		if idx == invalidIdx {
			continue
		}
		if st := s.ruuState[idx]; st&ruuValid == 0 || st&ruuCompleted != 0 {
			continue
		}
		prod := &s.ruu[idx]
		if prod.seq == cr.seq {
			e.depIdx[slotNo] = idx
			e.depSeq[slotNo] = prod.seq
			// Link this operand onto the producer's waiters list.
			e.nextWaiter[slotNo] = prod.waiters
			prod.waiters = int32(s.ruuTail<<1|slotNo) + 1
			e.pending++
		}
	}
	if e.destReg >= 0 {
		p.creators[e.destReg] = creator{seq: e.seq, idx: int32(s.ruuTail)}
	}
}
