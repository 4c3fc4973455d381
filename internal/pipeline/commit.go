package pipeline

import (
	"retstack/internal/config"
	"retstack/internal/emu"
	"retstack/internal/isa"
)

// commitStage retires completed instructions in order from the RUU head,
// up to CommitWidth per cycle. Squashed entries drain through commit as
// empties, consuming retire bandwidth — as the paper describes for the
// RUU's FIFO organization. Branch-prediction state (direction predictor,
// BTB, confidence) is trained here, at commit, matching the simulator the
// paper used; only the return-address stack is updated speculatively.
func (s *Sim) commitStage() {
	for n := 0; n < s.cfg.CommitWidth; n++ {
		if s.ruuCount == 0 {
			break
		}
		st := s.ruuState[s.ruuHead]
		if st&ruuValid == 0 || st&ruuCompleted == 0 {
			break
		}
		e := &s.ruu[s.ruuHead]
		if e.flags.has(flStore) {
			s.stores.del(s.ruuHead)
		}
		if st&ruuSquashed == 0 {
			s.retire(e)
			s.emit(TraceCommit, e.seq, e.pathTok, e.pc, &e.inst, 0)
		}
		s.releaseCheckpoint(e)
		if e.flags.has(flLSQHeld) {
			e.flags &^= flLSQHeld
			s.lsqCount--
		}
		s.ruuState[s.ruuHead] = 0
		if s.ruuHead++; s.ruuHead == len(s.ruu) {
			s.ruuHead = 0
		}
		s.ruuCount--
		if s.done {
			break
		}
	}
	s.reapDrainedPaths()
}

// retire applies the architectural bookkeeping for one committed
// instruction.
func (s *Sim) retire(e *ruuEntry) {
	th := s.threads[0]
	if len(s.threads) > 1 {
		if p := s.pathByToken(e.pathTok); p != nil {
			th = s.threadOf(p)
		}
	}
	s.stats.Committed++
	s.stats.PerThreadCommitted[th.id]++
	s.stats.CommittedByClass[e.class]++
	th.mach.NoteRetiredClass(e.class)

	if e.flags.has(flStore) {
		// The value was written to architectural memory at dispatch; the
		// cache sees the store now, at commit (write-buffer model).
		s.hier.L1D.Access(e.memAddr, true)
	}

	switch e.class {
	case isa.ClassCondBranch:
		taken := e.flags.has(flActualTaken)
		s.stats.CondBranches++
		if s.cfg.SpecHistory {
			// Fetch owns the history registers; commit trains the counters
			// the fetch-time prediction indexed.
			s.hybrid.TrainAt(e.pc, e.histSnap, taken)
		} else {
			s.dirPred.Update(e.pc, taken)
		}
		s.conf.Update(e.pc, e.flags.has(flPredTaken) == taken)
		if e.flags.has(flForked) {
			s.stats.ForkedBranches++
		} else if e.flags.has(flMispred) {
			s.stats.CondMispred++
		}
		if taken {
			s.updateBTB(e)
		}
	case isa.ClassReturn:
		s.stats.Returns++
		if !e.flags.has(flMispred) {
			s.stats.ReturnsCorrect++
		}
		if e.flags.has(flFromRAS) {
			s.stats.ReturnsFromRAS++
		}
		s.updateBTB(e)
		if s.cfg.ReturnPred == config.ReturnTargetCache {
			s.tcache.Update(e.pc, e.actualNPC)
		}
	case isa.ClassIndirect, isa.ClassIndirectCall:
		s.stats.Indirects++
		if !e.flags.has(flMispred) {
			s.stats.IndirectsCorrect++
		}
		s.updateBTB(e)
		if s.cfg.IndirectPred == config.IndirectTargetCache {
			s.tcache.Update(e.pc, e.actualNPC)
		}
	}

	if e.syscall != emu.SysNone {
		th.mach.ApplySyscall(emu.Outcome{Syscall: e.syscall, SyscallArg: e.syscallArg})
		if th.mach.Halted {
			th.done = true
			s.done = true
			for _, t := range s.threads {
				if !t.done {
					s.done = false
					break
				}
			}
		}
	}
}

// updateBTB installs the committed target of a taken transfer whose target
// the fetch engine must otherwise guess: returns and indirect jumps (and,
// without a RAS, returns are exactly what the BTB serves). Direct targets
// are computed by the decode-stage adder, so conditional branches only
// allocate entries when taken — the decoupled, taken-only organization.
func (s *Sim) updateBTB(e *ruuEntry) {
	s.btb.Update(e.pc, e.actualNPC)
}
