package pipeline

import "fmt"

// CheckInvariants audits the simulator's internal bookkeeping and returns
// the first violation found. It is O(RUU + wheel + fetchQ + paths) and
// intended for tests and debugging, not for the hot loop.
func (s *Sim) CheckInvariants() error {
	// The ring holds entries in fetch order: squashes scan only the slots
	// after a branch for its younger work.
	for k, idx := 1, s.ruuHead; k < s.ruuCount; k++ {
		next := (idx + 1) % len(s.ruu)
		if s.ruu[next].seq <= s.ruu[idx].seq {
			return fmt.Errorf("invariant: RUU seq %d follows seq %d", s.ruu[next].seq, s.ruu[idx].seq)
		}
		idx = next
	}

	// RUU occupancy.
	valid := 0
	lsqHeld := 0
	checkpoints := 0
	for i := range s.ruu {
		e := &s.ruu[i]
		st := s.ruuState[i]
		if st&ruuValid == 0 {
			if st != 0 {
				return fmt.Errorf("invariant: invalid RUU slot %d has state bits %#x", i, st)
			}
			continue
		}
		valid++
		if e.flags.has(flLSQHeld) {
			lsqHeld++
		}
		if e.cp != 0 {
			checkpoints++
		}
		if st&ruuSquashed != 0 && st&ruuCompleted == 0 {
			return fmt.Errorf("invariant: squashed entry seq %d not completed", e.seq)
		}
		if st&ruuIssued != 0 && e.completeAt == 0 && st&ruuCompleted == 0 {
			return fmt.Errorf("invariant: issued entry seq %d has no completion time", e.seq)
		}
	}
	if valid != s.ruuCount {
		return fmt.Errorf("invariant: %d valid RUU entries but ruuCount=%d", valid, s.ruuCount)
	}
	if lsqHeld != s.lsqCount {
		return fmt.Errorf("invariant: %d LSQ holders but lsqCount=%d", lsqHeld, s.lsqCount)
	}
	if s.lsqCount > s.cfg.LSQSize {
		return fmt.Errorf("invariant: lsqCount %d exceeds LSQ size %d", s.lsqCount, s.cfg.LSQSize)
	}

	if err := s.checkSchedulingSets(); err != nil {
		return err
	}

	// Shadow checkpoint accounting (fetch-queue slots hold some too).
	for k := 0; k < s.fetchQLen; k++ {
		if s.fetchQ[(s.fetchQHead+k)%len(s.fetchQ)].cp != 0 {
			checkpoints++
		}
	}
	if checkpoints != s.shadowUsed {
		return fmt.Errorf("invariant: %d live checkpoints but shadowUsed=%d", checkpoints, s.shadowUsed)
	}
	if s.shadowUsed+len(s.cpIdle) != len(s.cps)-1 {
		return fmt.Errorf("invariant: %d checkpoints held and %d free, pool has %d",
			s.shadowUsed, len(s.cpIdle), len(s.cps)-1)
	}
	if s.cfg.ShadowSlots > 0 && s.shadowUsed > s.cfg.ShadowSlots {
		return fmt.Errorf("invariant: shadowUsed %d exceeds %d slots", s.shadowUsed, s.cfg.ShadowSlots)
	}

	// Path bookkeeping. Tokens must be unique among live slots: the
	// scan-based pathByToken must resolve each live path to exactly its own
	// slot, and a live path must carry an overlay.
	live := 0
	correct := make([]int, len(s.threads)) // per hardware thread
	for i := range s.paths {
		p := &s.paths[i]
		if !p.live {
			continue
		}
		live++
		if p.correct {
			correct[p.thread]++
		}
		if got := s.pathByToken(p.token); got != p {
			return fmt.Errorf("invariant: path token %d does not resolve to its slot", p.token)
		}
		if p.overlay == nil {
			return fmt.Errorf("invariant: live path token %d has no overlay", p.token)
		}
	}
	if live != s.liveCount {
		return fmt.Errorf("invariant: %d live paths but liveCount=%d", live, s.liveCount)
	}
	for th, n := range correct {
		if n > 1 {
			return fmt.Errorf("invariant: %d paths of thread %d claim to be the correct path", n, th)
		}
	}
	// Every RUU entry's token refers to a live path or is squashed.
	for i := range s.ruu {
		e := &s.ruu[i]
		st := s.ruuState[i]
		if st&ruuValid != 0 && st&ruuSquashed == 0 && s.pathByToken(e.pathTok) == nil {
			return fmt.Errorf("invariant: live entry seq %d owned by dead path %d", e.seq, e.pathTok)
		}
	}
	if s.fetchQLen < 0 || s.fetchQLen > len(s.fetchQ) {
		return fmt.Errorf("invariant: fetchQLen %d out of range", s.fetchQLen)
	}
	return nil
}

// checkSchedulingSets is the differential oracle for the slot sets that
// replaced the per-cycle ring scans. It recomputes by full scan, as issue
// and writeback used to every cycle, the issue candidates (unissued
// entries whose producers have completed), the in-flight entries and the
// live stores, and fails on any difference: a candidate missing from or
// extra in the ready set, an in-flight entry filed under the wrong wheel
// bucket or under a cycle writeback has already passed, a stale wheel
// member, or a wrong store bit. Together these make the next writeback's
// walk of the current bucket visit exactly the entries the scan would
// have found due, and issue's walk of the ready set exactly the
// candidates it would have found.
func (s *Sim) checkSchedulingSets() error {
	if pos := s.ready.mirrorFault(); pos >= 0 {
		return fmt.Errorf("invariant: ready set bit %d breaks the doubled encoding", pos)
	}
	if pos := s.stores.mirrorFault(); pos >= 0 {
		return fmt.Errorf("invariant: store set bit %d breaks the doubled encoding", pos)
	}
	inFlight := 0
	for i := range s.ruu {
		e := &s.ruu[i]
		st := s.ruuState[i]
		if want := st&(ruuValid|ruuSquashed) == ruuValid && e.flags.has(flStore); s.stores.has(i) != want {
			return fmt.Errorf("invariant: slot %d (seq %d, state %#x) live store %v but store bit %v",
				i, e.seq, st, want, s.stores.has(i))
		}
		if want := st == ruuValid && s.depsReady(e); s.ready.has(i) != want {
			return fmt.Errorf("invariant: slot %d (seq %d, state %#x) issue candidate %v but ready bit %v",
				i, e.seq, st, want, s.ready.has(i))
		}
		if st != ruuValid|ruuIssued {
			continue
		}
		inFlight++
		if e.completeAt < s.cycle {
			return fmt.Errorf("invariant: in-flight seq %d due at cycle %d, now %d: writeback missed it",
				e.seq, e.completeAt, s.cycle)
		}
		if !s.wheel[e.completeAt&s.wheelMask].has(i) {
			return fmt.Errorf("invariant: in-flight seq %d (slot %d, due %d) missing from the completion wheel",
				e.seq, i, e.completeAt)
		}
	}
	members := 0
	for b, set := range s.wheel {
		if pos := set.mirrorFault(); pos >= 0 {
			return fmt.Errorf("invariant: wheel bucket %d bit %d breaks the doubled encoding", b, pos)
		}
		for i := set.next(0); i < len(s.ruu); i = set.next(i + 1) {
			members++
			if s.ruuState[i] != ruuValid|ruuIssued || s.ruu[i].completeAt&s.wheelMask != uint64(b) {
				return fmt.Errorf("invariant: wheel bucket %d holds slot %d (state %#x, due %d)",
					b, i, s.ruuState[i], s.ruu[i].completeAt)
			}
		}
	}
	if members != inFlight {
		return fmt.Errorf("invariant: %d wheel members but %d in-flight entries", members, inFlight)
	}
	return nil
}

// depsReady reports whether both producers (if any) have completed, by
// looking at them directly: the readiness test the ready set and its
// wakeups must agree with.
func (s *Sim) depsReady(e *ruuEntry) bool {
	for i := 0; i < 2; i++ {
		idx := e.depIdx[i]
		if idx == invalidIdx {
			continue
		}
		if st := s.ruuState[idx]; st&ruuValid == 0 || st&ruuCompleted != 0 {
			continue
		}
		if s.ruu[idx].seq == e.depSeq[i] {
			return false
		}
	}
	return true
}

// mirrorFault checks a slot set's doubled encoding — every member i is
// set at both i and i+n, and nothing at or beyond 2n — and returns the
// first offending bit position, or -1.
func (set slotSet) mirrorFault() int {
	for pos := set.next(0); pos < 2*set.n; pos = set.next(pos + 1) {
		twin := pos + set.n
		if pos >= set.n {
			twin = pos - set.n
		}
		if !set.has(twin) {
			return pos
		}
	}
	if pos := set.next(2 * set.n); pos < len(set.w)<<6 {
		return pos
	}
	return -1
}

// StepForTest advances one cycle (test hook).
func (s *Sim) StepForTest() error {
	s.step()
	return s.runErr
}
