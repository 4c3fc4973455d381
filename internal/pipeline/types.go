// Package pipeline implements the cycle-level out-of-order processor model
// (HydraScalar-style): a 4-wide fetch engine that follows predictions
// through not-taken branches and stops at taken ones, dispatch/rename into
// a register update unit (RUU), issue to functional units, writeback with
// branch resolution and recovery, and in-order commit that updates the
// branch predictors.
//
// Mis-speculation is modeled the way the paper's simulator does:
// instructions execute functionally at dispatch; the first mispredicted
// branch on the correct path switches its path into speculative mode, and
// younger instructions execute against a copy-on-write overlay so the
// wrong path runs real code — fetching through calls and returns and
// thereby corrupting the return-address stack, which is the phenomenon
// under study. Resolution of the mispredicted branch squashes younger
// entries, redirects fetch, and repairs the stack per the configured
// policy.
//
// Multipath execution forks low-confidence conditional branches instead of
// predicting them: the parent path context follows the taken side, a new
// path context follows the fall-through, RUU entries carry path tags, and
// resolution selectively squashes the losing subtree ("these now-empty
// entries must still propagate to the front and be retired"). The
// return-address stack is either shared among paths (optionally with
// checkpoint repair) or copied per path at fork time.
package pipeline

import (
	"retstack/internal/bpred"
	"retstack/internal/core"
	"retstack/internal/emu"
	"retstack/internal/isa"
)

// invalidIdx marks an empty creator-table slot or absent dependency.
const invalidIdx = -1

// RUU lifecycle flags, kept in Sim.ruuState — a compact byte array parallel
// to the RUU ring — rather than inside ruuEntry, so commit, squash and the
// dependency checks test an entry's stage without loading the wide entry.
// The issue and writeback stages do not scan the ring at all: they walk
// Sim.ready and the completion wheel (see issue.go). Entry state tests
// compare against exact bit patterns: an unissued candidate is exactly
// ruuValid, an in-flight one exactly ruuValid|ruuIssued (squashed entries
// are always also completed).
const (
	ruuValid     uint8 = 1 << iota // slot holds a dispatched instruction
	ruuIssued                      // sent to a functional unit
	ruuCompleted                   // result available (or squashed)
	ruuSquashed                    // wrong-path work draining to commit
)

// instFlags packs an instruction's boolean state into one word. Fetch sets
// the first group on its slot; dispatch copies the word into the RUU entry
// with a single store and adds the rest.
type instFlags uint16

const (
	// Set at fetch (fetchSlot and ruuEntry).
	flPredTaken    instFlags = 1 << iota
	flFromRAS                // return whose prediction came from the RAS
	flRASPushed              // fetch pushed the RAS for this instruction
	flRASPopped              // fetch popped the RAS for this instruction
	flRASUnderflow           // the fetch-time pop read an empty stack
	flForked                 // conditional branch forked instead of predicted

	// Set at dispatch or later (ruuEntry only).
	flCtrl
	flLoad
	flStore
	flLSQHeld // occupies an LSQ slot until commit or squash
	flActualTaken
	flMispred     // prediction != outcome, discovered at dispatch
	flRecovers    // resolution must trigger a squash/redirect
	flLoserParent // the fork's losing side is the parent's continuation, not the child
	flExecErr     // wrong-path execution fault: entry is an effect-free bubble
)

func (f instFlags) has(b instFlags) bool { return f&b != 0 }

// ruuEntry is one slot of the register update unit. Its lifecycle flags
// live in Sim.ruuState (see above). The entry is 128 bytes, two cache
// lines, with the scheduling state (completion cycle, dependencies, wakeup
// links) in the first.
type ruuEntry struct {
	seq        uint64 // fetch-order sequence number
	pathTok    uint64 // owning path's token (slots are recycled; tokens not)
	completeAt uint64 // writeback cycle, set at issue

	// Dependencies for issue timing: up to two producer RUU slots, guarded
	// by sequence number against slot recycling.
	depSeq [2]uint64
	depIdx [2]int32

	// Wakeup links (see issue.go): waiters heads the list of consumer
	// operands waiting on this entry's result; nextWaiter[k] continues the
	// list this entry's k-th operand is linked into.
	waiters    int32
	nextWaiter [2]int32

	pc      uint32
	memAddr uint32
	inst    isa.Inst
	class   isa.Class
	syscall emu.SyscallCode // deferred side effect, applied at commit
	flags   instFlags
	destReg int8
	pending uint8 // operands whose producers have not completed

	// Control-flow resolution state.
	predNPC   uint32
	actualNPC uint32
	rasAux    uint32 // packed stack/slot the push wrote or pop read (tracing)

	syscallArg uint32

	// Direction-predictor history at prediction time (speculative-history
	// mode: commit trains these indices, recovery restores the registers).
	histSnap bpred.HistorySnapshot

	// RAS shadow state for repair: a handle into Sim.cps, 0 for none.
	cp int32

	// Multipath fork bookkeeping: the path created for the fall-through
	// side. It is the side that squashes at resolve unless flLoserParent.
	childToken uint64
}

// fetchSlot is one entry of the fetch queue between the fetch engine and
// dispatch. The front-end depth (Config.BranchLat) is modeled by readyAt.
type fetchSlot struct {
	seq     uint64
	pathTok uint64
	readyAt uint64

	pc      uint32
	predNPC uint32
	rasAux  uint32 // packed stack/slot reference (see PackRASAux)
	class   isa.Class
	flags   instFlags // fetch-time flags only
	inst    isa.Inst

	histSnap   bpred.HistorySnapshot
	cp         int32 // shadow checkpoint handle (see ruuEntry)
	childToken uint64
}

// path is a fetch/execution context. Single-path operation uses exactly
// one; multipath forking and SMT use several (an SMT thread's context is
// its root path).
type path struct {
	id     int    // slot index
	token  uint64 // unique identity (slots are recycled)
	live   bool
	thread int // owning hardware thread (0 unless SMT)

	parentToken uint64 // 0 for the root path
	forkSeq     uint64 // seq of the branch that forked this path

	fetchPC      uint32
	fetchDead    bool   // context lost the fork it was following
	stalledUntil uint64 // icache miss
	lastLine     uint32 // last fetched I-cache line + 1 (0 = none)

	correct bool // dispatching architecturally (on the true path)
	overlay emu.SpecState

	ras   core.ReturnStack // per-path stack, or the shared stack
	rasID uint16           // trace identity of ras: 0 = the shared stack,
	// per-thread and per-path clones get fresh ids so the attribution layer
	// never conflates slot indices across distinct physical stacks

	// creators maps architectural registers to the RUU slot of their
	// newest in-flight producer.
	creators [isa.NumRegs]creator
}

// creator is one register's newest producer: an RUU slot, guarded by the
// producer's seq against slot recycling. Slot and seq share a cache line.
type creator struct {
	seq uint64
	idx int32
}

func (p *path) resetCreators() {
	for i := range p.creators {
		p.creators[i].idx = invalidIdx
	}
}

// Stats aggregates everything the experiments report.
type Stats struct {
	Cycles        uint64
	Committed     uint64 // retired architectural instructions
	Fetched       uint64
	Squashed      uint64 // RUU entries squashed (wrong-path work)
	FastForwarded uint64 // instructions executed in warmup fast mode

	CommittedByClass [16]uint64

	// Conditional branches (committed).
	CondBranches   uint64
	CondMispred    uint64
	ForkedBranches uint64

	// Returns (committed).
	Returns        uint64
	ReturnsCorrect uint64
	ReturnsFromRAS uint64

	// Other indirect transfers (committed).
	Indirects        uint64
	IndirectsCorrect uint64

	// Recovery machinery.
	Recoveries        uint64
	PathsSquashed     uint64
	Forks             uint64
	CheckpointsDenied uint64 // shadow-slot exhaustion at checkpoint time

	// Wrong-path RAS activity: pushes/pops performed at fetch by
	// instructions that never committed.
	WrongPathPushes uint64
	WrongPathPops   uint64

	// RAS structural events, aggregated over every stack that existed
	// (per-path stacks die with their paths; their counts are folded in).
	RAS core.Stats

	// Predecode-plane effectiveness, summed over threads at the end of
	// Run: fetches served from the flat predecoded table vs. decoded from
	// memory (plane disabled, PC outside the code segment, or code region
	// dirtied by a store). Purely observational — the fetched instruction
	// is identical either way.
	PredecodeHits      uint64
	PredecodeFallbacks uint64

	// Flat-overlay machinery, purely observational: reset epochs in which a
	// wrong path's footprint overflowed the overlay's inline slots into its
	// spill table, and overlays served from the Sim's pool instead of
	// allocated. Both stay zero under -flat-overlay=false.
	OverlaySpills uint64
	OverlayReuses uint64

	// Basic-block dispatch activity, summed over threads at the end of Run:
	// block dispatches served from the plane's block table, descriptor
	// builds (first entries per machine, deterministic under image
	// sharing — see emu.Machine.BlockBuilds),
	// and code-region invalidations (clean→dirty transitions, each
	// of which stops block dispatch and predecode until reload). Purely
	// observational — results are identical either way. Hits and builds
	// stay zero under -no-blocks; invalidations count code-store
	// transitions regardless, since they gate the predecode plane too.
	BlockHits          uint64
	BlockBuilds        uint64
	BlockInvalidations uint64

	// PerThreadCommitted breaks Committed down by SMT thread.
	PerThreadCommitted []uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// ReturnHitRate returns the fraction of committed returns whose predicted
// target was correct.
func (s *Stats) ReturnHitRate() float64 {
	if s.Returns == 0 {
		return 0
	}
	return float64(s.ReturnsCorrect) / float64(s.Returns)
}

// CondMispredRate returns the fraction of committed conditional branches
// that were mispredicted (forked branches are excluded: they were not
// predicted).
func (s *Stats) CondMispredRate() float64 {
	den := s.CondBranches - s.ForkedBranches
	if den == 0 {
		return 0
	}
	return float64(s.CondMispred) / float64(den)
}
