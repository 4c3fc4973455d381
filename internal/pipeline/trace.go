package pipeline

import (
	"fmt"
	"io"

	"retstack/internal/isa"
)

// TraceKind identifies a pipeline event.
type TraceKind uint8

const (
	TraceFetch TraceKind = iota
	TraceDispatch
	TraceComplete
	TraceCommit
	TraceSquash
	TraceRecover
	TraceFork
	TraceForkResolve

	// RAS and attribution events (the PR-7 causal-trace layer). Appended
	// after the original kinds so serialized kind numbers stay stable.
	TraceRASPush    // speculative push at fetch (Extra = pushed address)
	TraceRASPop     // speculative pop at fetch (Extra = predicted target)
	TraceRASRepair  // repair applied (or found unavailable) at recovery
	TraceRASCorrupt // injected corruption of a live stack's top entry
	TraceCheckpoint // shadow checkpoint taken (or denied) for a branch
	TraceBlock      // basic-block body dispatched over the predecode plane
	TraceAttrib     // misprediction attribution verdict (Extra = cause)

	numTraceKinds
)

var traceKindNames = []string{
	"fetch", "dispatch", "complete", "commit", "squash", "recover",
	"fork", "fork-resolve",
	"ras-push", "ras-pop", "ras-repair", "ras-corrupt", "checkpoint",
	"block", "attrib",
}

func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// TraceKindByName resolves a serialized kind name back to its enum (the
// trace-file reader and rastrace filters use this).
func TraceKindByName(name string) (TraceKind, bool) {
	for i, n := range traceKindNames {
		if n == name {
			return TraceKind(i), true
		}
	}
	return 0, false
}

// TraceKinds returns every kind name in enum order.
func TraceKinds() []string { return traceKindNames }

// TraceFlags qualify an event. RAS activity flags (push/pop/underflow/…)
// ride on squash and recover events so a consumer can see an entry's stack
// side effects without joining back to its fetch-time events.
type TraceFlags uint16

const (
	FlagOverflow  TraceFlags = 1 << iota // push wrapped onto a full stack
	FlagUnderflow                        // pop read an empty stack
	FlagFromRAS                          // return prediction came from the RAS
	FlagRASPush                          // instruction pushed the RAS at fetch
	FlagRASPop                           // instruction popped the RAS at fetch
	FlagDenied                           // checkpoint denied (shadow exhaustion)
	FlagReturn                           // the instruction is a return
	FlagDropped                          // squash of a never-dispatched fetch slot
	FlagMispred                          // resolution found the prediction wrong

	// Repair mechanism actually applied at a recovery. No repair flag on a
	// TraceRASRepair event means the stack was left as the wrong path left
	// it (policy none, or checkpoint denied).
	FlagRepairPointer
	FlagRepairContents
	FlagRepairFull
	FlagRepairTagged
)

var traceFlagNames = []string{
	"overflow", "underflow", "from-ras", "ras-push", "ras-pop", "denied",
	"return", "dropped", "mispred",
	"repair-ptr", "repair-contents", "repair-full", "repair-tagged",
}

// String renders the set flags as a comma-joined list ("-" when empty).
func (f TraceFlags) String() string {
	if f == 0 {
		return "-"
	}
	out := ""
	for i, n := range traceFlagNames {
		if f&(1<<i) != 0 {
			if out != "" {
				out += ","
			}
			out += n
		}
	}
	return out
}

// RAS slot references in TraceEvent.Aux pack a stack identity (high 16
// bits — per-path stacks are distinct stacks) and a physical slot index
// (low 16 bits; auxNoSlot when the stack kind exposes none).
const auxNoSlot = 0xFFFF

// PackRASAux builds an Aux slot reference.
func PackRASAux(stackID uint16, slot int) uint32 {
	sl := uint32(auxNoSlot)
	if slot >= 0 && slot < auxNoSlot {
		sl = uint32(slot)
	}
	return uint32(stackID)<<16 | sl
}

// AuxStackID extracts the stack identity from an Aux slot reference.
func AuxStackID(aux uint32) uint16 { return uint16(aux >> 16) }

// AuxSlot extracts the physical slot index (-1 if unknown).
func AuxSlot(aux uint32) int {
	if aux&auxNoSlot == auxNoSlot {
		return -1
	}
	return int(aux & auxNoSlot)
}

// TraceEvent is one pipeline occurrence.
type TraceEvent struct {
	Cycle uint64
	Kind  TraceKind
	Flags TraceFlags
	Seq   uint64
	Path  uint64 // path token
	PC    uint32
	Inst  isa.Inst
	// Extra carries a kind-specific address: the predicted next PC for
	// fetches, the redirect target for recoveries, the pushed/popped
	// address for RAS events, the cause code for attributions.
	Extra uint32
	// Aux carries kind-specific context: a packed stack/slot reference for
	// RAS events (see PackRASAux), the live shadow-slot count for
	// checkpoints, the block body length for block dispatches, the
	// corrupting event's PC for attributions.
	Aux uint32
}

// Tracer receives pipeline events. Implementations must be fast; the
// simulator calls them inline.
type Tracer interface {
	Event(TraceEvent)
}

// SetTracer installs (or, with nil, removes) an event tracer.
func (s *Sim) SetTracer(t Tracer) { s.tracer = t }

// emit forwards one event to the tracer. The nil check lives in this thin
// wrapper so it inlines at every call site: with tracing off (the sweep
// case) the call folds away, which is worth several percent of simulator
// throughput across the hot per-cycle stages. The instruction comes by
// pointer: arguments are evaluated before the inlined nil check, and a
// by-value isa.Inst (20 bytes) would be copied through the stack on every
// call, traced or not.
func (s *Sim) emit(kind TraceKind, seq, path uint64, pc uint32, inst *isa.Inst, extra uint32) {
	if s.tracer == nil {
		return
	}
	s.emitEvent(kind, seq, path, pc, *inst, extra, 0, 0)
}

// emitA is emit with the aux word and flags populated — same inlining
// contract as emit.
func (s *Sim) emitA(kind TraceKind, seq, path uint64, pc uint32, inst *isa.Inst, extra, aux uint32, flags TraceFlags) {
	if s.tracer == nil {
		return
	}
	s.emitEvent(kind, seq, path, pc, *inst, extra, aux, flags)
}

// noInst is the instruction of events that carry none.
var noInst isa.Inst

//go:noinline
func (s *Sim) emitEvent(kind TraceKind, seq, path uint64, pc uint32, inst isa.Inst, extra, aux uint32, flags TraceFlags) {
	s.tracer.Event(TraceEvent{
		Cycle: s.cycle, Kind: kind, Flags: flags, Seq: seq, Path: path,
		PC: pc, Inst: inst, Extra: extra, Aux: aux,
	})
}

// MultiTracer fans events out to several tracers (nil entries are
// dropped). It returns nil when no tracer remains, so callers can install
// the result directly with SetTracer.
func MultiTracer(ts ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiTracer(kept)
}

type multiTracer []Tracer

func (m multiTracer) Event(e TraceEvent) {
	for _, t := range m {
		t.Event(e)
	}
}

// TextTracer renders events one per line. MaxEvents bounds the output
// (0 = unlimited); once exhausted it goes quiet.
type TextTracer struct {
	W         io.Writer
	MaxEvents int
	count     int
}

// Event implements Tracer.
func (t *TextTracer) Event(e TraceEvent) {
	if t.MaxEvents > 0 && t.count >= t.MaxEvents {
		return
	}
	t.count++
	switch e.Kind {
	case TraceFetch:
		fmt.Fprintf(t.W, "%8d %-12s p%-2d seq=%-6d pc=%08x  %-28s -> %08x\n",
			e.Cycle, e.Kind, e.Path, e.Seq, e.PC, e.Inst.Disasm(e.PC), e.Extra)
	case TraceRecover:
		fmt.Fprintf(t.W, "%8d %-12s p%-2d seq=%-6d pc=%08x  redirect -> %08x [%s]\n",
			e.Cycle, e.Kind, e.Path, e.Seq, e.PC, e.Extra, e.Flags)
	case TraceRASPush, TraceRASPop, TraceRASCorrupt:
		fmt.Fprintf(t.W, "%8d %-12s p%-2d seq=%-6d pc=%08x  addr=%08x stack=%d slot=%d [%s]\n",
			e.Cycle, e.Kind, e.Path, e.Seq, e.PC, e.Extra,
			AuxStackID(e.Aux), AuxSlot(e.Aux), e.Flags)
	case TraceRASRepair:
		fmt.Fprintf(t.W, "%8d %-12s p%-2d seq=%-6d pc=%08x  top=%08x stack=%d slot=%d [%s]\n",
			e.Cycle, e.Kind, e.Path, e.Seq, e.PC, e.Extra,
			AuxStackID(e.Aux), AuxSlot(e.Aux), e.Flags)
	case TraceAttrib:
		fmt.Fprintf(t.W, "%8d %-12s p%-2d seq=%-6d pc=%08x  cause=%s writer-pc=%08x\n",
			e.Cycle, e.Kind, e.Path, e.Seq, e.PC, AttribCause(e.Extra), e.Aux)
	default:
		fmt.Fprintf(t.W, "%8d %-12s p%-2d seq=%-6d pc=%08x  %s\n",
			e.Cycle, e.Kind, e.Path, e.Seq, e.PC, e.Inst.Disasm(e.PC))
	}
}

// Count returns the number of events written.
func (t *TextTracer) Count() int { return t.count }

// RingTracer keeps the most recent events in a fixed circular buffer —
// the per-Sim causal window the attribution layer walks when a return
// misprediction resolves. Capacity is rounded up to a power of two so the
// hot append indexes with a mask.
type RingTracer struct {
	buf  []TraceEvent
	mask uint64
	n    uint64 // total events ever appended
}

// DefaultTraceBuf is the ring capacity the -trace-buf flags default to.
const DefaultTraceBuf = 4096

// NewRingTracer returns a ring holding at least capacity events
// (minimum 64; <=0 selects DefaultTraceBuf).
func NewRingTracer(capacity int) *RingTracer {
	if capacity <= 0 {
		capacity = DefaultTraceBuf
	}
	c := 64
	for c < capacity {
		c <<= 1
	}
	return &RingTracer{buf: make([]TraceEvent, c), mask: uint64(c - 1)}
}

// Event implements Tracer.
func (r *RingTracer) Event(e TraceEvent) {
	r.buf[r.n&r.mask] = e
	r.n++
}

// Cap returns the ring capacity.
func (r *RingTracer) Cap() int { return len(r.buf) }

// Len returns the number of buffered events (≤ Cap).
func (r *RingTracer) Len() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// At returns the i-th buffered event, 0 being the oldest retained.
func (r *RingTracer) At(i int) TraceEvent {
	oldest := uint64(0)
	if r.n > uint64(len(r.buf)) {
		oldest = r.n - uint64(len(r.buf))
	}
	return r.buf[(oldest+uint64(i))&r.mask]
}

// Walk visits buffered events newest-first until fn returns false.
// Allocation-free; the attribution layer's buffer walk.
func (r *RingTracer) Walk(fn func(TraceEvent) bool) {
	n := uint64(r.Len())
	for i := uint64(1); i <= n; i++ {
		if !fn(r.buf[(r.n-i)&r.mask]) {
			return
		}
	}
}
