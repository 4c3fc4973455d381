package program

import (
	"retstack/internal/isa"
)

// Plane is a predecoded view of an image's code segment: every word
// decoded once into a flat, PC-indexed table with a contiguous backing
// array. The plane is immutable after construction, so any number of
// machines (sweep cells sharing one image) may read it concurrently.
//
// The plane covers only the segment containing the entry point; fetches
// outside it (wrong-path fetch running into data, or after a store into a
// code page) fall back to decode-on-read, which is bit-for-bit the same
// result — Lookup is Decode of the segment bytes, nothing more.
type Plane struct {
	base    uint32
	insts   []isa.Inst
	classes []isa.Class // classes[i] == insts[i].Class(), precomputed

	// blocks[i] is the basic-block length starting at slot i, lazily built
	// and atomically published (0 = not built yet); see blocks.go.
	blocks []uint32
}

// Base returns the first PC the plane covers.
func (p *Plane) Base() uint32 { return p.base }

// Len returns the number of predecoded instructions.
func (p *Plane) Len() int { return len(p.insts) }

// Lookup returns the predecoded instruction at pc. It misses (ok=false)
// when pc is outside the covered segment or not word-aligned; callers then
// fall back to Memory.Read32 + isa.Decode, which yields the identical
// instruction by construction.
func (p *Plane) Lookup(pc uint32) (isa.Inst, bool) {
	idx := (pc - p.base) >> 2
	if pc&3 != 0 || idx >= uint32(len(p.insts)) {
		return isa.Inst{}, false
	}
	return p.insts[idx], true
}

// LookupClass is Lookup extended with the instruction's precomputed class.
// Fetch calls it once per instruction; classifying at predecode time keeps
// the per-fetch cost to two table loads. The instruction comes back as a
// pointer into the plane, which callers must not modify (planes are shared
// across simulations), so the caller copies it once, straight to where it
// is needed.
func (p *Plane) LookupClass(pc uint32) (*isa.Inst, isa.Class, bool) {
	idx := (pc - p.base) >> 2
	if pc&3 != 0 || idx >= uint32(len(p.insts)) {
		return nil, 0, false
	}
	return &p.insts[idx], p.classes[idx], true
}

// CodeSegment returns the segment containing the entry point — the text
// segment under both the assembler's and the Builder's layout.
func (im *Image) CodeSegment() (Segment, bool) {
	for _, s := range im.Segments {
		if im.Entry >= s.Addr && im.Entry < s.End() {
			return s, true
		}
	}
	return Segment{}, false
}

// Predecode returns the image's predecode plane, building it on first use.
// The build is guarded by a sync.Once so concurrent loaders of a shared
// image race neither on construction nor on visibility; the result is nil
// when the image has no code segment.
func (im *Image) Predecode() *Plane {
	im.predecodeOnce.Do(func() {
		seg, ok := im.CodeSegment()
		if !ok {
			return
		}
		n := len(seg.Data) / isa.WordBytes
		insts := make([]isa.Inst, n)
		classes := make([]isa.Class, n)
		for i := 0; i < n; i++ {
			d := seg.Data[i*isa.WordBytes:]
			insts[i] = isa.Decode(uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24)
			classes[i] = insts[i].Class()
		}
		im.plane = &Plane{
			base:    seg.Addr,
			insts:   insts,
			classes: classes,
			blocks:  make([]uint32, n),
		}
	})
	return im.plane
}
