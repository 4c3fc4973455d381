package emu

import (
	"errors"
	"fmt"

	"retstack/internal/isa"
)

// Execution errors. The architectural machine treats them as fatal; the
// pipeline tolerates them on wrong paths (a wrong path may fetch data as
// code or compute garbage addresses) by turning the instruction into an
// effect-free bubble.
var (
	ErrInvalidInst = errors.New("emu: invalid instruction")
	ErrMisaligned  = errors.New("emu: misaligned memory access")
	ErrBadSyscall  = errors.New("emu: unknown syscall code")
)

// SyscallCode enumerates the minimal OS interface.
type SyscallCode uint8

const (
	SysNone    SyscallCode = 0
	SysExit    SyscallCode = 1 // a0 = exit code
	SysPutInt  SyscallCode = 2 // a0 = integer printed in decimal
	SysPutChar SyscallCode = 3 // a0 = byte written to output
)

// Outcome describes everything the pipeline needs to know about one
// executed instruction: the next PC, control-flow resolution, the register
// result, and the memory access (if any).
type Outcome struct {
	NextPC uint32

	Control bool   // the instruction is a control transfer
	Taken   bool   // control transfer left the fall-through path
	Target  uint32 // resolved destination when Taken

	Dest  int // architectural destination register, -1 if none
	Value uint32

	IsLoad   bool
	IsStore  bool
	Addr     uint32
	Size     uint8 // access size in bytes (1, 2, 4)
	StoreVal uint32

	Syscall    SyscallCode
	SyscallArg uint32
}

// Exec executes one instruction located at pc against s and stores its
// outcome in *out. It performs register and memory side effects on s but
// does NOT perform syscall side effects (printing, halting); those are
// reported in the Outcome so the caller can apply them only on the
// architectural path. *out is filled even when an error is returned.
//
// Instruction and outcome travel by pointer: both are structs of
// mixed-width fields (20 and 52 bytes), and passing them by value stages
// each through stack copies whose wide loads stall on store forwarding —
// a measurable cost on the pipeline's per-instruction dispatch path.
func Exec(s State, pc uint32, in *isa.Inst, out *Outcome) error {
	*out = Outcome{NextPC: pc + isa.WordBytes, Dest: -1}
	rs := s.ReadReg(int(in.Rs))
	rt := s.ReadReg(int(in.Rt))

	setDest := func(r int, v uint32) {
		if r != isa.Zero {
			s.WriteReg(r, v)
			out.Dest = r
			out.Value = v
		}
	}
	takeBranch := func(cond bool) {
		out.Control = true
		if cond {
			out.Taken = true
			out.Target = in.DirectTarget(pc)
			out.NextPC = out.Target
		}
	}

	switch in.Op {
	case isa.OpADD:
		setDest(int(in.Rd), rs+rt)
	case isa.OpSUB:
		setDest(int(in.Rd), rs-rt)
	case isa.OpAND:
		setDest(int(in.Rd), rs&rt)
	case isa.OpOR:
		setDest(int(in.Rd), rs|rt)
	case isa.OpXOR:
		setDest(int(in.Rd), rs^rt)
	case isa.OpNOR:
		setDest(int(in.Rd), ^(rs | rt))
	case isa.OpSLT:
		setDest(int(in.Rd), boolTo32(int32(rs) < int32(rt)))
	case isa.OpSLTU:
		setDest(int(in.Rd), boolTo32(rs < rt))
	case isa.OpSLL:
		setDest(int(in.Rd), rt<<in.Shamt)
	case isa.OpSRL:
		setDest(int(in.Rd), rt>>in.Shamt)
	case isa.OpSRA:
		setDest(int(in.Rd), uint32(int32(rt)>>in.Shamt))
	case isa.OpSLLV:
		setDest(int(in.Rd), rt<<(rs&31))
	case isa.OpSRLV:
		setDest(int(in.Rd), rt>>(rs&31))
	case isa.OpSRAV:
		setDest(int(in.Rd), uint32(int32(rt)>>(rs&31)))
	case isa.OpMUL:
		setDest(int(in.Rd), rs*rt)
	case isa.OpDIV:
		// Division by zero yields zero (defined so wrong paths can never
		// fault); signed overflow (MinInt32 / -1) wraps.
		if rt == 0 {
			setDest(int(in.Rd), 0)
		} else {
			setDest(int(in.Rd), uint32(int32(rs)/int32(rt)))
		}
	case isa.OpREM:
		if rt == 0 {
			setDest(int(in.Rd), 0)
		} else {
			setDest(int(in.Rd), uint32(int32(rs)%int32(rt)))
		}

	case isa.OpADDI:
		setDest(int(in.Rt), rs+uint32(in.Imm))
	case isa.OpANDI:
		setDest(int(in.Rt), rs&uint32(in.Imm))
	case isa.OpORI:
		setDest(int(in.Rt), rs|uint32(in.Imm))
	case isa.OpXORI:
		setDest(int(in.Rt), rs^uint32(in.Imm))
	case isa.OpSLTI:
		setDest(int(in.Rt), boolTo32(int32(rs) < in.Imm))
	case isa.OpSLTIU:
		setDest(int(in.Rt), boolTo32(rs < uint32(in.Imm)))
	case isa.OpLUI:
		setDest(int(in.Rt), uint32(in.Imm)<<16)

	case isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU:
		addr := rs + uint32(in.Imm)
		out.IsLoad, out.Addr = true, addr
		var v uint32
		switch in.Op {
		case isa.OpLW:
			if addr&3 != 0 {
				return fmt.Errorf("%w: lw @%#x", ErrMisaligned, addr)
			}
			out.Size = 4
			v = s.ReadMem32(addr)
		case isa.OpLH, isa.OpLHU:
			if addr&1 != 0 {
				return fmt.Errorf("%w: lh @%#x", ErrMisaligned, addr)
			}
			out.Size = 2
			h := s.ReadMem16(addr)
			if in.Op == isa.OpLH {
				v = uint32(int32(int16(h)))
			} else {
				v = uint32(h)
			}
		case isa.OpLB, isa.OpLBU:
			out.Size = 1
			b := s.ReadMem8(addr)
			if in.Op == isa.OpLB {
				v = uint32(int32(int8(b)))
			} else {
				v = uint32(b)
			}
		}
		setDest(int(in.Rt), v)

	case isa.OpSW, isa.OpSH, isa.OpSB:
		addr := rs + uint32(in.Imm)
		out.IsStore, out.Addr, out.StoreVal = true, addr, rt
		switch in.Op {
		case isa.OpSW:
			if addr&3 != 0 {
				return fmt.Errorf("%w: sw @%#x", ErrMisaligned, addr)
			}
			out.Size = 4
			s.WriteMem32(addr, rt)
		case isa.OpSH:
			if addr&1 != 0 {
				return fmt.Errorf("%w: sh @%#x", ErrMisaligned, addr)
			}
			out.Size = 2
			s.WriteMem16(addr, uint16(rt))
		case isa.OpSB:
			out.Size = 1
			s.WriteMem8(addr, byte(rt))
		}

	case isa.OpBEQ:
		takeBranch(rs == rt)
	case isa.OpBNE:
		takeBranch(rs != rt)
	case isa.OpBLEZ:
		takeBranch(int32(rs) <= 0)
	case isa.OpBGTZ:
		takeBranch(int32(rs) > 0)
	case isa.OpBLTZ:
		takeBranch(int32(rs) < 0)
	case isa.OpBGEZ:
		takeBranch(int32(rs) >= 0)

	case isa.OpJ:
		out.Control, out.Taken = true, true
		out.Target = in.DirectTarget(pc)
		out.NextPC = out.Target
	case isa.OpJAL:
		out.Control, out.Taken = true, true
		out.Target = in.DirectTarget(pc)
		out.NextPC = out.Target
		setDest(isa.RA, in.ReturnAddress(pc))
	case isa.OpJR:
		out.Control, out.Taken = true, true
		out.Target = rs
		out.NextPC = rs
	case isa.OpJALR:
		out.Control, out.Taken = true, true
		out.Target = rs
		out.NextPC = rs
		setDest(int(in.Rd), in.ReturnAddress(pc))

	case isa.OpSYSCALL:
		code := SyscallCode(s.ReadReg(isa.V0))
		arg := s.ReadReg(isa.A0)
		switch code {
		case SysExit, SysPutInt, SysPutChar:
			out.Syscall, out.SyscallArg = code, arg
		default:
			return fmt.Errorf("%w: v0=%d", ErrBadSyscall, code)
		}

	default:
		return fmt.Errorf("%w: %#08x", ErrInvalidInst, in.Raw)
	}
	return nil
}

func boolTo32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
