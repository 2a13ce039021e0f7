package ir

import (
	"fmt"
	"strings"
)

// Reg is a virtual register index within an LFunc. Register allocation maps
// virtual registers to physical registers or marks them spilled.
type Reg int

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Opcode enumerates LIR instruction opcodes.
type Opcode int

// LIR opcodes. Integer and floating point arithmetic are distinguished only
// for cost accounting; the execution engine computes both on float64.
const (
	LNop  Opcode = iota
	LMovI        // Dst = Imm
	LMovF        // Dst = FImm
	LMov         // Dst = A
	LAdd         // Dst = A + B (integer cost class)
	LSub
	LMul
	LDiv
	LMod
	LAnd
	LOr
	LXor
	LShl
	LShr
	LFAdd // floating point cost class
	LFSub
	LFMul
	LFDiv
	LNeg
	LFNeg
	LNot
	LCmpEq // Dst = (A == B)
	LCmpNe
	LCmpLt
	LCmpLe
	LCmpGt
	LCmpGe
	LFCmpEq
	LFCmpNe
	LFCmpLt
	LFCmpLe
	LFCmpGt
	LFCmpGe
	LSelect // Dst = A != 0 ? B : C  (if-conversion; C in Src)
	LLoad   // Dst = Arr[A]
	LStore  // Arr[A] = Src
	LCall   // Dst = Fn(args in CallArgs)
	LCount  // increment MBR counter Imm; zero cost, no dependences

	// NumOpcodes is the opcode count (for dense per-opcode tables).
	NumOpcodes
)

var opcodeNames = map[Opcode]string{
	LNop: "nop", LMovI: "movi", LMovF: "movf", LMov: "mov",
	LAdd: "add", LSub: "sub", LMul: "mul", LDiv: "div", LMod: "mod",
	LAnd: "and", LOr: "or", LXor: "xor", LShl: "shl", LShr: "shr",
	LFAdd: "fadd", LFSub: "fsub", LFMul: "fmul", LFDiv: "fdiv",
	LNeg: "neg", LFNeg: "fneg", LNot: "not",
	LCmpEq: "cmpeq", LCmpNe: "cmpne", LCmpLt: "cmplt", LCmpLe: "cmple",
	LCmpGt: "cmpgt", LCmpGe: "cmpge",
	LFCmpEq: "fcmpeq", LFCmpNe: "fcmpne", LFCmpLt: "fcmplt", LFCmpLe: "fcmple",
	LFCmpGt: "fcmpgt", LFCmpGe: "fcmpge",
	LSelect: "select", LLoad: "load", LStore: "store", LCall: "call", LCount: "count",
}

func (op Opcode) String() string { return opcodeNames[op] }

// IsFloat reports whether op belongs to the floating-point cost class.
func (op Opcode) IsFloat() bool {
	switch op {
	case LFAdd, LFSub, LFMul, LFDiv, LFNeg, LMovF,
		LFCmpEq, LFCmpNe, LFCmpLt, LFCmpLe, LFCmpGt, LFCmpGe:
		return true
	}
	return false
}

// IsCmp reports whether op is a comparison (integer or float).
func (op Opcode) IsCmp() bool {
	return (op >= LCmpEq && op <= LCmpGe) || (op >= LFCmpEq && op <= LFCmpGe)
}

// Instr is a three-address LIR instruction.
type Instr struct {
	Op  Opcode
	Dst Reg // destination register (NoReg if none)
	A   Reg // first source (NoReg if unused)
	B   Reg // second source (NoReg if unused)
	Src Reg // value source for LStore, third operand for LSelect

	Imm  int64   // immediate for LMovI, counter ID for LCount
	FImm float64 // immediate for LMovF

	Arr string // array name for LLoad/LStore

	Fn       string // callee for LCall
	CallArgs []Reg  // argument registers for LCall
}

// Uses appends the registers read by the instruction to dst and returns it.
func (in *Instr) Uses(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != NoReg {
			dst = append(dst, r)
		}
	}
	switch in.Op {
	case LMovI, LMovF, LNop, LCount:
	case LCall:
		for _, r := range in.CallArgs {
			add(r)
		}
	case LStore:
		add(in.A)
		add(in.Src)
	case LSelect:
		add(in.A)
		add(in.B)
		add(in.Src)
	default:
		add(in.A)
		add(in.B)
	}
	return dst
}

// Def returns the register written by the instruction, or NoReg.
func (in *Instr) Def() Reg {
	switch in.Op {
	case LStore, LNop, LCount:
		return NoReg
	}
	return in.Dst
}

func regStr(r Reg) string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("r%d", r)
}

func (in *Instr) String() string {
	switch in.Op {
	case LMovI:
		return fmt.Sprintf("%s = movi %d", regStr(in.Dst), in.Imm)
	case LMovF:
		return fmt.Sprintf("%s = movf %g", regStr(in.Dst), in.FImm)
	case LLoad:
		return fmt.Sprintf("%s = load %s[%s]", regStr(in.Dst), in.Arr, regStr(in.A))
	case LStore:
		return fmt.Sprintf("store %s[%s] = %s", in.Arr, regStr(in.A), regStr(in.Src))
	case LSelect:
		return fmt.Sprintf("%s = select %s ? %s : %s", regStr(in.Dst), regStr(in.A), regStr(in.B), regStr(in.Src))
	case LCall:
		args := make([]string, len(in.CallArgs))
		for i, r := range in.CallArgs {
			args[i] = regStr(r)
		}
		return fmt.Sprintf("%s = call %s(%s)", regStr(in.Dst), in.Fn, strings.Join(args, ", "))
	case LCount:
		return fmt.Sprintf("count #%d", in.Imm)
	case LNop:
		return "nop"
	case LMov, LNeg, LFNeg, LNot:
		return fmt.Sprintf("%s = %s %s", regStr(in.Dst), in.Op, regStr(in.A))
	default:
		return fmt.Sprintf("%s = %s %s, %s", regStr(in.Dst), in.Op, regStr(in.A), regStr(in.B))
	}
}

// TermKind enumerates block terminators.
type TermKind int

// Terminator kinds.
const (
	TermJump   TermKind = iota // unconditional jump to Then
	TermBranch                 // if Cond != 0 goto Then else Else
	TermReturn                 // return Val (NoReg for none)
)

// Terminator ends a basic block.
type Terminator struct {
	Kind TermKind
	Cond Reg // condition register for TermBranch
	Then int // target block ID (TermJump, TermBranch)
	Else int // fall-through block ID (TermBranch)
	Val  Reg // return value register (TermReturn), NoReg if none
	// Likely is a static branch hint: +1 taken-likely, -1 not-taken-likely,
	// 0 unknown. Set by the guess-branch-probability flag.
	Likely int
}

func (t *Terminator) String() string {
	switch t.Kind {
	case TermJump:
		return fmt.Sprintf("jmp b%d", t.Then)
	case TermBranch:
		return fmt.Sprintf("br %s ? b%d : b%d", regStr(t.Cond), t.Then, t.Else)
	default:
		if t.Val == NoReg {
			return "ret"
		}
		return fmt.Sprintf("ret %s", regStr(t.Val))
	}
}

// Block is an LIR basic block.
type Block struct {
	ID     int
	Instrs []Instr
	Term   Terminator
	// LoopDepth is the static loop nesting depth (filled by analysis;
	// used by spill-cost heuristics and alignment flags).
	LoopDepth int
	// Origin is the block ID this block was derived from in the reference
	// (unoptimized) lowering, or -1 when the block was synthesized by an
	// optimization. Used to relate block counts across versions.
	Origin int
}

// LFunc is a lowered function: CFG of blocks, virtual register count, and
// the mapping from parameter names to registers.
type LFunc struct {
	Name      string
	Params    []Param
	ParamRegs []Reg // register holding each scalar param (NoReg for arrays)
	Blocks    []*Block
	NumRegs   int
	// FloatReg marks virtual registers carrying floating-point values
	// (integer and FP register files are allocated separately).
	FloatReg []bool
	// NumCounters is the number of MBR counters referenced by LCount.
	NumCounters int
}

// BlockByID returns the block with the given ID, or nil.
func (f *LFunc) BlockByID(id int) *Block {
	for _, b := range f.Blocks {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// Succs returns the successor block IDs of b.
func (b *Block) Succs() []int {
	switch b.Term.Kind {
	case TermJump:
		return []int{b.Term.Then}
	case TermBranch:
		return []int{b.Term.Then, b.Term.Else}
	}
	return nil
}

// String renders the function as readable LIR assembly.
func (f *LFunc) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (%d regs)\n", f.Name, f.NumRegs)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d: (depth %d)\n", b.ID, b.LoopDepth)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "\t%s\n", b.Instrs[i].String())
		}
		fmt.Fprintf(&sb, "\t%s\n", b.Term.String())
	}
	return sb.String()
}

// InstrCount returns the total number of instructions across all blocks.
func (f *LFunc) InstrCount() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Clone deep-copies the LFunc.
func (f *LFunc) Clone() *LFunc {
	nf := &LFunc{
		Name:        f.Name,
		Params:      append([]Param(nil), f.Params...),
		ParamRegs:   append([]Reg(nil), f.ParamRegs...),
		NumRegs:     f.NumRegs,
		FloatReg:    append([]bool(nil), f.FloatReg...),
		NumCounters: f.NumCounters,
	}
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &Block{ID: b.ID, Term: b.Term, LoopDepth: b.LoopDepth, Origin: b.Origin}
		nb.Instrs = make([]Instr, len(b.Instrs))
		copy(nb.Instrs, b.Instrs)
		for j := range nb.Instrs {
			if b.Instrs[j].CallArgs != nil {
				nb.Instrs[j].CallArgs = append([]Reg(nil), b.Instrs[j].CallArgs...)
			}
		}
		nf.Blocks[i] = nb
	}
	return nf
}
