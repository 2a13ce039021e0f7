package vcache

import (
	"fmt"
	"hash/fnv"
	"sort"

	"peak/internal/ir"
)

// FP128 is a 128-bit content fingerprint (see Fingerprint128). It keys
// the persistent store's body records, where a long-lived file
// accumulates enough distinct versions that 64-bit birthday collisions
// stop being negligible; the in-memory dedup map aliases on the low 64
// bits only, whose collision budget resets every process.
type FP128 struct {
	Hi, Lo uint64
}

// String renders the fingerprint as 32 lower-case hex digits, the form
// memo keys embed.
func (f FP128) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// IsZero reports whether the fingerprint is the zero value, which serves
// as "absent".
func (f FP128) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// ProgramKey returns a structural hash of an HIR program: functions (sorted
// by name), global arrays and global scalars. Two programs with the same
// key compile identically under any flag set, so the key serves as the
// "program identity" component of a cache key — independent of pointer
// identity, stable across Clone.
//
// The key is the FNV-1a-64 hash of the program's encoding, in the
// canonical encoding's primitives. Its value is part of the fault
// injection identity strings ("progKey/fn/flags/machine"), so changing
// what is hashed would silently re-roll every committed fault draw.
func ProgramKey(p *ir.Program) uint64 {
	h := &Encoder{}
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	h.Int(len(names))
	for _, name := range names {
		h.Str(name)
		hashFunc(h, p.Funcs[name])
	}
	h.Int(len(p.Arrays))
	for _, a := range p.Arrays {
		h.Str(a.Name)
		h.Int(int(a.Typ))
		h.Int(a.Len)
	}
	h.Int(len(p.Scalars))
	for _, s := range p.Scalars {
		h.Str(s.Name)
		h.Int(int(s.Typ))
	}
	f := fnv.New64a()
	f.Write(h.Buf)
	return f.Sum64()
}

func hashFunc(h *Encoder, f *ir.Func) {
	h.Str(f.Name)
	h.Int(len(f.Params))
	for _, p := range f.Params {
		h.Str(p.Name)
		h.Int(int(p.Typ))
		h.Bool(p.IsArray)
	}
	h.Int(len(f.Locals))
	for _, l := range f.Locals {
		h.Str(l.Name)
		h.Int(int(l.Typ))
	}
	h.Int(f.NumCounters)
	hashStmts(h, f.Body)
}

// tag appends one node tag byte.
func (e *Encoder) tag(b byte) { e.Buf = append(e.Buf, b) }

// Per-node tags keep differently-shaped trees from colliding after
// flattening.
const (
	tagAssign byte = iota + 1
	tagIf
	tagFor
	tagWhile
	tagBreak
	tagReturn
	tagCallStmt
	tagCounter
	tagConstInt
	tagConstFloat
	tagVarRef
	tagArrayRef
	tagUnary
	tagBinary
	tagCallExpr
	tagSelect
	tagNil
)

func hashStmts(h *Encoder, list []ir.Stmt) {
	h.Int(len(list))
	for _, s := range list {
		hashStmt(h, s)
	}
}

func hashStmt(h *Encoder, s ir.Stmt) {
	switch s := s.(type) {
	case *ir.Assign:
		h.tag(tagAssign)
		hashExpr(h, s.Lhs)
		hashExpr(h, s.Rhs)
	case *ir.If:
		h.tag(tagIf)
		hashExpr(h, s.Cond)
		hashStmts(h, s.Then)
		hashStmts(h, s.Else)
		h.Bool(s.Guard)
	case *ir.For:
		h.tag(tagFor)
		h.Str(s.Var)
		hashExpr(h, s.From)
		hashExpr(h, s.To)
		h.U64(uint64(s.Step))
		hashStmts(h, s.Body)
	case *ir.While:
		h.tag(tagWhile)
		hashExpr(h, s.Cond)
		hashStmts(h, s.Body)
	case *ir.Break:
		h.tag(tagBreak)
	case *ir.Return:
		h.tag(tagReturn)
		hashExpr(h, s.Value)
	case *ir.CallStmt:
		h.tag(tagCallStmt)
		h.Str(s.Fn)
		h.Int(len(s.Args))
		for _, a := range s.Args {
			hashExpr(h, a)
		}
	case *ir.Counter:
		h.tag(tagCounter)
		h.Int(s.ID)
	default:
		h.tag(tagNil)
	}
}

func hashExpr(h *Encoder, e ir.Expr) {
	switch e := e.(type) {
	case nil:
		h.tag(tagNil)
	case *ir.ConstInt:
		h.tag(tagConstInt)
		h.U64(uint64(e.V))
	case *ir.ConstFloat:
		h.tag(tagConstFloat)
		h.F64(e.V)
	case *ir.VarRef:
		h.tag(tagVarRef)
		h.Str(e.Name)
	case *ir.ArrayRef:
		h.tag(tagArrayRef)
		h.Str(e.Name)
		hashExpr(h, e.Index)
	case *ir.Unary:
		h.tag(tagUnary)
		h.Int(int(e.Op))
		hashExpr(h, e.X)
	case *ir.Binary:
		h.tag(tagBinary)
		h.Int(int(e.Op))
		h.Int(int(e.Typ))
		hashExpr(h, e.X)
		hashExpr(h, e.Y)
	case *ir.CallExpr:
		h.tag(tagCallExpr)
		h.Str(e.Fn)
		h.Int(len(e.Args))
		for _, a := range e.Args {
			hashExpr(h, a)
		}
	case *ir.Select:
		h.tag(tagSelect)
		hashExpr(h, e.Cond)
		hashExpr(h, e.X)
		hashExpr(h, e.Y)
	default:
		h.tag(tagNil)
	}
}
