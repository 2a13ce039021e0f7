package vcache

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"peak/internal/ir"
	"peak/internal/sim"
)

// FNV-1a, 128-bit. The hashers below feed every semantically relevant field
// through it in a fixed traversal order, so equal hashes are (collisions
// aside) equal programs / equal generated code. The full 128 bits key the
// persistent store's content-addressed records, where a long-lived file
// accumulates enough distinct versions that 64-bit birthday collisions stop
// being negligible; the in-memory dedup paths keep using the low 64 bits
// (see Fingerprint), whose collision budget resets every process.
const (
	// fnvOffset64/fnvPrime64 parameterize the legacy 64-bit FNV-1a lane.
	// ProgramKey still reports this lane: its value is part of the
	// fault-injection identity strings ("progKey/fn/flags/machine"), so
	// changing it would silently re-roll every committed fault draw.
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fnvOffsetHi/Lo is the FNV-128 offset basis
	// 0x6C62272E07BB014262B821756295C592.
	fnvOffsetHi = 0x6C62272E07BB0142
	fnvOffsetLo = 0x62B821756295C592
	// fnvPrimeHi/Lo is the FNV-128 prime 2^88 + 2^8 + 0x3B.
	fnvPrimeHi = 1 << 24
	fnvPrimeLo = 0x13B
)

// FP128 is a 128-bit content fingerprint (FNV-1a-128 of the hashed
// traversal). It is the persistent store's cache key; the in-memory cache
// aliases on the low 64 bits only (Fingerprint), keeping its hot maps
// compact.
type FP128 struct {
	Hi, Lo uint64
}

// String renders the fingerprint as 32 lower-case hex digits, the form
// memo keys embed.
func (f FP128) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// IsZero reports whether the fingerprint is the zero value (no real
// traversal hashes to zero under FNV's nonzero offset basis, so zero is
// usable as "absent").
func (f FP128) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// hasher folds every byte through two FNV-1a lanes at once: the legacy
// 64-bit lane that ProgramKey reports (its values must stay stable — see
// the constant block above) and the 128-bit lane behind
// Fingerprint128 that keys the persistent store.
type hasher struct {
	h64    uint64
	hi, lo uint64
}

func newHasher() hasher {
	return hasher{h64: fnvOffset64, hi: fnvOffsetHi, lo: fnvOffsetLo}
}

func (h *hasher) byte(b byte) {
	h.h64 = (h.h64 ^ uint64(b)) * fnvPrime64
	h.lo ^= uint64(b)
	// 128-bit multiply modulo 2^128: (hi,lo) *= prime.
	carryHi, lo := bits.Mul64(h.lo, fnvPrimeLo)
	h.hi = carryHi + h.lo*fnvPrimeHi + h.hi*fnvPrimeLo
	h.lo = lo
}

func (h *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *hasher) i64(v int64)   { h.u64(uint64(v)) }
func (h *hasher) int(v int)     { h.u64(uint64(int64(v))) }
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *hasher) bool(v bool)   { h.byte(b2b(v)) }
func (h *hasher) reg(r ir.Reg)  { h.i64(int64(r)) }
func (h *hasher) sum() uint64   { return h.h64 }
func (h *hasher) sum128() FP128 { return FP128{Hi: h.hi, Lo: h.lo} }

func (h *hasher) str(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func b2b(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// ProgramKey returns a structural hash of an HIR program: functions (sorted
// by name), global arrays and global scalars. Two programs with the same
// key compile identically under any flag set, so the key serves as the
// "program identity" component of a cache key — independent of pointer
// identity, stable across Clone.
func ProgramKey(p *ir.Program) uint64 {
	h := newHasher()
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	h.int(len(names))
	for _, name := range names {
		h.str(name)
		hashFunc(&h, p.Funcs[name])
	}
	h.int(len(p.Arrays))
	for _, a := range p.Arrays {
		h.str(a.Name)
		h.int(int(a.Typ))
		h.int(a.Len)
	}
	h.int(len(p.Scalars))
	for _, s := range p.Scalars {
		h.str(s.Name)
		h.int(int(s.Typ))
	}
	return h.sum()
}

func hashFunc(h *hasher, f *ir.Func) {
	h.str(f.Name)
	h.int(len(f.Params))
	for _, p := range f.Params {
		h.str(p.Name)
		h.int(int(p.Typ))
		h.bool(p.IsArray)
	}
	h.int(len(f.Locals))
	for _, l := range f.Locals {
		h.str(l.Name)
		h.int(int(l.Typ))
	}
	h.int(f.NumCounters)
	hashStmts(h, f.Body)
}

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

func hashStmts(h *hasher, list []ir.Stmt) {
	h.int(len(list))
	for _, s := range list {
		hashStmt(h, s)
	}
}

func hashStmt(h *hasher, s ir.Stmt) {
	switch s := s.(type) {
	case *ir.Assign:
		h.byte(tagAssign)
		hashExpr(h, s.Lhs)
		hashExpr(h, s.Rhs)
	case *ir.If:
		h.byte(tagIf)
		hashExpr(h, s.Cond)
		hashStmts(h, s.Then)
		hashStmts(h, s.Else)
		h.bool(s.Guard)
	case *ir.For:
		h.byte(tagFor)
		h.str(s.Var)
		hashExpr(h, s.From)
		hashExpr(h, s.To)
		h.i64(s.Step)
		hashStmts(h, s.Body)
	case *ir.While:
		h.byte(tagWhile)
		hashExpr(h, s.Cond)
		hashStmts(h, s.Body)
	case *ir.Break:
		h.byte(tagBreak)
	case *ir.Return:
		h.byte(tagReturn)
		hashExpr(h, s.Value)
	case *ir.CallStmt:
		h.byte(tagCallStmt)
		h.str(s.Fn)
		h.int(len(s.Args))
		for _, a := range s.Args {
			hashExpr(h, a)
		}
	case *ir.Counter:
		h.byte(tagCounter)
		h.int(s.ID)
	default:
		h.byte(tagNil)
	}
}

func hashExpr(h *hasher, e ir.Expr) {
	switch e := e.(type) {
	case nil:
		h.byte(tagNil)
	case *ir.ConstInt:
		h.byte(tagConstInt)
		h.i64(e.V)
	case *ir.ConstFloat:
		h.byte(tagConstFloat)
		h.f64(e.V)
	case *ir.VarRef:
		h.byte(tagVarRef)
		h.str(e.Name)
	case *ir.ArrayRef:
		h.byte(tagArrayRef)
		h.str(e.Name)
		hashExpr(h, e.Index)
	case *ir.Unary:
		h.byte(tagUnary)
		h.int(int(e.Op))
		hashExpr(h, e.X)
	case *ir.Binary:
		h.byte(tagBinary)
		h.int(int(e.Op))
		h.int(int(e.Typ))
		hashExpr(h, e.X)
		hashExpr(h, e.Y)
	case *ir.CallExpr:
		h.byte(tagCallExpr)
		h.str(e.Fn)
		h.int(len(e.Args))
		for _, a := range e.Args {
			hashExpr(h, a)
		}
	case *ir.Select:
		h.byte(tagSelect)
		hashExpr(h, e.Cond)
		hashExpr(h, e.X)
		hashExpr(h, e.Y)
	default:
		h.byte(tagNil)
	}
}

// Fingerprint returns the code fingerprint of a compiled version: a hash of
// everything that determines its execution behaviour — the LIR instruction
// stream and block layout, terminators, parameter binding, spill set, cost
// modifiers, code footprint, origin mapping, and (recursively) the callee
// versions. The version's Label (the flag-set annotation) is deliberately
// excluded: two flag sets that generate identical code get identical
// fingerprints, which is what content dedup keys on. Fingerprint is the low
// half of Fingerprint128 — adequate for per-process aliasing, while the
// persistent store keys on the full 128 bits.
func Fingerprint(v *sim.Version) uint64 {
	return Fingerprint128(v).Lo
}

// Fingerprint128 is Fingerprint at full 128-bit width, the key the
// persistent store (internal/store) addresses version bodies by across
// restarts.
func Fingerprint128(v *sim.Version) FP128 {
	h := newHasher()
	hashVersion(&h, v, 0)
	return h.sum128()
}

func hashVersion(h *hasher, v *sim.Version, depth int) {
	if depth > 16 {
		return
	}
	lf := v.LF
	h.str(lf.Name)
	h.int(lf.NumRegs)
	h.int(lf.NumCounters)
	h.int(len(lf.Params))
	for i, p := range lf.Params {
		h.str(p.Name)
		h.int(int(p.Typ))
		h.bool(p.IsArray)
		h.reg(lf.ParamRegs[i])
	}
	h.int(len(lf.Blocks))
	for _, b := range lf.Blocks {
		h.int(b.ID)
		h.int(b.Origin)
		h.int(int(b.Term.Kind))
		h.reg(b.Term.Cond)
		h.int(b.Term.Then)
		h.int(b.Term.Else)
		h.reg(b.Term.Val)
		h.int(b.Term.Likely)
		h.int(len(b.Instrs))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			h.int(int(in.Op))
			h.reg(in.Dst)
			h.reg(in.A)
			h.reg(in.B)
			h.reg(in.Src)
			h.i64(in.Imm)
			h.f64(in.FImm)
			h.str(in.Arr)
			h.str(in.Fn)
			h.int(len(in.CallArgs))
			for _, r := range in.CallArgs {
				h.reg(r)
			}
		}
	}
	h.int(len(v.Alloc.Spilled))
	for _, s := range v.Alloc.Spilled {
		h.bool(s)
	}
	h.f64(v.Mods.TakenBranchFactor)
	h.f64(v.Mods.CallOverheadFactor)
	h.int(v.Mods.CodeSizeExtra)
	h.bool(v.Mods.StaticPredict)
	h.int(v.CodeSize)
	h.int(v.NumOrigins)

	names := make([]string, 0, len(v.Callees))
	for name := range v.Callees {
		names = append(names, name)
	}
	sort.Strings(names)
	h.int(len(names))
	for _, name := range names {
		h.str(name)
		hashVersion(h, v.Callees[name], depth+1)
	}
}

// versionBytes estimates the in-memory footprint of a version (and callees,
// counted once per distinct pointer) for the cache's byte accounting. The
// constants approximate Go object headers and per-field storage; the point
// is a stable, proportional measure, not malloc-exact numbers.
func versionBytes(v *sim.Version, seen map[*sim.Version]bool) int64 {
	if seen[v] {
		return 0
	}
	seen[v] = true
	const (
		versionOverhead = 160
		blockOverhead   = 96
		instrBytes      = 104
	)
	n := int64(versionOverhead)
	for _, b := range v.LF.Blocks {
		n += blockOverhead + int64(len(b.Instrs))*instrBytes
		for i := range b.Instrs {
			n += int64(len(b.Instrs[i].CallArgs)) * 8
		}
	}
	n += int64(len(v.Alloc.Spilled)) + int64(len(v.LF.FloatReg)) +
		int64(len(v.LF.ParamRegs))*8 + int64(len(v.Label))
	for _, c := range v.Callees {
		n += versionBytes(c, seen)
	}
	return n
}
