// Package analysis implements the compile-time program analyses the paper's
// rating methods depend on:
//
//   - context-variable analysis (paper Figure 1) deciding CBR applicability
//     and producing the context-variable set;
//   - memory effect sets (Input/Def at array granularity) for RBR's
//     save/restore of Modified_Input(TS) (paper §2.4);
//   - MBR counter instrumentation and affine component merging
//     (paper §2.3).
package analysis

import (
	"fmt"
	"sort"

	"peak/internal/ir"
	"peak/internal/lower"
)

// ContextVarKind classifies a context variable.
type ContextVarKind int

// Context variable kinds. All are "scalars" in the paper's sense: plain
// scalar parameters, array references with constant subscripts, and global
// scalars (which lower to constant-subscript references into the reserved
// globals array).
const (
	CtxParam ContextVarKind = iota
	CtxArrayElem
)

// ContextVar identifies one context variable of a tuning section.
type ContextVar struct {
	Kind ContextVarKind
	// Name is the parameter name (CtxParam) or array name (CtxArrayElem).
	Name string
	// Index is the constant element index for CtxArrayElem.
	Index int64
}

func (v ContextVar) String() string {
	if v.Kind == CtxParam {
		return v.Name
	}
	return fmt.Sprintf("%s[%d]", v.Name, v.Index)
}

// ContextSet is the result of context-variable analysis.
type ContextSet struct {
	// Applicable reports whether CBR may be applied: every variable that
	// influences control flow traces back to scalar inputs only —
	// possibly conditional on the NeedConstArrays being run-time constant.
	Applicable bool
	// Vars is the deduplicated, deterministic-ordered context variable set.
	Vars []ContextVar
	// NeedConstArrays lists arrays whose elements feed control flow
	// through non-constant subscripts. Such references are non-scalar
	// under the paper's Figure-1 rules, but if profiling shows the array
	// is a run-time constant (never modified between TS invocations, like
	// EQUAKE's sparse-matrix index structure), the dependence is
	// eliminated the same way constant context variables are (§2.2).
	// CBR's final applicability requires every listed array to be
	// run-time constant.
	NeedConstArrays []string
	// Reason explains inapplicability (diagnostics).
	Reason string
}

// instrRef locates an instruction within an LFunc.
type instrRef struct {
	block int // slice index
	idx   int
}

// GetContextSet runs the paper's Figure-1 analysis on the lowered tuning
// section: for every control statement (conditional branch), it follows
// UD-chains from the variables used in the condition back to the section's
// inputs. If every chain ends in scalar inputs (parameters or
// constant-subscript memory references), CBR is applicable and the set of
// those inputs is the context-variable set.
//
// The UD-chains are over-approximated by "all definitions of the register
// anywhere in the section", which is sound here: it can only add context
// variables or declare CBR inapplicable more often, never miss a context
// variable.
func GetContextSet(fn *ir.Func, prog *ir.Program) (*ContextSet, error) {
	lf, err := lower.Lower(prog, fn)
	if err != nil {
		return nil, err
	}
	return getContextSetLIR(lf, fn), nil
}

func getContextSetLIR(lf *ir.LFunc, fn *ir.Func) *ContextSet {
	// defs[r] lists all instructions defining register r.
	defs := make([][]instrRef, lf.NumRegs)
	for bi, b := range lf.Blocks {
		for ii := range b.Instrs {
			if d := b.Instrs[ii].Def(); d != ir.NoReg {
				defs[d] = append(defs[d], instrRef{bi, ii})
			}
		}
	}
	paramOf := make(map[ir.Reg]string)
	for i, p := range lf.Params {
		if !p.IsArray && lf.ParamRegs[i] != ir.NoReg {
			paramOf[lf.ParamRegs[i]] = p.Name
		}
	}

	cs := &ContextSet{Applicable: true}
	seen := make(map[string]bool)
	addVar := func(v ContextVar) {
		k := v.String()
		if !seen[k] {
			seen[k] = true
			cs.Vars = append(cs.Vars, v)
		}
	}

	visited := make(map[ir.Reg]bool)
	var trace func(r ir.Reg) bool
	constOf := func(r ir.Reg) (int64, bool) {
		// A register is a known constant if it has exactly one def and
		// that def is LMovI.
		if len(defs[r]) == 1 {
			in := &lf.Blocks[defs[r][0].block].Instrs[defs[r][0].idx]
			if in.Op == ir.LMovI {
				return in.Imm, true
			}
		}
		return 0, false
	}
	trace = func(r ir.Reg) bool {
		if r == ir.NoReg || visited[r] {
			return true
		}
		visited[r] = true
		if name, ok := paramOf[r]; ok && len(defs[r]) == 0 {
			addVar(ContextVar{Kind: CtxParam, Name: name})
			return true
		}
		if len(defs[r]) == 0 {
			// Parameter register that is also redefined is handled below;
			// a def-less non-param register is an uninitialized local
			// (value is the constant zero).
			if name, ok := paramOf[r]; ok {
				addVar(ContextVar{Kind: CtxParam, Name: name})
			}
			return true
		}
		if name, ok := paramOf[r]; ok {
			// The parameter's incoming value may flow into any use.
			addVar(ContextVar{Kind: CtxParam, Name: name})
		}
		for _, ref := range defs[r] {
			in := &lf.Blocks[ref.block].Instrs[ref.idx]
			switch in.Op {
			case ir.LMovI, ir.LMovF:
				// constants contribute nothing
			case ir.LLoad:
				if idx, ok := constOf(in.A); ok {
					// Array reference with constant subscript: scalar
					// (paper §2.2 case 2/3).
					addVar(ContextVar{Kind: CtxArrayElem, Name: in.Arr, Index: idx})
				} else {
					// Non-scalar: acceptable only if the whole array turns
					// out to be a run-time constant (decided by the
					// profiler); the subscript chain must still be traced.
					cs.NeedConstArrays = appendUnique(cs.NeedConstArrays, in.Arr)
					if !trace(in.A) {
						return false
					}
				}
			case ir.LCall:
				if _, ok := ir.IsIntrinsic(in.Fn); !ok {
					cs.Applicable = false
					cs.Reason = fmt.Sprintf("control flow depends on call to %s", in.Fn)
					return false
				}
				for _, a := range in.CallArgs {
					if !trace(a) {
						return false
					}
				}
			default:
				if !trace(in.A) || !trace(in.B) || !trace(in.Src) {
					return false
				}
			}
		}
		return true
	}

	for _, b := range lf.Blocks {
		if b.Term.Kind == ir.TermBranch {
			if !trace(b.Term.Cond) {
				break
			}
		}
	}
	if !cs.Applicable {
		cs.Vars = nil
		cs.NeedConstArrays = nil
		return cs
	}
	sort.Slice(cs.Vars, func(i, j int) bool { return cs.Vars[i].String() < cs.Vars[j].String() })
	sort.Strings(cs.NeedConstArrays)
	return cs
}

func appendUnique(list []string, s string) []string {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	return append(list, s)
}
