package opt

import "peak/internal/ir"

// cseOpts selects the scope and memory model of common-subexpression
// elimination. Plain local CSE (within straight-line segments, table cleared
// at control flow) always runs as baseline behaviour; the tunable flags
// extend it:
//
//   - cse-follow-jumps keeps the table alive across two-armed conditionals
//     (killing only facts the arms invalidate);
//   - cse-skip-blocks does the same for one-armed conditionals;
//   - gcse seeds nested regions (loop bodies, conditional arms) with the
//     surviving outer table and enables reuse of memory loads;
//   - strict-aliasing lets a store kill only loads of the stored array
//     instead of all loads;
//   - force-mem also enables load reuse (its historical effect of forcing
//     memory operands into registers).
type cseOpts struct {
	followJumps bool
	skipBlocks  bool
	global      bool
	strictAlias bool
	loadReuse   bool
}

type cseEntry struct {
	temp  string
	vars  map[string]bool
	loads map[string]bool
}

type cseState struct {
	fn     *ir.Func
	prog   *ir.Program
	opts   cseOpts
	namer  *tempNamer
	table  map[string]*cseEntry
	worthy map[string]bool
	counts map[string]int
}

// eliminateCommonSubexprs runs CSE over the function body.
func eliminateCommonSubexprs(fn *ir.Func, prog *ir.Program, opts cseOpts, namer *tempNamer) {
	c := &cseState{
		fn: fn, prog: prog, opts: opts, namer: namer,
		table:  map[string]*cseEntry{},
		worthy: map[string]bool{},
		counts: map[string]int{},
	}
	// Pass 1: find expressions that occur at least twice while available.
	c.countStmts(fn.Body)
	// Pass 2: materialize temps and replace occurrences.
	c.table = map[string]*cseEntry{}
	fn.Body = c.rewriteStmts(fn.Body)
}

func (c *cseState) eligible(e ir.Expr) bool {
	switch e.(type) {
	case *ir.Binary, *ir.Unary:
	case *ir.ArrayRef:
		if !c.opts.loadReuse {
			return false
		}
	case *ir.CallExpr:
	default:
		return false
	}
	p := analyzeExpr(e)
	if p.hasUserCall {
		return false
	}
	if p.hasLoad && !c.opts.loadReuse {
		return false
	}
	// Cheap scalar expressions are not worth a temporary: recomputing
	// an add is as fast as the move, and the temp raises pressure.
	if !p.hasLoad && !p.hasCall && exprSize(e) < 4 {
		return false
	}
	return true
}

// --- kill operations (shared semantics between the two passes) -----------

func (c *cseState) killVar(name string) {
	for k, e := range c.table {
		if e.vars[name] {
			delete(c.table, k)
		}
	}
	for k := range c.counts {
		// counts are keyed identically; recompute lazily by clearing.
		_ = k
	}
}

func (c *cseState) killStore(arr string) {
	for k, e := range c.table {
		if len(e.loads) == 0 {
			continue
		}
		if !c.opts.strictAlias || e.loads[arr] {
			delete(c.table, k)
		}
	}
}

func (c *cseState) killCalls() {
	c.table = map[string]*cseEntry{}
}

// --- pass 1: occurrence counting ------------------------------------------

// countStmts approximates availability: it counts eligible expression keys,
// resetting nothing on kills (over-approximation; a "worthy" expression that
// is in fact killed merely yields an extra single-use temporary). It counts
// fewer slots than ir.StmtExprs (not For.To or While.Cond), and that set
// fixes which expressions are worthy, so it is spelled out here.
func (c *cseState) countStmts(list []ir.Stmt) {
	countExpr := func(e ir.Expr) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if c.eligible(x) {
				k := exprKey(x)
				c.counts[k]++
				if c.counts[k] >= 2 {
					c.worthy[k] = true
				}
			}
		})
	}
	ir.VisitStmts(list, func(s ir.Stmt) {
		switch st := s.(type) {
		case *ir.Assign:
			countExpr(st.Rhs)
			if ar, ok := st.Lhs.(*ir.ArrayRef); ok {
				countExpr(ar.Index)
			}
		case *ir.If:
			countExpr(st.Cond)
		case *ir.For:
			countExpr(st.From)
		case *ir.Return:
			countExpr(st.Value)
		case *ir.CallStmt:
			for _, a := range st.Args {
				countExpr(a)
			}
		}
	})
}

// --- pass 2: rewriting ------------------------------------------------------

// rewriteStmts stays hand-written: its table kills are sequenced around the
// recursion into nested lists, which no ir primitive can interleave.
func (c *cseState) rewriteStmts(list []ir.Stmt) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(list))
	insert := func(s ir.Stmt) { out = append(out, s) }

	for _, s := range list {
		switch st := s.(type) {
		case *ir.Assign:
			st.Rhs = c.replace(st.Rhs, insert)
			switch lhs := st.Lhs.(type) {
			case *ir.ArrayRef:
				lhs.Index = c.replace(lhs.Index, insert)
				if hasUserCall(st.Rhs) || hasUserCall(lhs.Index) {
					c.killCalls()
				}
				c.killStore(lhs.Name)
			case *ir.VarRef:
				if hasUserCall(st.Rhs) {
					c.killCalls()
				}
				c.killVar(lhs.Name)
			}
			out = append(out, st)
		case *ir.If:
			st.Cond = c.replace(st.Cond, insert)
			if hasUserCall(st.Cond) {
				c.killCalls()
			}
			st.Then = c.rewriteNested(st.Then)
			st.Else = c.rewriteNested(st.Else)
			c.applyRegionKills(st.Then, st.Else)
			keep := (len(st.Else) > 0 && c.opts.followJumps) ||
				(len(st.Else) == 0 && c.opts.skipBlocks) || c.opts.global
			if !keep {
				c.table = map[string]*cseEntry{}
			}
			out = append(out, st)
		case *ir.For:
			st.From = c.replace(st.From, insert)
			c.killVar(st.Var)
			c.applyRegionKills(st.Body, nil)
			st.Body = c.rewriteNested(st.Body)
			c.applyRegionKills(st.Body, nil)
			c.killVar(st.Var)
			if !c.opts.global {
				c.table = map[string]*cseEntry{}
			}
			out = append(out, st)
		case *ir.While:
			c.applyRegionKills(st.Body, nil)
			st.Body = c.rewriteNested(st.Body)
			c.applyRegionKills(st.Body, nil)
			if !c.opts.global {
				c.table = map[string]*cseEntry{}
			}
			out = append(out, st)
		case *ir.Return:
			if st.Value != nil {
				st.Value = c.replace(st.Value, insert)
			}
			out = append(out, st)
		case *ir.CallStmt:
			for i, a := range st.Args {
				st.Args[i] = c.replace(a, insert)
			}
			c.killCalls()
			out = append(out, st)
		default:
			out = append(out, s)
		}
	}
	return out
}

// rewriteNested processes a nested region. Under gcse the current table
// (already purged of facts the region kills) seeds the region; otherwise the
// region starts empty. Entries created inside never escape.
func (c *cseState) rewriteNested(body []ir.Stmt) []ir.Stmt {
	if body == nil {
		return nil
	}
	saved := c.table
	seed := map[string]*cseEntry{}
	if c.opts.global {
		for k, v := range saved {
			seed[k] = v
		}
	}
	c.table = seed
	outBody := c.rewriteStmts(body)
	c.table = saved
	return outBody
}

// applyRegionKills removes table entries invalidated by assignments or
// stores within the given regions.
func (c *cseState) applyRegionKills(a, b []ir.Stmt) {
	vars := map[string]bool{}
	assignedVars(a, vars)
	assignedVars(b, vars)
	for v := range vars {
		c.killVar(v)
	}
	arrs := map[string]bool{}
	storedArrays(a, c.prog, arrs)
	storedArrays(b, c.prog, arrs)
	for arr := range arrs {
		c.killStore(arr)
	}
	if regionHasUserCall(a) || regionHasUserCall(b) {
		c.killCalls()
	}
}

// regionHasUserCall reports whether any statement in list calls a user
// (non-intrinsic) function.
func regionHasUserCall(list []ir.Stmt) bool {
	found := false
	ir.VisitStmts(list, func(s ir.Stmt) {
		if st, ok := s.(*ir.CallStmt); ok {
			if _, ok := ir.IsIntrinsic(st.Fn); !ok {
				found = true
			}
		}
		ir.StmtExprs(s, func(e *ir.Expr) {
			if !found && hasUserCall(*e) {
				found = true
			}
		})
	})
	return found
}

// replace rewrites e top-down: a whole-node table hit becomes a temp
// reference; the first occurrence of a worthy expression is materialized
// into a fresh temp (inserted via insert) and recorded.
func (c *cseState) replace(e ir.Expr, insert func(ir.Stmt)) ir.Expr {
	key := exprKey(e)
	if ent, ok := c.table[key]; ok {
		return &ir.VarRef{Name: ent.temp}
	}
	if c.worthy[key] && c.eligible(e) {
		// Analyze before rewriting children: the kill sets must name the
		// original variables and arrays, not the temps substituted below.
		p := analyzeExpr(e)
		typ := exprType(e, c.fn, c.prog)
		inner := c.replaceChildren(e, insert)
		t := c.namer.fresh(typ)
		insert(&ir.Assign{Lhs: &ir.VarRef{Name: t}, Rhs: inner})
		c.table[key] = &cseEntry{temp: t, vars: p.vars, loads: p.loads}
		return &ir.VarRef{Name: t}
	}
	return c.replaceChildren(e, insert)
}

func (c *cseState) replaceChildren(e ir.Expr, insert func(ir.Stmt)) ir.Expr {
	switch ex := e.(type) {
	case *ir.ArrayRef:
		ex.Index = c.replace(ex.Index, insert)
	case *ir.Unary:
		ex.X = c.replace(ex.X, insert)
	case *ir.Binary:
		ex.X = c.replace(ex.X, insert)
		ex.Y = c.replace(ex.Y, insert)
	case *ir.CallExpr:
		for i, a := range ex.Args {
			ex.Args[i] = c.replace(a, insert)
		}
	case *ir.Select:
		ex.Cond = c.replace(ex.Cond, insert)
		ex.X = c.replace(ex.X, insert)
		ex.Y = c.replace(ex.Y, insert)
	}
	return e
}
