package profiling

import (
	"errors"
	"sort"

	"peak/internal/analysis"
	"peak/internal/store"
	"peak/internal/vcache"
)

// MemoKind is the store memo kind of profile runs. A profile is a pure
// function of (benchmark, dataset, machine), so its key is
// "<bench>/<dataset>/<machine>", the same key a server's in-process
// profile table uses.
var MemoKind store.Kind[Profile] = "profile"

// The profile encoding is built from the vcache encoder primitives and
// holds every field, static analysis included: the context set and memory
// effects take a few hundred bytes, while rebuilding them means lowering
// the tuning section again, and ModifiedInputElems would need the
// dataset's setup run. The one large part is MESA's context table (one
// context per invocation), so contexts are written in key order with
// each key front-coded against the previous one and the numbers as
// varints. Maps are written in key order and every count is bounded by
// the bytes left, so decoding arbitrary bytes never panics or
// over-allocates, and any input the decoder accepts re-encodes to exactly
// the same bytes.

var errProfileCodec = errors.New("profiling: malformed profile encoding")

// MarshalBinary encodes p (encoding.BinaryMarshaler).
func (p *Profile) MarshalBinary() ([]byte, error) {
	var e vcache.Encoder
	e.Str(p.Benchmark)
	e.Str(p.Machine)
	e.Str(p.Dataset)
	e.Int(p.Invocations)
	e.U64(uint64(p.TotalTSCycles))
	e.F64(p.MeanCycles)
	e.F64(p.CoeffVar)

	e.Bool(p.ContextSet != nil)
	if cs := p.ContextSet; cs != nil {
		e.Bool(cs.Applicable)
		encodeVars(&e, cs.Vars)
		e.Int(len(cs.NeedConstArrays))
		for _, a := range cs.NeedConstArrays {
			e.Str(a)
		}
		e.Str(cs.Reason)
	}
	e.Bool(p.ContextArraysConst)
	encodeVars(&e, p.Vars)

	keys := make([]string, 0, len(p.Contexts))
	for k := range p.Contexts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Int(len(keys))
	prev := ""
	for _, k := range keys {
		n := 0
		for n < len(prev) && n < len(k) && prev[n] == k[n] {
			n++
		}
		e.Uvarint(uint64(n))
		e.VarStr(k[n:])
		st := p.Contexts[k]
		e.Uvarint(uint64(st.Count))
		e.Uvarint(uint64(st.TotalCycles))
		prev = k
	}
	e.Str(p.DominantContext)

	e.Bool(p.Model != nil)
	if m := p.Model; m != nil {
		e.Int(len(m.Components))
		for _, c := range m.Components {
			e.Int(c.Rep)
			e.Int(len(c.Members))
			for _, am := range c.Members {
				e.Int(am.Counter)
				e.F64(am.Alpha)
				e.F64(am.Beta)
			}
			e.Bool(c.Constant)
			e.F64(c.AvgCount)
		}
		ids := make([]int, 0, len(m.KeepCounters))
		for id := range m.KeepCounters {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		e.Int(len(ids))
		for _, id := range ids {
			e.Int(id)
			e.Bool(m.KeepCounters[id])
		}
	}
	e.F64(p.ModelVar)
	e.Int(len(p.CAvg))
	for _, v := range p.CAvg {
		e.F64(v)
	}

	e.Bool(p.Effects != nil)
	if fx := p.Effects; fx != nil {
		encodeSet(&e, fx.Reads)
		encodeSet(&e, fx.Writes)
		e.Bool(fx.CallsUnknown)
	}
	e.Int(p.ModifiedInputElems)
	return e.Buf, nil
}

func encodeVars(e *vcache.Encoder, vars []analysis.ContextVar) {
	e.Int(len(vars))
	for _, v := range vars {
		e.Int(int(v.Kind))
		e.Str(v.Name)
		e.U64(uint64(v.Index))
	}
}

// encodeSet writes a string-keyed set in key order.
func encodeSet(e *vcache.Encoder, set map[string]bool) {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Int(len(keys))
	for _, k := range keys {
		e.Str(k)
		e.Bool(set[k])
	}
}

// UnmarshalBinary replaces *p with the profile MarshalBinary encoded in
// data (encoding.BinaryUnmarshaler). Empty slices decode as nil and maps
// as non-nil, as Run builds them.
func (p *Profile) UnmarshalBinary(data []byte) error {
	d := vcache.NewDecoder(data)
	q := Profile{Benchmark: d.Str(), Machine: d.Str(), Dataset: d.Str(),
		Invocations: d.Int(), TotalTSCycles: int64(d.U64()),
		MeanCycles: d.F64(), CoeffVar: d.F64()}

	if d.Bool() {
		cs := &analysis.ContextSet{Applicable: d.Bool(), Vars: decodeVars(d)}
		for n := d.Count(8); n > 0; n-- {
			cs.NeedConstArrays = append(cs.NeedConstArrays, d.Str())
		}
		cs.Reason = d.Str()
		q.ContextSet = cs
	}
	q.ContextArraysConst = d.Bool()
	q.Vars = decodeVars(d)

	// Each context takes at least four bytes: prefix, suffix length,
	// count and cycles.
	n := d.Count(4)
	q.Contexts = make(map[string]*ContextStat, n)
	stats := make([]ContextStat, n)
	prev := ""
	for i := 0; i < n; i++ {
		shared := d.Uvarint()
		if shared > uint64(len(prev)) {
			d.Fail()
			break
		}
		k := prev[:shared] + string(d.VarStr())
		// Keys strictly increase, and the shared prefix is the longest
		// one, so the encoder would write exactly these bytes.
		if i > 0 && (k <= prev || int(shared) < len(prev) && k[shared] == prev[shared]) {
			d.Fail()
			break
		}
		stats[i] = ContextStat{Key: k, Count: int(d.Uvarint()), TotalCycles: int64(d.Uvarint())}
		q.Contexts[k] = &stats[i]
		prev = k
	}
	q.DominantContext = d.Str()

	if d.Bool() {
		m := &analysis.ComponentModel{KeepCounters: map[int]bool{}}
		for n := d.Count(8 + 8 + 1 + 8); n > 0; n-- {
			c := analysis.Component{Rep: d.Int()}
			for k := d.Count(3 * 8); k > 0; k-- {
				c.Members = append(c.Members, analysis.AffineMember{Counter: d.Int(), Alpha: d.F64(), Beta: d.F64()})
			}
			c.Constant = d.Bool()
			c.AvgCount = d.F64()
			m.Components = append(m.Components, c)
		}
		for i, n, prev := 0, d.Count(8+1), 0; i < n; i++ {
			id := d.Int()
			if i > 0 && id <= prev {
				d.Fail()
			}
			m.KeepCounters[id] = d.Bool()
			prev = id
		}
		q.Model = m
	}
	q.ModelVar = d.F64()
	for n := d.Count(8); n > 0; n-- {
		q.CAvg = append(q.CAvg, d.F64())
	}

	if d.Bool() {
		q.Effects = &analysis.MemEffects{Reads: decodeSet(d), Writes: decodeSet(d), CallsUnknown: d.Bool()}
	}
	q.ModifiedInputElems = d.Int()
	if d.End() != nil {
		return errProfileCodec
	}
	*p = q
	return nil
}

func decodeVars(d *vcache.Decoder) []analysis.ContextVar {
	var vars []analysis.ContextVar
	for n := d.Count(8 + 8 + 8); n > 0; n-- {
		vars = append(vars, analysis.ContextVar{Kind: analysis.ContextVarKind(d.Int()), Name: d.Str(), Index: int64(d.U64())})
	}
	return vars
}

// decodeSet reads a set encodeSet wrote, whose keys strictly increase.
func decodeSet(d *vcache.Decoder) map[string]bool {
	n := d.Count(8 + 1)
	set := make(map[string]bool, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := d.Str()
		if i > 0 && k <= prev {
			d.Fail()
		}
		set[k] = d.Bool()
		prev = k
	}
	return set
}
