package vcache

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"sort"

	"peak/internal/ir"
	"peak/internal/sim"
)

// The canonical encoding of a compiled version is the one description of
// its content: Fingerprint128 is the FNV-1a-128 hash of it, the persistent
// store (internal/store) writes it as the version's body record, and the
// cache's byte figure is its length. It carries everything that determines
// execution — the LIR instruction stream and block layout, terminators,
// parameter binding, spill set, cost modifiers, code footprint and origin
// mapping — and names each callee by name and fingerprint, so a body is
// encoded shallowly and each distinct body is stored once however many
// call graphs share it. Fields only the compiler reads (the Label, the
// float-register map, loop depths, spill and pressure counts) are left
// out: two flag sets that generate identical code get identical bytes,
// which is what content dedup keys on.
//
// The encoding is byte-deterministic: integers are 8 bytes and floats
// their IEEE bit patterns, little-endian, bools one byte, strings and
// slices length-prefixed, callees in name order.

// Encoder appends the canonical encoding's primitives to Buf.
type Encoder struct{ Buf []byte }

// U64 appends v as 8 little-endian bytes.
func (e *Encoder) U64(v uint64) { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v) }

// Bool appends v as one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.Buf = append(e.Buf, b)
}

// Str appends s with its length.
func (e *Encoder) Str(s string) {
	e.Int(len(s))
	e.Buf = append(e.Buf, s...)
}

// FP appends f, high half first.
func (e *Encoder) FP(f FP128) {
	e.U64(f.Hi)
	e.U64(f.Lo)
}

// Int appends v as 8 little-endian bytes.
func (e *Encoder) Int(v int) { e.U64(uint64(v)) }

// F64 appends v's IEEE bit pattern as 8 little-endian bytes.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Uvarint appends v in the shortest unsigned varint form
// (encoding/binary), for payloads dominated by small numbers.
func (e *Encoder) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// VarStr appends s with its length as a varint.
func (e *Encoder) VarStr(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// CalleeRef is a body's reference to one callee: its key in the caller's
// Callees map and the fingerprint of its own body.
type CalleeRef struct {
	Name string
	FP   FP128
}

// Version appends v's canonical encoding. Each callee is fingerprinted,
// and so encoded, on the way.
func (e *Encoder) Version(v *sim.Version) {
	refs := make([]CalleeRef, 0, len(v.Callees))
	for name, c := range v.Callees {
		refs = append(refs, CalleeRef{Name: name, FP: Fingerprint128(c)})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Name < refs[j].Name })
	e.body(v, refs)
}

// body appends v's encoding with refs, in name order, as its callees.
func (e *Encoder) body(v *sim.Version, refs []CalleeRef) {
	lf := v.LF
	e.Str(lf.Name)
	e.Int(lf.NumRegs)
	e.Int(lf.NumCounters)
	e.Int(len(lf.Params))
	for i, p := range lf.Params {
		e.Str(p.Name)
		e.Int(int(p.Typ))
		e.Bool(p.IsArray)
		e.Int(int(lf.ParamRegs[i]))
	}
	e.Int(len(lf.Blocks))
	for _, b := range lf.Blocks {
		e.Int(b.ID)
		e.Int(b.Origin)
		e.Int(int(b.Term.Kind))
		e.Int(int(b.Term.Cond))
		e.Int(b.Term.Then)
		e.Int(b.Term.Else)
		e.Int(int(b.Term.Val))
		e.Int(b.Term.Likely)
		e.Int(len(b.Instrs))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			e.Int(int(in.Op))
			e.Int(int(in.Dst))
			e.Int(int(in.A))
			e.Int(int(in.B))
			e.Int(int(in.Src))
			e.U64(uint64(in.Imm))
			e.F64(in.FImm)
			e.Str(in.Arr)
			e.Str(in.Fn)
			e.Int(len(in.CallArgs))
			for _, r := range in.CallArgs {
				e.Int(int(r))
			}
		}
	}
	e.Int(len(v.Alloc.Spilled))
	for _, s := range v.Alloc.Spilled {
		e.Bool(s)
	}
	e.F64(v.Mods.TakenBranchFactor)
	e.F64(v.Mods.CallOverheadFactor)
	e.Int(v.Mods.CodeSizeExtra)
	e.Bool(v.Mods.StaticPredict)
	e.Int(v.CodeSize)
	e.Int(v.NumOrigins)
	e.Int(len(refs))
	for _, r := range refs {
		e.Str(r.Name)
		e.FP(r.FP)
	}
}

// Fingerprint128 returns the content fingerprint of a compiled version:
// the FNV-1a-128 hash of its canonical encoding, so equal fingerprints
// (collisions aside) are equal generated code.
func Fingerprint128(v *sim.Version) FP128 {
	var e Encoder
	e.Version(v)
	return sum128(e.Buf)
}

// FNV-1a-128's offset basis and prime, 2^88 + 0x13b, as hash/fnv defines
// them.
const (
	offset128Hi   = 0x6c62272e07bb0142
	offset128Lo   = 0x62b821756295c58d
	prime128Lo    = 0x13b
	prime128Shift = 88 - 64
)

// primePow[k] is the FNV-128 prime to the k-th power, mod 2^128.
var primePow = func() (pow [9][2]uint64) {
	pow[0] = [2]uint64{0, 1}
	for k := 1; k < len(pow); k++ {
		pow[k][0], pow[k][1] = mul128(pow[k-1][0], pow[k-1][1], 1<<prime128Shift, prime128Lo)
	}
	return pow
}()

// mul128 returns (aHi, aLo) × (bHi, bLo) mod 2^128.
func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(aLo, bLo)
	return hi + aLo*bHi + aHi*bLo, lo
}

// sum128 returns the FNV-1a-128 hash of b, the value hash/fnv's New128a
// gives, reading b a word of 8 bytes at a time. XOR with a zero byte
// changes nothing, so a run of k zero bytes only multiplies the state by
// the prime k times, which is one multiply by primePow[k]: the zero bytes
// at either end of a word (most of an encoding's integers are small) take
// one multiply each, and only the bytes between them are hashed one by
// one.
func sum128(b []byte) FP128 {
	hi, lo := uint64(offset128Hi), uint64(offset128Lo)
	for ; len(b) >= 8; b = b[8:] {
		w := binary.LittleEndian.Uint64(b)
		if w == 0 {
			hi, lo = mul128(hi, lo, primePow[8][0], primePow[8][1])
			continue
		}
		low, high := bits.TrailingZeros64(w)/8, bits.LeadingZeros64(w)/8
		if low > 0 {
			hi, lo = mul128(hi, lo, primePow[low][0], primePow[low][1])
			w >>= 8 * low
		}
		for n := 8 - low - high; n > 0; n-- {
			hi, lo = fnvStep(hi, lo, w&0xff)
			w >>= 8
		}
		if high > 0 {
			hi, lo = mul128(hi, lo, primePow[high][0], primePow[high][1])
		}
	}
	for _, c := range b {
		hi, lo = fnvStep(hi, lo, uint64(c))
	}
	return FP128{Hi: hi, Lo: lo}
}

// fnvStep folds one byte c into the state: XOR, then multiply by the
// prime, whose low half is 0x13b and whose high half is a shift.
func fnvStep(hi, lo, c uint64) (uint64, uint64) {
	lo ^= c
	h, l := bits.Mul64(prime128Lo, lo)
	return h + lo<<prime128Shift + prime128Lo*hi, l
}

var errMalformed = errors.New("vcache: malformed encoding")

// Decoder reads the canonical encoding's primitives from a buffer. The
// first malformed or missing value fails the decoder: every later read
// returns a zero value and End reports the failure.
type Decoder struct {
	buf    []byte
	failed bool
}

// NewDecoder returns a decoder reading b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// End reports whether decoding failed or left bytes unread.
func (d *Decoder) End() error {
	if d.failed || len(d.buf) != 0 {
		return errMalformed
	}
	return nil
}

// Fail marks the input malformed, as a failed read does. Codecs built on
// the decoder call it to reject a value that is readable but not in the
// form their encoder writes.
func (d *Decoder) Fail() {
	d.failed = true
	d.buf = nil
}

// U64 reads 8 little-endian bytes.
func (d *Decoder) U64() uint64 {
	if len(d.buf) < 8 {
		d.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// Bool reads one byte, which must be 0 or 1.
func (d *Decoder) Bool() bool {
	if len(d.buf) < 1 || d.buf[0] > 1 {
		d.Fail()
		return false
	}
	v := d.buf[0] == 1
	d.buf = d.buf[1:]
	return v
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Bytes reads what Str reads, as a view of the input rather than a copy.
func (d *Decoder) Bytes() []byte {
	n := d.Count(1)
	v := d.buf[:n:n]
	d.buf = d.buf[n:]
	return v
}

// FP reads a fingerprint, high half first.
func (d *Decoder) FP() FP128 {
	hi := d.U64()
	return FP128{Hi: hi, Lo: d.U64()}
}

// Int reads 8 little-endian bytes as an int.
func (d *Decoder) Int() int { return int(d.U64()) }

// F64 reads an IEEE bit pattern, keeping every bit (NaN payloads too).
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Decoder) reg() ir.Reg { return ir.Reg(d.U64()) }

// Uvarint reads an unsigned varint, which must be in its shortest form so
// that every accepted value re-encodes to the bytes it was read from.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	short := 1
	for x := v; x >= 0x80; x >>= 7 {
		short++
	}
	if n <= 0 || n != short {
		d.Fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// VarStr reads what Encoder.VarStr wrote, as a view of the input rather
// than a copy, so a caller that only compares or concatenates the bytes
// allocates nothing for them.
func (d *Decoder) VarStr() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.buf)) {
		d.Fail()
		return nil
	}
	v := d.buf[:n:n]
	d.buf = d.buf[n:]
	return v
}

// Count reads a length and bounds it by the bytes left, given that each
// element takes at least elemSize of them, so a corrupt length cannot
// drive a giant allocation.
func (d *Decoder) Count(elemSize int) int {
	n := d.U64()
	if n > uint64(len(d.buf)/elemSize) {
		d.Fail()
		return 0
	}
	return int(n)
}

// maxBlockID is the largest block ID a decoded body may carry. Lowering
// numbers blocks from 0, and the largest ID the compiler emits over every
// workload and frozen flag set is 66 (TestCompiledBodiesDecode in
// internal/opt decodes each of those bodies). The bound caps the block
// index sim.Version builds, which has one entry per ID up to the largest.
const maxBlockID = 4095

// Version reads one version's canonical encoding and returns the version,
// its Callees left unset, its callee references in name order, and its
// fingerprint: the hash of exactly the bytes read. A body whose callee
// names are not strictly increasing is not canonical and fails the
// decoder, as does one the simulator could not index: a block ID that is
// negative, repeated or above maxBlockID, or a jump or branch to an ID no
// block has. Each slice is allocated once at the length its count gives
// (Count has bounded it by the bytes left); a count of 0 leaves it nil, as
// the compiler does.
func (d *Decoder) Version() (*sim.Version, []CalleeRef, FP128) {
	start := d.buf
	lf := &ir.LFunc{Name: d.Str(), NumRegs: d.Int(), NumCounters: d.Int()}
	if np := d.Count(8 + 8 + 1 + 8); np > 0 {
		lf.Params = make([]ir.Param, np)
		lf.ParamRegs = make([]ir.Reg, np)
		for i := range lf.Params {
			lf.Params[i] = ir.Param{Name: d.Str(), Typ: ir.Type(d.Int()), IsArray: d.Bool()}
			lf.ParamRegs[i] = d.reg()
		}
	}
	if nb := d.Count(9 * 8); nb > 0 {
		lf.Blocks = make([]*ir.Block, nb)
		blocks := make([]ir.Block, nb)
		for i := range blocks {
			b := &blocks[i]
			b.ID, b.Origin = d.Int(), d.Int()
			b.Term = ir.Terminator{Kind: ir.TermKind(d.Int()), Cond: d.reg(), Then: d.Int(),
				Else: d.Int(), Val: d.reg(), Likely: d.Int()}
			if ni := d.Count(10 * 8); ni > 0 {
				b.Instrs = make([]ir.Instr, ni)
				for j := range b.Instrs {
					in := &b.Instrs[j]
					*in = ir.Instr{Op: ir.Opcode(d.Int()), Dst: d.reg(), A: d.reg(), B: d.reg(), Src: d.reg(),
						Imm: int64(d.U64()), FImm: d.F64(), Arr: d.Str(), Fn: d.Str()}
					if na := d.Count(8); na > 0 {
						in.CallArgs = make([]ir.Reg, na)
						for k := range in.CallArgs {
							in.CallArgs[k] = d.reg()
						}
					}
				}
			}
			lf.Blocks[i] = b
		}
	}
	if !d.failed && !validBlocks(lf.Blocks) {
		d.Fail()
	}
	v := &sim.Version{LF: lf}
	if ns := d.Count(1); ns > 0 {
		v.Alloc.Spilled = make([]bool, ns)
		for i := range v.Alloc.Spilled {
			v.Alloc.Spilled[i] = d.Bool()
		}
	}
	v.Mods = sim.CostMods{TakenBranchFactor: d.F64(), CallOverheadFactor: d.F64(),
		CodeSizeExtra: d.Int(), StaticPredict: d.Bool()}
	v.CodeSize = d.Int()
	v.NumOrigins = d.Int()
	var refs []CalleeRef
	if nc := d.Count(8 + 16); nc > 0 {
		refs = make([]CalleeRef, nc)
		for i := range refs {
			refs[i] = CalleeRef{Name: d.Str(), FP: d.FP()}
			if i > 0 && refs[i].Name <= refs[i-1].Name {
				d.Fail()
			}
		}
	}
	if d.failed {
		return nil, nil, FP128{}
	}
	return v, refs, sum128(start[:len(start)-len(d.buf)])
}

// validBlocks reports whether blocks have distinct IDs in [0, maxBlockID]
// and every jump and branch targets one of them.
func validBlocks(blocks []*ir.Block) bool {
	maxID := -1
	for _, b := range blocks {
		if b.ID < 0 || b.ID > maxBlockID {
			return false
		}
		maxID = max(maxID, b.ID)
	}
	seen := make([]bool, maxID+1)
	for _, b := range blocks {
		if seen[b.ID] {
			return false
		}
		seen[b.ID] = true
	}
	names := func(id int) bool { return id >= 0 && id <= maxID && seen[id] }
	for _, b := range blocks {
		switch b.Term.Kind {
		case ir.TermJump:
			if !names(b.Term.Then) {
				return false
			}
		case ir.TermBranch:
			if !names(b.Term.Then) || !names(b.Term.Else) {
				return false
			}
		}
	}
	return true
}
