package sim

import (
	"fmt"

	"peak/internal/ir"
)

// Array is a named simulated memory region. Base is its simulated byte
// address (elements are 8 bytes), used by the cache model.
type Array struct {
	Name string
	Base uint64
	Data []float64
}

// Memory holds all named arrays of a program instance.
type Memory struct {
	arrays map[string]*Array
	next   uint64
	// gen counts Alloc calls; execution plans that resolved array pointers
	// re-resolve them when it moves (see vplan.sync).
	gen uint64
}

// NewMemory lays out the program's declared arrays in a fresh address space.
func NewMemory(p *ir.Program) *Memory {
	m := &Memory{arrays: make(map[string]*Array), next: 0x1000}
	for _, a := range p.Arrays {
		m.Alloc(a.Name, a.Len)
	}
	if len(p.Scalars) > 0 {
		m.Alloc("$g", len(p.Scalars))
	}
	return m
}

// Alloc creates (or replaces) a named array of n elements, zero-filled,
// at a fresh simulated address, and returns it.
func (m *Memory) Alloc(name string, n int) *Array {
	a := &Array{Name: name, Base: m.next, Data: make([]float64, n)}
	// Pad between arrays to a cache-line-ish boundary plus a skew so that
	// distinct arrays do not systematically collide in direct-mapped sets.
	m.next += uint64(n)*8 + 256 + uint64(len(m.arrays)+1)*64
	m.arrays[name] = a
	m.gen++
	return a
}

// Get returns the named array, or nil.
func (m *Memory) Get(name string) *Array { return m.arrays[name] }

func (m *Memory) array(name string) (*Array, error) {
	if a := m.arrays[name]; a != nil {
		return a, nil
	}
	return nil, fmt.Errorf("%w: unknown array %q", ErrRuntime, name)
}

// Names returns all array names (unordered).
func (m *Memory) Names() []string {
	out := make([]string, 0, len(m.arrays))
	for n := range m.arrays {
		out = append(out, n)
	}
	return out
}

// Snapshot copies the contents of the named arrays. It is the substrate for
// RBR's "save the Modified_Input(TS)" step; the rating engine charges
// save/restore cycles proportional to the elements copied.
func (m *Memory) Snapshot(names []string) map[string][]float64 {
	snap := make(map[string][]float64, len(names))
	for _, n := range names {
		if a := m.arrays[n]; a != nil {
			cp := make([]float64, len(a.Data))
			copy(cp, a.Data)
			snap[n] = cp
		}
	}
	return snap
}

// Restore writes a snapshot back into memory.
func (m *Memory) Restore(snap map[string][]float64) {
	for n, data := range snap {
		if a := m.arrays[n]; a != nil {
			copy(a.Data, data)
		}
	}
}

// WriteRec is one entry of the runner's write log: the value that lived at
// Arr[Idx] before a store overwrote it.
type WriteRec struct {
	Arr string
	Idx int64
	Old float64
}

// UndoWrites restores the overwritten values of a write log, newest first
// (so repeated writes to one cell end at the original value).
func (m *Memory) UndoWrites(log []WriteRec) {
	for i := len(log) - 1; i >= 0; i-- {
		rec := log[i]
		if a := m.arrays[rec.Arr]; a != nil && rec.Idx >= 0 && rec.Idx < int64(len(a.Data)) {
			a.Data[rec.Idx] = rec.Old
		}
	}
}
