package sim

import (
	"testing"

	"peak/internal/ir"
)

func TestMemoryLayout(t *testing.T) {
	p := ir.NewProgram()
	p.AddArray("a", ir.F64, 10)
	p.AddArray("b", ir.I64, 20)
	p.AddScalar("g", ir.F64)
	m := NewMemory(p)

	a, b, g := m.Get("a"), m.Get("b"), m.Get("$g")
	if a == nil || b == nil || g == nil {
		t.Fatal("arrays not allocated")
	}
	if len(a.Data) != 10 || len(b.Data) != 20 || len(g.Data) != 1 {
		t.Errorf("lengths: %d/%d/%d", len(a.Data), len(b.Data), len(g.Data))
	}
	// Distinct, non-overlapping simulated addresses.
	if a.Base == b.Base || b.Base == g.Base {
		t.Error("arrays share base addresses")
	}
	if b.Base < a.Base+uint64(len(a.Data))*8 {
		t.Error("array address ranges overlap")
	}
	if m.Get("ghost") != nil {
		t.Error("ghost array found")
	}
	if len(m.Names()) != 3 {
		t.Errorf("names = %v", m.Names())
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := ir.NewProgram()
	p.AddArray("a", ir.F64, 4)
	p.AddArray("b", ir.F64, 4)
	m := NewMemory(p)
	for i := range m.Get("a").Data {
		m.Get("a").Data[i] = float64(i)
		m.Get("b").Data[i] = float64(10 + i)
	}
	snap := m.Snapshot([]string{"a"})
	if len(snap) != 1 || len(snap["a"]) != 4 {
		t.Errorf("snapshot = %v, want array a's 4 elements only", snap)
	}
	m.Get("a").Data[2] = 99
	m.Get("b").Data[2] = 99
	m.Restore(snap)
	if m.Get("a").Data[2] != 2 {
		t.Error("a not restored")
	}
	if m.Get("b").Data[2] != 99 {
		t.Error("b restored although not snapshotted")
	}
	// Snapshot of unknown names is silently empty (conservative callers
	// pass static sets that may include unused arrays).
	if got := m.Snapshot([]string{"nope"}); len(got) != 0 {
		t.Errorf("snapshot of unknown array: %v", got)
	}
}

func TestUndoWritesOrdering(t *testing.T) {
	p := ir.NewProgram()
	p.AddArray("a", ir.F64, 2)
	m := NewMemory(p)
	m.Get("a").Data[0] = 1
	// Two writes to the same cell: undo must land on the ORIGINAL value.
	log := []WriteRec{
		{Arr: "a", Idx: 0, Old: 1}, // first write observed old=1
		{Arr: "a", Idx: 0, Old: 5}, // second write observed old=5
	}
	m.Get("a").Data[0] = 7
	m.UndoWrites(log)
	if got := m.Get("a").Data[0]; got != 1 {
		t.Errorf("undo landed on %v, want the original 1", got)
	}
	// Undo tolerates stale entries.
	m.UndoWrites([]WriteRec{{Arr: "ghost", Idx: 0, Old: 0}, {Arr: "a", Idx: 99, Old: 0}})
}
