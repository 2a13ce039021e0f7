package analysis

import (
	"fmt"
	"math"
	"sort"
)

// Component is one term of the MBR execution-time model
// T_TS = Σ T_i · C_i (paper Eq. 2): a set of counters whose per-invocation
// values are affinely related, represented by one of them.
type Component struct {
	// Rep is the representative counter ID whose per-invocation value is
	// used as C_i during tuning.
	Rep int
	// Members are all counter IDs merged into this component, with the
	// affine coefficients relating them to the representative:
	// member = Alpha·rep + Beta.
	Members []AffineMember
	// Constant marks the constant component (C_i identical in every
	// invocation; paper assumes one such component with C_n = 1).
	Constant bool
	// AvgCount is the average per-invocation count over the profile run
	// (C_avg in paper Eq. 4).
	AvgCount float64
}

// AffineMember records counter = Alpha·rep + Beta.
type AffineMember struct {
	Counter     int
	Alpha, Beta float64
}

// ComponentModel is the outcome of component merging for one tuning section.
type ComponentModel struct {
	Components []Component
	// KeepCounters is the set of representative counter IDs whose
	// instrumentation must remain in the code during tuning; all other
	// counters can be stripped (paper §2.3: "the unnecessary
	// instrumentation code for the merged blocks is removed").
	KeepCounters map[int]bool
}

// ConstantOnly reports whether the model consists solely of the constant
// component — every counter fired the same number of times in every
// invocation. The MBR estimate then degenerates to the invocation-time
// mean (the paper's "MBR is equivalent to CBR" single-context case, §5.2).
func (m *ComponentModel) ConstantOnly() bool {
	return len(m.Components) == 1 && m.Components[0].Constant
}

const affineTol = 1e-9

// MergeComponents analyzes a profile matrix counts[invocation][counterID]
// and merges counters into components: counters constant across all
// invocations form the constant component; counters affinely dependent on
// each other (C_a = α·C_b + β for every invocation) merge into one
// component (paper §2.3).
func MergeComponents(counts [][]float64) (*ComponentModel, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("components: empty profile")
	}
	nc := len(counts[0])
	for _, row := range counts {
		if len(row) != nc {
			return nil, fmt.Errorf("components: ragged profile matrix")
		}
	}
	ninv := len(counts)

	col := func(j int) []float64 {
		v := make([]float64, ninv)
		for i := range counts {
			v[i] = counts[i][j]
		}
		return v
	}

	model := &ComponentModel{KeepCounters: map[int]bool{}}
	assigned := make([]bool, nc)

	// Constant component: every counter with identical value across
	// invocations. Counter 0 (entry) is constant by construction.
	constComp := Component{Rep: -1, Constant: true, AvgCount: 1}
	for j := 0; j < nc; j++ {
		v := col(j)
		if isConstant(v) {
			assigned[j] = true
			if constComp.Rep < 0 {
				constComp.Rep = j
			}
			constComp.Members = append(constComp.Members, AffineMember{Counter: j, Alpha: 0, Beta: v[0]})
		}
	}

	// Affine grouping of the rest.
	for j := 0; j < nc; j++ {
		if assigned[j] {
			continue
		}
		assigned[j] = true
		rep := col(j)
		comp := Component{
			Rep:      j,
			Members:  []AffineMember{{Counter: j, Alpha: 1, Beta: 0}},
			AvgCount: mean(rep),
		}
		for k := j + 1; k < nc; k++ {
			if assigned[k] {
				continue
			}
			if alpha, beta, ok := affineFit(rep, col(k)); ok {
				assigned[k] = true
				comp.Members = append(comp.Members, AffineMember{Counter: k, Alpha: alpha, Beta: beta})
			}
		}
		model.Components = append(model.Components, comp)
		model.KeepCounters[j] = true
	}

	// The constant component goes last (paper: "there is always a constant
	// component T_n with C_n = 1").
	if constComp.Rep >= 0 {
		model.Components = append(model.Components, constComp)
		model.KeepCounters[constComp.Rep] = true
	}

	sort.Slice(model.Components, func(a, b int) bool {
		ca, cb := model.Components[a], model.Components[b]
		if ca.Constant != cb.Constant {
			return !ca.Constant // constant last
		}
		return ca.Rep < cb.Rep
	})
	return model, nil
}

// CountsFor converts one invocation's raw counter vector into the model's
// component-count vector (C column of paper Eq. 3). The constant component
// contributes 1.
func (m *ComponentModel) CountsFor(counters []int64) []float64 {
	out := make([]float64, len(m.Components))
	for i, c := range m.Components {
		if c.Constant {
			out[i] = 1
			continue
		}
		if c.Rep >= 0 && c.Rep < len(counters) {
			out[i] = float64(counters[c.Rep])
		}
	}
	return out
}

func isConstant(v []float64) bool {
	for _, x := range v[1:] {
		if math.Abs(x-v[0]) > affineTol {
			return false
		}
	}
	return true
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// affineFit checks whether y = α·x + β exactly (within tolerance) for all
// samples, with x non-constant. It derives α, β from two samples with
// distinct x and verifies the rest (paper §2.3's linear dependence test).
func affineFit(x, y []float64) (alpha, beta float64, ok bool) {
	i0 := 0
	i1 := -1
	for i := 1; i < len(x); i++ {
		if math.Abs(x[i]-x[i0]) > affineTol {
			i1 = i
			break
		}
	}
	if i1 < 0 {
		return 0, 0, false // x constant; handled by constant component
	}
	alpha = (y[i1] - y[i0]) / (x[i1] - x[i0])
	beta = y[i0] - alpha*x[i0]
	for i := range x {
		want := alpha*x[i] + beta
		tol := affineTol * math.Max(1, math.Abs(want))
		if math.Abs(y[i]-want) > tol {
			return 0, 0, false
		}
	}
	return alpha, beta, true
}
