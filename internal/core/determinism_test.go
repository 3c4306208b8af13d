package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/apple-nfv/apple/internal/lp"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
)

// determinismProblem spreads random chains over sub-paths of an 8-switch
// line, which needs q columns for every NF type at most switches.
func determinismProblem(t *testing.T) *Problem {
	t.Helper()
	gen, err := policy.NewGenerator(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 8
	prob := &Problem{Topo: lineTopo(t, n), Avail: bigHosts(n)}
	for i := 0; i < 24; i++ {
		a := rng.Intn(n - 2)
		b := a + 2 + rng.Intn(n-a-2)
		p := make([]topology.NodeID, 0, b-a+1)
		for v := a; v <= b; v++ {
			p = append(p, topology.NodeID(v))
		}
		prob.Classes = append(prob.Classes, Class{
			ID: ClassID(i), Path: p, Chain: gen.Next(), RateMbps: 100 + float64(rng.Intn(1400)),
		})
	}
	return prob
}

// modelNames lists the model's column names and row names in emission
// order. lp.Model exposes no row accessor, so rows are read by reflection.
func modelNames(t *testing.T, m *lp.Model) (cols, rows []string) {
	t.Helper()
	for v := 0; v < m.NumVariables(); v++ {
		cols = append(cols, m.VariableName(lp.VarID(v)))
	}
	cons := reflect.ValueOf(m).Elem().FieldByName("cons")
	if !cons.IsValid() || cons.Len() != m.NumConstraints() {
		t.Fatal("lp.Model layout changed: no cons field")
	}
	for i := 0; i < cons.Len(); i++ {
		rows = append(rows, cons.Index(i).FieldByName("name").String())
	}
	return cols, rows
}

// TestModelBuildDeterministic: building the same problem twice must emit
// the same columns and rows in the same order, and solving it must take
// the same number of pivots — map iteration order must never reach the
// tableau layout.
func TestModelBuildDeterministic(t *testing.T) {
	prob := determinismProblem(t)
	var cols0, rows0 []string
	for k := 0; k < 5; k++ {
		md, err := buildModel(prob, nil, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 && len(md.qVar) < 20 {
			t.Fatalf("only %d q columns, want ≥ 20", len(md.qVar))
		}
		cols, rows := modelNames(t, md.m)
		if k == 0 {
			cols0, rows0 = cols, rows
			continue
		}
		if !slices.Equal(cols, cols0) {
			t.Fatalf("build %d: column order differs from build 0", k)
		}
		if !slices.Equal(rows, rows0) {
			t.Fatalf("build %d: row order differs from build 0", k)
		}
	}

	iters := -1
	for k := 0; k < 5; k++ {
		pl, err := NewEngine(EngineOptions{}).Solve(prob)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			iters = pl.Iterations
		} else if pl.Iterations != iters {
			t.Fatalf("solve %d took %d pivots, solve 0 took %d", k, pl.Iterations, iters)
		}
	}
}
