package lp

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"
)

// updatePivots rewrites testdata/pivot_golden.json from the current solver
// instead of comparing against it:
//
//	go test ./internal/lp -run TestPivotGolden -update
var updatePivots = flag.Bool("update", false, "rewrite testdata/pivot_golden.json")

const pivotGoldenPath = "testdata/pivot_golden.json"

// scriptLP is a random bounded LP plus a script of bound changes, each
// followed by a warm re-solve. Coefficients and bounds are drawn from
// continuous distributions, so any change to the order of the solver's
// floating-point operations shows up in the bits of the answer.
type scriptLP struct {
	lo, hi, obj []float64
	cons        []scriptCon
	steps       []BoundChange
}

type scriptCon struct {
	sense Sense
	rhs   float64
	terms []Term
}

// genScriptLP draws a model with up to maxRows rows over up to maxCols
// columns. Rows are sparse except for about one in ten, which touches
// half the columns; right-hand sides are set around a point inside the
// bounds so most models are feasible, and GE and EQ rows away from the
// origin make phase 1 run. Each bound change pins, tightens, lifts or
// relaxes one variable, the moves the placement engine makes between
// snapshots.
func genScriptLP(rng *rand.Rand, maxRows, maxCols, steps int) scriptLP {
	nv := 2 + rng.Intn(maxCols-1)
	r := scriptLP{
		lo:  make([]float64, nv),
		hi:  make([]float64, nv),
		obj: make([]float64, nv),
	}
	x0 := make([]float64, nv)
	for j := 0; j < nv; j++ {
		r.lo[j] = 0
		if rng.Intn(4) == 0 {
			r.lo[j] = rng.Float64()
		}
		r.hi[j] = r.lo[j] + 0.5 + 4*rng.Float64()
		if rng.Intn(8) == 0 {
			r.hi[j] = math.Inf(1)
		}
		r.obj[j] = rng.NormFloat64()
		if math.IsInf(r.hi[j], 1) && r.obj[j] < 0 {
			r.obj[j] = -r.obj[j] // keep the model bounded
		}
		span := 4.0
		if !math.IsInf(r.hi[j], 1) {
			span = r.hi[j] - r.lo[j]
		}
		x0[j] = r.lo[j] + span*rng.Float64()
	}
	nc := 1 + rng.Intn(maxRows)
	for i := 0; i < nc; i++ {
		k := 1 + rng.Intn(6)
		if rng.Intn(10) == 0 {
			k = nv / 2
		}
		k = min(max(k, 1), nv)
		var c scriptCon
		lhs := 0.0
		for _, j := range rng.Perm(nv)[:k] {
			coef := 1.0
			switch rng.Intn(3) {
			case 0:
				coef = -1
			case 1:
				coef = math.Round(rng.NormFloat64()*300) / 100
			}
			if coef == 0 {
				continue
			}
			c.terms = append(c.terms, Term{Var: VarID(j), Coef: coef})
			lhs += coef * x0[j]
		}
		if len(c.terms) == 0 {
			continue
		}
		c.sense = Sense(1 + rng.Intn(3))
		switch c.sense {
		case LE:
			c.rhs = lhs + rng.Float64()
		case GE:
			c.rhs = lhs - rng.Float64()
		case EQ:
			c.rhs = lhs
		}
		r.cons = append(r.cons, c)
	}
	for s := 0; s < steps; s++ {
		j := rng.Intn(nv)
		lo, hi := r.lo[j], r.hi[j]
		if math.IsInf(hi, 1) {
			hi = lo + 4
		}
		ch := BoundChange{Var: VarID(j), Lo: r.lo[j], Hi: r.hi[j]}
		switch rng.Intn(4) {
		case 0: // pin
			v := lo + (hi-lo)*rng.Float64()
			ch.Lo, ch.Hi = v, v
		case 1: // tighten the cap
			ch.Hi = lo + (hi-lo)*rng.Float64()
		case 2: // lift the floor
			ch.Lo = lo + (hi-lo)*rng.Float64()
		case 3: // relax
			ch.Lo = 0
			ch.Hi = math.Inf(1)
			if rng.Intn(2) == 0 {
				ch.Hi = hi + 2*rng.Float64()
			}
		}
		r.steps = append(r.steps, ch)
	}
	return r
}

// model materializes the LP; it fails only on a generator bug.
func (r scriptLP) model() (*Model, error) {
	m := NewModel("script")
	for j := range r.lo {
		if _, err := m.AddVariable(fmt.Sprintf("x%d", j), r.lo[j], r.hi[j], r.obj[j]); err != nil {
			return nil, err
		}
	}
	for i, c := range r.cons {
		if err := m.AddConstraint(fmt.Sprintf("c%d", i), c.sense, c.rhs, c.terms...); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// pivotRecord renders one solve as a golden line: status, pivots per
// phase, whether the warm start held, and an FNV-64 hash of the bits of
// every value and the objective.
func pivotRecord(model, step int, sol Solution) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		b := math.Float64bits(f)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, v := range sol.Values {
		put(v)
	}
	put(sol.Objective)
	return fmt.Sprintf("m%03d s%d %s p1=%d p2=%d d=%d warm=%t h=%016x",
		model, step, sol.Status, sol.Phase1Iterations, sol.Phase2Iterations,
		sol.DualIterations, sol.WarmStarted, h.Sum64())
}

// TestPivotGolden pins the simplex pivot path bit for bit on a seeded
// corpus of 200 random models: a cold solve, then five bound changes each
// followed by a warm ReSolve. Any change to pricing, tie-breaks, the ratio
// tests or the order of floating-point operations in a pivot moves a
// pivot count or a hash.
func TestPivotGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	var got []string
	for k := 0; k < 200; k++ {
		r := genScriptLP(rng, 60, 120, 5)
		m, err := r.model()
		if err != nil {
			t.Fatal(err)
		}
		s := NewSolver(m)
		sol, _ := s.Solve()
		got = append(got, pivotRecord(k, 0, sol))
		for i, ch := range r.steps {
			if err := s.SetBounds(ch.Var, ch.Lo, ch.Hi); err != nil {
				t.Fatal(err)
			}
			sol, _ = s.ReSolve()
			got = append(got, pivotRecord(k, i+1, sol))
		}
	}

	if *updatePivots {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pivotGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pivotGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d solves, want %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad < 10 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d solves differ", bad, len(want))
	}
}

// checkValues reports the first row or bound the solution breaks by more
// than 1e-6, scaled by the row's magnitude.
func (r scriptLP) checkValues(m *Model, sol Solution) error {
	for j, x := range sol.Values {
		lo, hi, err := m.Bounds(VarID(j))
		if err != nil {
			return err
		}
		if x < lo-1e-6 || x > hi+1e-6 {
			return fmt.Errorf("x%d = %v outside [%v, %v]", j, x, lo, hi)
		}
	}
	for i, c := range r.cons {
		lhs, scale := 0.0, 1.0
		for _, t := range c.terms {
			p := t.Coef * sol.Values[t.Var]
			lhs += p
			scale = math.Max(scale, math.Abs(p))
		}
		tol := 1e-6 * scale
		if (c.sense == LE && lhs > c.rhs+tol) || (c.sense == GE && lhs < c.rhs-tol) ||
			(c.sense == EQ && math.Abs(lhs-c.rhs) > tol) {
			return fmt.Errorf("row %d: %v %v %v violated", i, lhs, c.sense, c.rhs)
		}
	}
	return nil
}

// FuzzWarmResolve drives a random model through a script of bound
// changes. After each step the warm ReSolve must agree with a cold solve
// of the same model on status and (within 1e-6) objective, and its values
// must meet every row and bound.
func FuzzWarmResolve(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(20))
	f.Add(int64(7), uint8(60), uint8(120))
	f.Add(int64(20261018), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint8) {
		rng := rand.New(rand.NewSource(seed))
		r := genScriptLP(rng, 1+int(rows)%60, 2+int(cols)%119, 5)
		m, err := r.model()
		if err != nil {
			t.Fatal(err)
		}
		s := NewSolver(m)
		sol, err := s.Solve()
		if err == nil {
			if err := r.checkValues(m, sol); err != nil {
				t.Fatalf("cold: %v", err)
			}
		}
		for k, ch := range r.steps {
			if err := s.SetBounds(ch.Var, ch.Lo, ch.Hi); err != nil {
				t.Fatal(err)
			}
			warm, _ := s.ReSolve()
			cold, _ := Solve(m)
			if warm.Status != cold.Status {
				t.Fatalf("step %d: warm %v, cold %v", k, warm.Status, cold.Status)
			}
			if warm.Status != StatusOptimal {
				continue
			}
			if d := math.Abs(warm.Objective - cold.Objective); d > 1e-6 {
				t.Fatalf("step %d: warm objective %v, cold %v", k, warm.Objective, cold.Objective)
			}
			if err := r.checkValues(m, warm); err != nil {
				t.Fatalf("step %d: %v", k, err)
			}
		}
	})
}
