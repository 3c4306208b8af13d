package lp

import (
	"math"
	"testing"
)

func TestHasBasisLifecycle(t *testing.T) {
	m := NewModel("basis")
	x := addVar(t, m, "x", 0, math.Inf(1), 1)
	addCon(t, m, "c", GE, 2, Term{x, 1})
	s := NewSolver(m)
	if s.HasBasis() {
		t.Fatal("fresh solver should have no basis")
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if !s.HasBasis() {
		t.Fatal("solver should hold a basis after a successful Solve")
	}
}

func TestApplyBounds(t *testing.T) {
	// min x+y s.t. x+y ≥ 3. Pinning x to [2,2] must push the optimum to
	// x=2, y=1 on the warm path.
	m := NewModel("apply")
	x := addVar(t, m, "x", 0, math.Inf(1), 1)
	y := addVar(t, m, "y", 0, math.Inf(1), 1.001)
	addCon(t, m, "c", GE, 3, Term{x, 1}, Term{y, 1})
	s := NewSolver(m)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBounds([]BoundChange{{Var: x, Lo: 2, Hi: 2}}); err != nil {
		t.Fatal(err)
	}
	sol, err := s.ReSolve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Values[x], 2) || !almost(sol.Values[y], 1) {
		t.Fatalf("got x=%v y=%v, want x=2 y=1", sol.Values[x], sol.Values[y])
	}

	// An invalid change aborts the batch with an error.
	if err := s.ApplyBounds([]BoundChange{{Var: VarID(99), Lo: 0, Hi: 1}}); err == nil {
		t.Fatal("out-of-range variable should fail")
	}
}

func TestRestingAtUpper(t *testing.T) {
	// min -x (i.e. max x) with x ≤ 5 as a variable bound: at the optimum
	// x is nonbasic at its upper bound.
	m := NewModel("upper")
	x := addVar(t, m, "x", 0, 5, -1)
	y := addVar(t, m, "y", 0, math.Inf(1), 1)
	addCon(t, m, "c", LE, 10, Term{x, 1}, Term{y, 1})
	s := NewSolver(m)
	if s.RestingAtUpper(x) {
		t.Fatal("no basis yet: RestingAtUpper must be false")
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Values[x], 5) {
		t.Fatalf("x = %v, want 5", sol.Values[x])
	}
	if !s.RestingAtUpper(x) {
		t.Fatal("x sits at its upper bound and should be reported as such")
	}
	if s.RestingAtUpper(y) {
		t.Fatal("y is at its lower bound, not its upper")
	}
	if s.RestingAtUpper(VarID(99)) || s.RestingAtUpper(VarID(-1)) {
		t.Fatal("out-of-range vars must report false, not panic")
	}
}

// TestRestingAtUpperIgnoresSlacks: a VarID past the model's variables
// must read false even though the tableau has a column there. In
// min -y s.t. x - y = 0 the equality's slack (fixed at [0,0]) leaves the
// basis at its upper bound when y enters, so the column right after the
// structural ones rests at upper.
func TestRestingAtUpperIgnoresSlacks(t *testing.T) {
	m := NewModel("slack")
	x := addVar(t, m, "x", 0, 5, 0)
	y := addVar(t, m, "y", 0, 3, -1)
	addCon(t, m, "eq", EQ, 0, Term{x, 1}, Term{y, -1})
	s := NewSolver(m)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if !s.t.atUpper[2] || s.t.inBasis[2] {
		t.Fatal("setup: the equality's slack should rest at its upper bound")
	}
	if s.RestingAtUpper(VarID(2)) {
		t.Fatal("VarID 2 is not a model variable: RestingAtUpper must be false")
	}
}

// TestKeptUpperBoundWarmStart is the engine's cross-snapshot pattern:
// a binding upper bound kept in place across a rate change must not
// break the warm start, and the warm objective must match a cold solve.
func TestKeptUpperBoundWarmStart(t *testing.T) {
	m := NewModel("kept")
	x := addVar(t, m, "x", 0, 4, -2) // binding cap at optimum
	y := addVar(t, m, "y", 0, math.Inf(1), -1)
	addCon(t, m, "c", LE, 10, Term{x, 1}, Term{y, 1})
	s := NewSolver(m)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if !s.RestingAtUpper(x) {
		t.Fatal("cap on x should bind")
	}
	// Tighten the shared constraint via y's bounds, keep x's cap.
	if err := s.ApplyBounds([]BoundChange{{Var: y, Lo: 0, Hi: 3}}); err != nil {
		t.Fatal(err)
	}
	warm, err := s.ReSolve()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(warm.Objective, cold.Objective) {
		t.Fatalf("warm objective %v != cold %v", warm.Objective, cold.Objective)
	}
	if !warm.WarmStarted {
		t.Fatal("bound-only change should warm-start")
	}
}
