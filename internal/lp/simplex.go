package lp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

const (
	eps = 1e-9
	// dantzigLimit is the pivot count after which the solver switches from
	// Dantzig's rule to Bland's rule to guarantee termination.
	dantzigLimit = 20000
	// hardIterLimit aborts pathological instances.
	hardIterLimit = 200000
	// dualTol is the reduced-cost tolerance below which a saved basis still
	// counts as dual feasible for a warm re-solve.
	dualTol = 1e-7
	// dualIterFactor bounds warm re-solve dual pivots at factor·m before
	// the solver gives up and falls back to a cold solve.
	dualIterFactor = 4
	// minDualIters keeps the dual pivot budget useful on tiny models.
	minDualIters = 200
)

// Solve solves the LP relaxation of the model (integrality flags are
// ignored) with a bounded-variable two-phase primal simplex. Variable
// bounds lo ≤ x ≤ hi are handled natively in the ratio test (nonbasic
// variables may sit at either bound), so finite bounds never generate
// tableau rows. It returns ErrInfeasible, ErrUnbounded, or ErrIterLimit
// wrapped with context on failure; on success Solution.Status is
// StatusOptimal.
func Solve(m *Model) (Solution, error) {
	s := NewSolver(m)
	return s.Solve()
}

// Solver owns the simplex working state for one model and keeps it alive
// across solves, which is what makes warm re-solves after bound changes
// cheap: the tableau encodes only the constraint matrix (bounds never
// appear in it), so tightening or relaxing a bound invalidates nothing but
// primal feasibility — which the dual simplex repairs in a handful of
// pivots starting from the previous optimal basis.
type Solver struct {
	model *Model
	t     *tableau
}

// NewSolver wraps a model. The tableau is built lazily on the first Solve.
func NewSolver(m *Model) *Solver {
	return &Solver{model: m}
}

// Solve runs a cold two-phase solve, discarding any previous basis.
func (s *Solver) Solve() (Solution, error) {
	if len(s.model.vars) == 0 {
		return Solution{}, ErrEmptyModel
	}
	// Crossed bounds (possible via branch-and-bound tightening, which
	// bypasses SetBounds validation) make the model trivially infeasible;
	// the tableau would otherwise misread such a column as fixed.
	for _, v := range s.model.vars {
		if v.lo > v.hi {
			s.t = nil
			sol := Solution{Status: StatusInfeasible}
			return sol, solveErr(StatusInfeasible, s.model.name, 0)
		}
	}
	t, err := newTableau(s.model)
	if err != nil {
		return Solution{}, err
	}
	s.t = t
	//lint:ignore simclock wall time feeds Solution.Phase1Time, a measurement field that never influences pivots or results
	p1Start := time.Now()
	status, it1 := t.phase1()
	//lint:ignore simclock measurement only, see above
	p1Time := time.Since(p1Start)
	sol := Solution{
		Status:           status,
		Phase1Iterations: it1,
		Iterations:       it1,
		Phase1Time:       p1Time,
		Nodes:            1,
	}
	if status != StatusOptimal {
		// A failed tableau (mid-phase-1, artificials still basic) is not a
		// valid warm-start base; drop it so the next ReSolve goes cold.
		s.t = nil
		return sol, solveErr(status, s.model.name, it1)
	}
	//lint:ignore simclock wall time feeds Solution.Phase2Time, a measurement field that never influences pivots or results
	p2Start := time.Now()
	status, it2 := t.optimize(t.c, false)
	sol.Phase2Iterations = it2
	sol.Iterations += it2
	//lint:ignore simclock measurement only, see above
	sol.Phase2Time = time.Since(p2Start)
	sol.Status = status
	if status != StatusOptimal {
		s.t = nil
		return sol, solveErr(status, s.model.name, sol.Iterations)
	}
	s.finish(&sol)
	return sol, nil
}

// ReSolve re-optimizes after bound changes (Solver.SetBounds/SetUpper),
// warm-starting from the current basis with the dual simplex. The basis
// stays dual feasible under any bound change, so this usually converges in
// a few pivots. When the warm start is rejected (no prior basis, dual
// infeasibility from numerical drift, or a pivot budget blow-out) the
// solver transparently falls back to a cold Solve; Solution.WarmStarted
// reports which path produced the answer. A dual-simplex infeasibility
// verdict is confirmed with a cold solve before being reported, so
// callers never act on a spurious certificate.
func (s *Solver) ReSolve() (Solution, error) {
	if s.t == nil {
		return s.Solve()
	}
	t := s.t
	//lint:ignore simclock wall time feeds Solution.Phase2Time, a measurement field that never influences pivots or results
	start := time.Now()
	status, dIters, ok := t.dualSimplex(dualIterBudget(t.m))
	if !ok {
		// Warm start rejected: cold solve.
		return s.Solve()
	}
	if status == StatusInfeasible {
		// Confirm the certificate from scratch; a cold solve also leaves
		// the solver in a well-defined state for the caller's next bound
		// change.
		return s.Solve()
	}
	// Primal clean-up: the dual run restores primal feasibility, and any
	// eps-level dual infeasibility left behind is mopped up here (usually
	// zero pivots).
	status, it2 := t.optimize(t.c, false)
	sol := Solution{
		Status:           status,
		DualIterations:   dIters,
		Phase2Iterations: it2,
		Iterations:       dIters + it2,
		//lint:ignore simclock measurement only, see above
		Phase2Time:  time.Since(start),
		WarmStarted: true,
		Nodes:       1,
	}
	if status != StatusOptimal {
		s.t = nil
		return sol, solveErr(status, s.model.name, sol.Iterations)
	}
	s.finish(&sol)
	return sol, nil
}

// SetBounds updates the bounds of v in the model and, when a tableau is
// live, in the solver state — including the basic-value bookkeeping when a
// nonbasic variable's resting bound moves.
func (s *Solver) SetBounds(v VarID, lo, hi float64) error {
	if err := s.model.SetBounds(v, lo, hi); err != nil {
		return err
	}
	if s.t != nil {
		s.t.setVarBounds(int(v), lo, hi)
	}
	return nil
}

// SetUpper updates only the upper bound of v (the repair-loop cap path).
func (s *Solver) SetUpper(v VarID, hi float64) error {
	lo, _, err := s.model.Bounds(v)
	if err != nil {
		return err
	}
	return s.SetBounds(v, lo, hi)
}

// finish extracts values and the objective into an optimal solution.
func (s *Solver) finish(sol *Solution) {
	sol.Values = s.t.extract(s.model)
	sol.Objective = 0
	for i, v := range s.model.vars {
		sol.Objective += v.obj * sol.Values[i]
	}
}

// solveErr maps a terminal status to the package error.
func solveErr(status Status, name string, iters int) error {
	switch status {
	case StatusInfeasible:
		return fmt.Errorf("%w: %s", ErrInfeasible, name)
	case StatusUnbounded:
		return fmt.Errorf("%w: %s", ErrUnbounded, name)
	default:
		return fmt.Errorf("%w: %s after %d pivots", ErrIterLimit, name, iters)
	}
}

func dualIterBudget(m int) int {
	b := dualIterFactor * m
	if b < minDualIters {
		b = minDualIters
	}
	return b
}

// tableau is the bounded-variable simplex working state:
// minimize c·x subject to Ax + Σs = b, lo ≤ x ≤ hi, with one slack per row
// (bounds [0,∞) for inequalities, [0,0] for equalities) and artificial
// columns only for rows whose slack-basis start violates the slack bounds.
// The constraint matrix is maintained as B⁻¹A by Gauss-Jordan pivoting;
// basic-variable values xB are maintained incrementally and never stored
// in the matrix.
//
// B⁻¹A stays sparse on the placement LPs (about 2% nonzero at the optimum
// on AS-3679), so rows are stored sparsely: each row's nonzeros sorted by
// column. A row whose fill-in passes n/denseFrac entries switches to dense
// storage for good, because a sorted merge over a long row costs more
// than a dense sweep. The storage changes no arithmetic: every entry gets
// the operations a dense Gauss-Jordan tableau would apply to it, in the
// same order, with only those on zero entries skipped, and the ratio
// tests visit rows and columns in ascending order. Pivots and answers are
// therefore bit-identical whatever the storage of each row.
type tableau struct {
	m, n int // rows, structural+slack+artificial columns
	nv   int // structural columns
	nart int // artificial columns (always the trailing ones)

	// Row i is dense when dense[i] != nil (all n entries), otherwise sparse
	// with its nonzeros in idx[i]/val[i], ascending by column.
	idx       [][]int32
	val       [][]float64
	dense     [][]float64
	denseRows []int32   // indices of the dense rows, ascending
	slab      []float64 // unused tail of the block dense rows are cut from
	// cols[j] lists sparse rows that may hold a nonzero in column j: every
	// sparse row that does is listed, stale and repeated entries are
	// pruned when the column is gathered. Dense rows are never listed.
	cols [][]int32

	basis []int     // basic column per row
	xB    []float64 // value of the basic variable per row

	lo, hi  []float64 // per-column bounds
	atUpper []bool    // nonbasic column rests at hi (else at lo)

	c   []float64 // phase-2 costs
	art []float64 // phase-1 costs (1 on artificials)

	red     []float64 // maintained reduced-cost row
	inBasis []bool    // basic-column marks

	// Scratch. colRow/colVal hold the gathered column colOf (-1 when the
	// gather is stale); rowIdx/rowVal a dense row's nonzeros; mIdx/mVal
	// the output of a sparse row update.
	colOf        int
	colRow       []int32
	colVal       []float64
	rowIdx, mIdx []int32
	rowVal, mVal []float64
}

const (
	// denseFrac sets the dense-row rule: a row with more than n/denseFrac
	// nonzeros is stored densely.
	denseFrac = 16
	// denseBlock is the number of dense rows the slab grows by at a time.
	denseBlock = 32
)

// newTableau converts the model. Structural variables start nonbasic at
// their lower bound; each row's slack absorbs the residual when it can,
// otherwise the row gets an artificial and joins phase 1.
func newTableau(m *Model) (*tableau, error) {
	nv := len(m.vars)
	nrows := len(m.cons)

	// Residual of each row at the all-at-lower-bound starting point.
	resid := make([]float64, nrows)
	for i, con := range m.cons {
		r := con.rhs
		for _, t := range con.terms {
			r -= t.Coef * m.vars[t.Var].lo
		}
		resid[i] = r
	}
	// A row needs an artificial when its slack cannot hold the residual:
	// LE wants resid ≥ 0, GE wants resid ≤ 0, EQ wants resid = 0.
	needArt := make([]bool, nrows)
	nart := 0
	nnz := 0
	for i, con := range m.cons {
		switch con.sense {
		case LE:
			needArt[i] = resid[i] < -eps
		case GE:
			needArt[i] = resid[i] > eps
		case EQ:
			needArt[i] = math.Abs(resid[i]) > eps
		}
		if needArt[i] {
			nart++
		}
		nnz += len(con.terms) + 2
	}

	n := nv + nrows + nart
	t := &tableau{
		m:       nrows,
		n:       n,
		nv:      nv,
		nart:    nart,
		idx:     make([][]int32, nrows),
		val:     make([][]float64, nrows),
		dense:   make([][]float64, nrows),
		cols:    make([][]int32, n),
		basis:   make([]int, nrows),
		xB:      make([]float64, nrows),
		lo:      make([]float64, n),
		hi:      make([]float64, n),
		c:       make([]float64, n),
		art:     make([]float64, n),
		atUpper: make([]bool, n),
		inBasis: make([]bool, n),
		colOf:   -1,
	}
	for j, v := range m.vars {
		t.c[j] = v.obj
		t.lo[j] = v.lo
		t.hi[j] = v.hi
	}
	// Rows start in one block each for indices and values, with room to
	// double before the first fill-in needs a new buffer.
	idxBuf := make([]int32, 0, 2*nnz)
	valBuf := make([]float64, 0, 2*nnz)
	artCol := nv + nrows
	for i, con := range m.cons {
		// AddConstraint merged duplicate terms, so each column appears once.
		k := len(con.terms) + 2
		idx := idxBuf[len(idxBuf) : len(idxBuf) : len(idxBuf)+2*k]
		val := valBuf[len(valBuf) : len(valBuf) : len(valBuf)+2*k]
		idxBuf, valBuf = idxBuf[:len(idxBuf)+2*k], valBuf[:len(valBuf)+2*k]
		for _, term := range con.terms {
			idx = append(idx, int32(term.Var))
			val = append(val, term.Coef)
		}
		sortRow(idx, val)
		slack := nv + i
		sign := 1.0
		shi := math.Inf(1)
		switch con.sense {
		case GE:
			sign = -1
		case EQ:
			shi = 0
		}
		idx = append(idx, int32(slack))
		val = append(val, sign)
		t.lo[slack] = 0
		t.hi[slack] = shi
		if !needArt[i] {
			sval := sign * resid[i]
			if sval < 0 {
				sval = 0 // eps-level residual noise
			}
			t.basis[i] = slack
			t.xB[i] = sval
		} else {
			tau := 1.0
			if resid[i] < 0 {
				tau = -1
			}
			idx = append(idx, int32(artCol))
			val = append(val, tau)
			t.lo[artCol] = 0
			t.hi[artCol] = math.Inf(1)
			t.art[artCol] = 1
			t.basis[i] = artCol
			t.xB[i] = math.Abs(resid[i])
			artCol++
		}
		// Canonicalize: the tableau is maintained as B⁻¹A, so each row's
		// basic column must be a unit vector. GE slacks (coefficient −1) and
		// negative artificials need their rows scaled by −1.
		bj := int32(t.basis[i])
		t.inBasis[bj] = true
		if piv := val[len(val)-1]; piv != 1 {
			inv := 1 / piv
			for q := range val {
				val[q] *= inv
			}
			val[len(val)-1] = 1
		}
		if len(idx) > n/denseFrac {
			t.makeDense(i, idx, val)
		} else {
			t.idx[i], t.val[i] = idx, val
		}
	}
	// List every sparse row in its columns, with room for as much fill-in
	// again before a list needs a new buffer.
	count := make([]int, n)
	for _, idx := range t.idx {
		for _, j := range idx {
			count[j]++
		}
	}
	colBuf := make([]int32, 2*nnz)
	for j, k := range count {
		t.cols[j] = colBuf[: 0 : 2*k]
		colBuf = colBuf[2*k:]
	}
	for i, idx := range t.idx {
		for _, j := range idx {
			t.cols[j] = append(t.cols[j], int32(i))
		}
	}
	return t, nil
}

// sortRow sorts a row's entries by column.
func sortRow(idx []int32, val []float64) {
	sort.Sort(rowSorter{idx, val})
}

type rowSorter struct {
	idx []int32
	val []float64
}

func (r rowSorter) Len() int           { return len(r.idx) }
func (r rowSorter) Less(p, q int) bool { return r.idx[p] < r.idx[q] }
func (r rowSorter) Swap(p, q int) {
	r.idx[p], r.idx[q] = r.idx[q], r.idx[p]
	r.val[p], r.val[q] = r.val[q], r.val[p]
}

// makeDense moves row i, given as sorted nonzeros, to dense storage cut
// from the slab. The slab grows in blocks of at most denseBlock rows, and
// never more than the rows still sparse, so the memory dense rows take
// stays within one block of what they use.
func (t *tableau) makeDense(i int, idx []int32, val []float64) {
	if len(t.slab) < t.n {
		t.slab = make([]float64, min(denseBlock, t.m-len(t.denseRows))*t.n)
	}
	row := t.slab[:t.n:t.n]
	t.slab = t.slab[t.n:]
	for q, j := range idx {
		row[j] = val[q]
	}
	t.dense[i] = row
	t.idx[i], t.val[i] = nil, nil
	p, _ := slices.BinarySearch(t.denseRows, int32(i))
	t.denseRows = slices.Insert(t.denseRows, p, int32(i))
}

// row returns row i's nonzeros ascending by column. A sparse row returns
// its own storage; a dense row is gathered into scratch, valid until the
// next call.
func (t *tableau) row(i int) ([]int32, []float64) {
	d := t.dense[i]
	if d == nil {
		return t.idx[i], t.val[i]
	}
	ri, rv := t.rowIdx[:0], t.rowVal[:0]
	for j, v := range d {
		if v != 0 {
			ri = append(ri, int32(j))
			rv = append(rv, v)
		}
	}
	t.rowIdx, t.rowVal = ri, rv
	return ri, rv
}

// at returns entry (i, j).
func (t *tableau) at(i, j int) float64 {
	if d := t.dense[i]; d != nil {
		return d[j]
	}
	idx := t.idx[i]
	if q, ok := slices.BinarySearch(idx, int32(j)); ok {
		return t.val[i][q]
	}
	return 0
}

// column gathers the nonzeros of column j in ascending row order, the
// order every ratio test scans rows in. The result stays valid until the
// next pivot. Gathering prunes cols[j] to the sparse rows that still hold
// a nonzero there.
func (t *tableau) column(j int) ([]int32, []float64) {
	if t.colOf == j {
		return t.colRow, t.colVal
	}
	list := t.cols[j]
	slices.Sort(list)
	rows, vals := t.colRow[:0], t.colVal[:0]
	dr := t.denseRows
	w := 0
	prev := int32(-1)
	for _, i := range list {
		if i == prev || t.dense[i] != nil {
			continue
		}
		prev = i
		v := t.at(int(i), j)
		if v == 0 {
			continue
		}
		list[w] = i
		w++
		for len(dr) > 0 && dr[0] < i {
			if dv := t.dense[dr[0]][j]; dv != 0 {
				rows = append(rows, dr[0])
				vals = append(vals, dv)
			}
			dr = dr[1:]
		}
		rows = append(rows, i)
		vals = append(vals, v)
	}
	for _, i := range dr {
		if dv := t.dense[i][j]; dv != 0 {
			rows = append(rows, i)
			vals = append(vals, dv)
		}
	}
	t.cols[j] = list[:w]
	t.colRow, t.colVal, t.colOf = rows, vals, j
	return rows, vals
}

// realCols is the number of non-artificial columns.
func (t *tableau) realCols() int { return t.n - t.nart }

// value returns the resting value of a nonbasic column.
func (t *tableau) value(j int) float64 {
	if t.atUpper[j] {
		return t.hi[j]
	}
	return t.lo[j]
}

// phase1 drives the artificial objective to zero (when artificials exist),
// evicts leftover basic artificials and pins every artificial at zero so
// it can never re-enter.
func (t *tableau) phase1() (Status, int) {
	if t.nart == 0 {
		return StatusOptimal, 0
	}
	st, iters := t.optimize(t.art, true)
	if st == StatusUnbounded {
		// The phase-1 objective is bounded below by zero, so an unbounded
		// verdict can only be eps-level noise; treat it as a solver failure
		// rather than a statement about the model.
		return StatusIterLimit, iters
	}
	if st != StatusOptimal {
		return st, iters
	}
	infeas := 0.0
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.realCols() {
			infeas += t.xB[i]
		}
	}
	if infeas > 1e-6 {
		return StatusInfeasible, iters
	}
	t.evictArtificials()
	for k := t.realCols(); k < t.n; k++ {
		t.hi[k] = 0 // fixed: never re-enters pricing
	}
	return StatusOptimal, iters
}

// evictArtificials pivots basic artificial variables (at value ~0) out
// where a real column with a usable pivot exists. Rows that are all-zero
// over real columns are redundant; their artificial stays basic at 0.
func (t *tableau) evictArtificials() {
	real := t.realCols()
	for i := 0; i < t.m; i++ {
		if t.basis[i] < real {
			continue
		}
		idx, val := t.row(i)
		pivotCol := -1
		for q, j := range idx {
			if int(j) >= real {
				break
			}
			if math.Abs(val[q]) > eps {
				pivotCol = int(j)
				break
			}
		}
		if pivotCol >= 0 {
			t.replaceBasic(i, pivotCol, 0, false)
		}
	}
}

// refreshRed recomputes the reduced-cost row r_j = c_j − c_B·B⁻¹A_j from
// the current tableau for the given cost vector.
func (t *tableau) refreshRed(c []float64) {
	if t.red == nil {
		t.red = make([]float64, t.n)
	}
	copy(t.red, c)
	for i := 0; i < t.m; i++ {
		cb := c[t.basis[i]]
		if cb == 0 {
			continue
		}
		idx, val := t.row(i)
		for q, j := range idx {
			t.red[j] -= cb * val[q]
		}
	}
}

// optimize runs bounded-variable primal simplex pivots for the cost vector
// c. In phase 2 artificial columns are never priced in. A nonbasic column
// at its lower bound enters when its reduced cost is negative; one at its
// upper bound enters (moving down) when its reduced cost is positive. The
// ratio test limits the move by the first basic variable to hit either of
// its bounds, or by the entering variable's own opposite bound — the
// latter is a bound flip that changes no basis at all.
func (t *tableau) optimize(c []float64, phase1 bool) (Status, int) {
	cols := t.n
	if !phase1 {
		cols = t.realCols()
	}
	t.refreshRed(c)
	refreshed := false
	iters := 0
	for {
		if iters >= hardIterLimit {
			return StatusIterLimit, iters
		}
		useBland := iters >= dantzigLimit
		// Price from the maintained reduced-cost row.
		enter := -1
		dir := 1.0
		best := eps
		// The score test runs first: it rejects almost every column after
		// reading only red and atUpper, instead of five arrays. The
		// column set and the comparisons are unchanged.
		for j := 0; j < cols; j++ {
			score := -t.red[j] // improvement rate moving up from lo
			d := 1.0
			if t.atUpper[j] {
				score = t.red[j] // moving down from hi
				d = -1
			}
			if score > best && !t.inBasis[j] && t.hi[j]-t.lo[j] >= eps {
				enter, dir = j, d
				if useBland {
					break
				}
				best = score
			}
		}
		if enter < 0 {
			// The incremental row accumulates floating error across many
			// pivots; confirm optimality against freshly computed reduced
			// costs once before declaring victory.
			if !refreshed {
				t.refreshRed(c)
				refreshed = true
				continue
			}
			return StatusOptimal, iters
		}
		refreshed = false
		// Ratio test: smallest step over basic-variable bound hits and the
		// entering variable's own span.
		limit := t.hi[enter] - t.lo[enter] // may be +inf
		leave := -1
		leaveToUpper := false
		rows, vals := t.column(enter)
		for q, i := range rows {
			delta := dir * vals[q] // rate at which xB[i] decreases per unit step
			bi := t.basis[i]
			var ti float64
			var toUpper bool
			if delta > eps {
				ti = (t.xB[i] - t.lo[bi]) / delta
			} else if delta < -eps {
				hb := t.hi[bi]
				if math.IsInf(hb, 1) {
					continue
				}
				ti = (hb - t.xB[i]) / -delta
				toUpper = true
			} else {
				continue
			}
			if ti < 0 {
				ti = 0 // eps-level bound violation from drift
			}
			if ti < limit-eps || (ti < limit+eps && (leave < 0 || bi < t.basis[leave])) {
				limit = ti
				leave = int(i)
				leaveToUpper = toUpper
			}
		}
		if math.IsInf(limit, 1) {
			return StatusUnbounded, iters
		}
		if leave < 0 {
			t.boundFlip(enter, dir, limit)
			iters++
			continue
		}
		target := t.lo[t.basis[leave]]
		if leaveToUpper {
			target = t.hi[t.basis[leave]]
		}
		t.replaceBasic(leave, enter, target, leaveToUpper)
		iters++
	}
}

// dualSimplex restores primal feasibility after bound changes, preserving
// dual feasibility throughout — the warm-start workhorse. Returns ok=false
// when the warm start must be abandoned (dual-infeasible start or pivot
// budget exceeded); the caller falls back to a cold solve. A returned
// StatusInfeasible is a dual-unboundedness certificate: the violated row
// proves no setting of the nonbasic variables can bring the basic variable
// inside its bounds.
func (t *tableau) dualSimplex(maxIter int) (Status, int, bool) {
	real := t.realCols()
	t.refreshRed(t.c)
	for j := 0; j < real; j++ {
		if t.inBasis[j] || t.hi[j]-t.lo[j] < eps {
			continue
		}
		if t.atUpper[j] {
			if t.red[j] > dualTol {
				return StatusIterLimit, 0, false
			}
		} else if t.red[j] < -dualTol {
			return StatusIterLimit, 0, false
		}
	}
	iters := 0
	for {
		if iters >= maxIter {
			return StatusIterLimit, iters, false
		}
		// Leaving row: the most violated basic variable.
		r := -1
		below := false
		worst := 1e-9
		for i := 0; i < t.m; i++ {
			bi := t.basis[i]
			if v := t.lo[bi] - t.xB[i]; v > worst {
				worst, r, below = v, i, true
			}
			if hb := t.hi[bi]; !math.IsInf(hb, 1) {
				if v := t.xB[i] - hb; v > worst {
					worst, r, below = v, i, false
				}
			}
		}
		if r < 0 {
			return StatusOptimal, iters, true
		}
		// Entering column: the dual ratio test. For a basic variable below
		// its lower bound we need columns whose movement raises it; above
		// the upper bound, columns whose movement lowers it. Among the
		// eligible, the smallest |red/a| keeps every other reduced cost on
		// its feasible side after the pivot.
		idx, val := t.row(r)
		enter := -1
		bestRatio := math.Inf(1)
		for q, jj := range idx {
			j := int(jj)
			if j >= real {
				break
			}
			if t.inBasis[j] || t.hi[j]-t.lo[j] < eps {
				continue
			}
			arj := val[q]
			var eligible bool
			if below {
				eligible = (!t.atUpper[j] && arj < -eps) || (t.atUpper[j] && arj > eps)
			} else {
				eligible = (!t.atUpper[j] && arj > eps) || (t.atUpper[j] && arj < -eps)
			}
			if !eligible {
				continue
			}
			ratio := math.Abs(t.red[j] / arj)
			if ratio < bestRatio-1e-12 || (ratio < bestRatio+1e-12 && (enter < 0 || j < enter)) {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			return StatusInfeasible, iters, true
		}
		target := t.lo[t.basis[r]]
		if !below {
			target = t.hi[t.basis[r]]
		}
		t.replaceBasic(r, enter, target, !below)
		iters++
	}
}

// boundFlip moves nonbasic column j from one bound to the other (distance
// dist in direction dir) without any basis change, updating the basic
// values it shifts.
func (t *tableau) boundFlip(j int, dir, dist float64) {
	step := dir * dist
	rows, vals := t.column(j)
	for q, i := range rows {
		t.xB[i] -= step * vals[q]
	}
	t.atUpper[j] = !t.atUpper[j]
}

// replaceBasic pivots column j into the basis at row r, sending the
// current basic variable of r to targetBound (its lower or upper bound per
// leavingAtUpper). It updates the basic values, nonbasic statuses, the
// Gauss-Jordan tableau, and the maintained reduced-cost row.
func (t *tableau) replaceBasic(r, j int, targetBound float64, leavingAtUpper bool) {
	rows, vals := t.column(j)
	piv := t.at(r, j)
	delta := (t.xB[r] - targetBound) / piv
	enterVal := t.value(j) + delta
	for q, i := range rows {
		if int(i) == r {
			continue
		}
		t.xB[i] -= vals[q] * delta
		// Clean eps-level bound violations introduced by the update.
		bi := t.basis[i]
		if d := t.xB[i] - t.lo[bi]; d < 0 && d > -1e-11 {
			t.xB[i] = t.lo[bi]
		} else if hb := t.hi[bi]; !math.IsInf(hb, 1) {
			if d := t.xB[i] - hb; d > 0 && d < 1e-11 {
				t.xB[i] = hb
			}
		}
	}
	leaving := t.basis[r]
	t.atUpper[leaving] = leavingAtUpper
	if leaving >= t.realCols() {
		// An artificial that leaves the basis is pinned at zero for good.
		t.hi[leaving] = 0
		t.atUpper[leaving] = false
	}
	t.xB[r] = enterVal

	// Gauss-Jordan pivot on (r, j): scale the pivot row, then subtract
	// f·(pivot row) from every other row with f = a_ij ≠ 0 — the rows the
	// gathered column lists — walking only the pivot row's nonzeros.
	t.scalePivotRow(r, j, 1/piv)
	pidx, pval := t.row(r)
	for q, i := range rows {
		if int(i) == r {
			continue
		}
		f := vals[q]
		if d := t.dense[i]; d != nil {
			for k, jj := range pidx {
				d[jj] -= f * pval[k]
			}
			d[j] = 0 // exact
		} else {
			t.updateRow(int(i), j, f, pidx, pval)
		}
	}
	if t.red != nil {
		f := t.red[j]
		if f != 0 {
			for k, jj := range pidx {
				t.red[jj] -= f * pval[k]
			}
			t.red[j] = 0 // exact
		}
	}
	// Column j is now the unit vector of row r.
	t.cols[j] = t.cols[j][:0]
	if t.dense[r] == nil {
		t.cols[j] = append(t.cols[j], int32(r))
	}
	t.colOf = -1
	t.inBasis[leaving] = false
	t.inBasis[j] = true
	t.basis[r] = j
}

// scalePivotRow multiplies row r by inv, drops eps-dust to fight fill-in
// and drift accumulation, and sets the pivot entry (r, j) to exactly 1.
func (t *tableau) scalePivotRow(r, j int, inv float64) {
	if d := t.dense[r]; d != nil {
		for jj, v := range d {
			v *= inv
			if v < 1e-13 && v > -1e-13 {
				v = 0
			}
			d[jj] = v
		}
		d[j] = 1 // exact
		return
	}
	idx, val := t.idx[r], t.val[r]
	w := 0
	for q, jj := range idx {
		v := val[q] * inv
		if v < 1e-13 && v > -1e-13 {
			continue
		}
		if int(jj) == j {
			v = 1 // exact
		}
		idx[w], val[w] = jj, v
		w++
	}
	t.idx[r], t.val[r] = idx[:w], val[:w]
}

// updateRow performs a_i -= f·p on sparse row i for the pivot row p
// (pidx/pval) with pivot column j, as one merge of the two sorted rows:
// shared columns get a_ik − f·p_k, new columns 0 − f·p_k, column j an
// exact 0, and entries that come out zero are dropped. A row pushed past
// the dense-row rule moves to dense storage.
func (t *tableau) updateRow(i, j int, f float64, pidx []int32, pval []float64) {
	aidx, aval := t.idx[i], t.val[i]
	need := len(aidx) + len(pidx)
	if cap(t.mIdx) < need {
		t.mIdx = make([]int32, 0, need+need/2)
		t.mVal = make([]float64, 0, need+need/2)
	}
	oi, ov := t.mIdx[:0], t.mVal[:0]
	a, p := 0, 0
	for a < len(aidx) || p < len(pidx) {
		var col int32
		var v float64
		switch {
		case p == len(pidx) || (a < len(aidx) && aidx[a] < pidx[p]):
			col, v = aidx[a], aval[a]
			a++
		case a == len(aidx) || pidx[p] < aidx[a]:
			col = pidx[p]
			v = 0 - f*pval[p]
			p++
			if v != 0 {
				t.cols[col] = append(t.cols[col], int32(i))
			}
		default:
			col = aidx[a]
			v = aval[a] - f*pval[p]
			a++
			p++
		}
		if v == 0 || int(col) == j {
			continue
		}
		oi = append(oi, col)
		ov = append(ov, v)
	}
	t.mIdx, t.mVal = oi, ov
	if len(oi) > t.n/denseFrac {
		t.makeDense(i, oi, ov)
		return
	}
	if cap(aidx) < len(oi) {
		aidx = make([]int32, 0, min(2*len(oi), t.n/denseFrac))
		aval = make([]float64, 0, cap(aidx))
	}
	t.idx[i] = append(aidx[:0], oi...)
	t.val[i] = append(aval[:0], ov...)
}

// setVarBounds updates the bounds of structural column j in the live
// tableau. When a nonbasic column's resting value moves (its bound changed
// under it, or an at-upper column lost its finite upper bound), the basic
// values are shifted accordingly so the tableau stays consistent; any
// resulting primal infeasibility is the dual simplex's job.
func (t *tableau) setVarBounds(j int, lo, hi float64) {
	if t.inBasis[j] {
		t.lo[j] = lo
		t.hi[j] = hi
		return
	}
	oldVal := t.value(j)
	t.lo[j] = lo
	t.hi[j] = hi
	if t.atUpper[j] && math.IsInf(hi, 1) {
		t.atUpper[j] = false
	}
	newVal := t.value(j)
	if newVal == oldVal {
		return
	}
	shift := newVal - oldVal
	rows, vals := t.column(j)
	for q, i := range rows {
		t.xB[i] -= vals[q] * shift
	}
}

// extract reads the structural solution back in model coordinates.
func (t *tableau) extract(m *Model) []float64 {
	out := make([]float64, len(m.vars))
	for j := range out {
		out[j] = t.value(j)
	}
	for i := 0; i < t.m; i++ {
		if bj := t.basis[i]; bj < t.nv {
			out[bj] = t.xB[i]
		}
	}
	// Clean tiny bound violations from floating error.
	for j, v := range m.vars {
		if out[j] < v.lo && out[j] > v.lo-1e-7 {
			out[j] = v.lo
		}
		if !math.IsInf(v.hi, 1) && out[j] > v.hi && out[j] < v.hi+1e-7 {
			out[j] = v.hi
		}
	}
	return out
}
