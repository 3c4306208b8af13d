package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/apple-nfv/apple/internal/lp"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
)

// recordSolve feeds one solve's instrumentation into the process-wide
// solver counters.
func recordSolve(sol *lp.Solution, resolve bool) {
	metrics.LP.RecordSolve(resolve, sol.WarmStarted,
		sol.Phase1Iterations, sol.Phase2Iterations, sol.DualIterations,
		sol.Phase1Time, sol.Phase2Time)
}

// EngineOptions tunes the LP-based Optimization Engine.
type EngineOptions struct {
	// Exact switches to branch-and-bound instead of LP-relaxation
	// rounding. Only practical for small instances; the paper (and this
	// engine by default) uses the relaxation.
	Exact bool
	// ExplicitSigma models the cumulative variables σ of Eq. (2)
	// explicitly instead of eliminating them into prefix sums of d. The
	// solutions are identical; the model is larger and slower — kept for
	// the ablation benchmark.
	ExplicitSigma bool
	// MaxRepairRounds bounds the round-and-repair loop (default 25).
	MaxRepairRounds int
	// MaxAffinityRounds bounds anti-affinity evictions per solve (default
	// 64, the cap the incremental engine always uses). Each eviction
	// zeroes one q variable and warm re-solves, and can surface new
	// resource violations, so the cap is generous.
	MaxAffinityRounds int
	// MaxVariantSolves bounds the total number of full solves spent on
	// partial-order chain-variant selection (default 16). The first solve
	// always uses every class's canonical chain; the remaining budget is
	// coordinate descent over per-class alternatives.
	MaxVariantSolves int
	// Tracer, when non-nil, journals one lp.solve span per Solve call
	// (end Val: total simplex pivots) plus an lp.resolve event per warm
	// repair re-solve (Val: that re-solve's pivots).
	Tracer *trace.Recorder
}

// Engine is the LP-relaxation Optimization Engine of §IV-D.
type Engine struct {
	opts EngineOptions
}

// Repair-search limits shared by both engines.
const (
	defaultRepairRounds = 25
	// maxAffinityEvictions caps anti-affinity evictions per solve.
	maxAffinityEvictions = 64
)

// NewEngine creates an engine.
func NewEngine(opts EngineOptions) *Engine {
	if opts.MaxRepairRounds <= 0 {
		opts.MaxRepairRounds = defaultRepairRounds
	}
	if opts.MaxAffinityRounds <= 0 {
		opts.MaxAffinityRounds = maxAffinityEvictions
	}
	if opts.MaxVariantSolves <= 0 {
		opts.MaxVariantSolves = 16
	}
	return &Engine{opts: opts}
}

// qKey identifies a q_n^v variable.
type qKey struct {
	v  topology.NodeID
	nf policy.NF
}

// model carries the LP model plus the variable index maps.
type model struct {
	m *lp.Model
	// dVar[classIdx][hopIdx][chainIdx]; -1 where the hop cannot host.
	dVar [][][]lp.VarID
	// rVar[classIdx] is the class's rate column, pinned by its bounds.
	rVar  []lp.VarID
	qVar  map[qKey]lp.VarID
	qKeys []qKey // qVar's keys in (switch, NF) order
}

// Solve runs the Optimization Engine on the problem and returns a
// placement satisfying Eqs. (3)–(8) with objective (1) minimized
// approximately (LP relaxation + rounding) or exactly (Exact option),
// plus the policy-v2 constraint families: anti-affinity pairs are never
// co-located, and classes carrying partial-order alternatives may have a
// cheaper chain variant selected (recorded in Placement.Chains).
func (e *Engine) Solve(prob *Problem) (pl *Placement, err error) {
	start := time.Now()
	iters := 0
	if e.opts.Tracer.Enabled() {
		sp := e.opts.Tracer.Begin(trace.Ev(trace.KindLPSolve).WithVal(int64(len(prob.Classes))))
		defer func() { sp.End(int64(iters), err) }()
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	pl, its, err := e.solveFixed(prob, nil)
	iters += its

	// Joint orientation rescue: an infeasible canonical assignment may
	// need several classes re-oriented and several hosts dedicated at
	// once, which neither the eviction search nor one-class descent can
	// reach (see orientationPlan). The plan's switch coloring is encoded
	// as q caps and its variant assignment applied jointly, as a single
	// candidate solve.
	if err != nil && len(prob.AntiAffinity) > 0 {
		hint, caps := orientationPlan(prob)
		if len(caps) > 0 || len(hint) > 0 {
			work := cloneClasses(prob)
			for ci := range work.Classes {
				if ch, ok := hint[work.Classes[ci].ID]; ok {
					work.Classes[ci].Chain = ch.Clone()
				}
			}
			cand, its, cerr := e.solveFixed(work, caps)
			iters += its
			if cerr == nil {
				pl, err = cand, nil
				if len(hint) > 0 {
					pl.Chains = hint
				}
			}
		}
	}

	// Chain-variant selection: coordinate descent over each class's
	// partial-order alternatives. Every candidate is a full solve of the
	// problem with that one chain swapped (the distribution axes follow
	// the chain, so nothing smaller is sound). A variant is adopted only
	// on a strictly lower objective — so the canonical linearization wins
	// all ties and the classic no-alternatives problem never re-solves —
	// or when the incumbent chain assignment is infeasible (a linearization
	// can conflict with anti-affinity or path resources where a sibling
	// order does not).
	budget := e.opts.MaxVariantSolves - 1
	if budget > 0 && hasAlternatives(prob) {
		work := cloneClasses(prob)
		chosen := make(map[ClassID]policy.Chain)
		for ci := range work.Classes {
			if len(work.Classes[ci].AltChains) == 0 {
				continue
			}
			for _, alt := range work.Classes[ci].AltChains {
				if budget <= 0 {
					break
				}
				prev := work.Classes[ci].Chain
				work.Classes[ci].Chain = alt.Clone()
				cand, its, cerr := e.solveFixed(work, nil)
				budget--
				iters += its
				if cerr != nil {
					work.Classes[ci].Chain = prev
					continue
				}
				if err != nil || cand.Objective < pl.Objective {
					pl, err = cand, nil
					chosen[work.Classes[ci].ID] = alt.Clone()
				} else {
					work.Classes[ci].Chain = prev
				}
			}
		}
		if err == nil && len(chosen) > 0 {
			pl.Chains = chosen
		}
	}
	if err != nil {
		return nil, err
	}
	pl.SolveTime = time.Since(start)
	pl.Iterations = iters
	return pl, nil
}

// hasAlternatives reports whether any class carries chain alternatives.
func hasAlternatives(prob *Problem) bool {
	for _, c := range prob.Classes {
		if len(c.AltChains) > 0 {
			return true
		}
	}
	return false
}

// cloneClasses returns a shallow problem copy with its own Classes slice,
// so variant selection can swap chains without mutating the caller's
// problem.
func cloneClasses(p *Problem) *Problem {
	cp := *p
	cp.Classes = make([]Class, len(p.Classes))
	copy(cp.Classes, p.Classes)
	return &cp
}

// solveFixed solves the problem with every class's chain fixed, running
// the LP relaxation plus the interleaved round-and-repair loop (resource
// violations, then anti-affinity co-locations), or branch-and-bound with
// co-location exclusions under the Exact option. caps, when non-nil,
// seeds upper bounds on selected q variables (the orientation rescue's
// switch coloring). It returns the placement (without SolveTime) and the
// simplex pivots spent.
func (e *Engine) solveFixed(prob *Problem, caps map[qKey]float64) (*Placement, int, error) {
	md, err := buildModel(prob, caps, e.opts.ExplicitSigma, false)
	if err != nil {
		return nil, 0, err
	}
	solver := lp.NewSolver(md.m)
	var sol lp.Solution
	if e.opts.Exact {
		sol, err = lp.SolveMILP(md.m, lp.MILPOptions{Exclusions: exclusionPairs(prob, md)})
	} else {
		sol, err = solver.Solve()
	}
	if err != nil {
		return nil, 0, fmt.Errorf("core: optimization failed: %w", err)
	}
	recordSolve(&sol, false)
	iters := sol.Iterations
	var counts map[topology.NodeID]map[policy.NF]int
	if e.opts.Exact {
		counts = extractCounts(md, &sol, false)
	} else {
		r := &repairer{prob: prob, md: md, solver: solver,
			maxRounds: e.opts.MaxRepairRounds, maxEvicts: e.opts.MaxAffinityRounds, tracer: e.opts.Tracer}
		counts, err = r.repair(sol)
		iters += r.iters
		if err != nil {
			return nil, iters, err
		}
		sol = r.sol
	}
	dist := extractDist(prob, md, &sol)
	pl := &Placement{
		Counts:     counts,
		Dist:       dist,
		Iterations: iters,
		Method:     "lp-relaxation",
	}
	if e.opts.Exact {
		pl.Method = "branch-and-bound"
	}
	pl.Objective = pl.TotalInstances()
	return pl, iters, nil
}

// errRepairAbort marks solver failures that must terminate the repair
// search outright (anything but an infeasible subproblem).
var errRepairAbort = errors.New("core: repair aborted")

// repairer runs the round-and-repair search over a rounded LP solution.
// Resource violations cap an offender at one fewer instance and re-solve
// (the classic cutting-plane-style loop); anti-affinity co-locations evict
// one side of the pair entirely (cap its q at zero, so the LP reroutes
// that processing to other hops). Capping the wrong NF can make the LP —
// or a later violation at another switch — infeasible, so choices are
// explored depth-first with backtracking: each applied cap is undone when
// its subtree dead-ends and the next candidate is tried. A cap only
// tightens one q upper bound, so every re-solve warm-starts from the
// previous optimal basis (dual simplex) instead of rebuilding the model;
// the solver falls back to a cold solve on its own when the warm start is
// rejected. Without anti-affinity pairs the search degenerates to exactly
// the historical linear repair loop (same candidate order, same caps,
// same re-solves) on every success path. Engine.Solve and
// IncrementalEngine.Place both run it.
type repairer struct {
	prob      *Problem
	md        *model
	solver    *lp.Solver
	maxRounds int
	maxEvicts int
	tracer    *trace.Recorder
	sol       lp.Solution // solution at the accepted leaf
	iters     int         // re-solve pivots
	dualIters int         // dual-simplex share of iters
	rounds    int         // resource caps applied (monotone across backtracking)
	evicts    int         // anti-affinity evictions attempted (monotone)
}

func (r *repairer) repair(sol lp.Solution) (map[topology.NodeID]map[policy.NF]int, error) {
	counts := extractCounts(r.md, &sol, true)
	if violSwitch, ok := findViolatedSwitch(r.prob, counts); ok {
		if r.rounds >= r.maxRounds {
			return nil, fmt.Errorf("core: could not repair resource violation at switch %d after %d rounds",
				violSwitch, r.rounds)
		}
		r.rounds++
		var lastErr error
		for _, key := range repairCandidates(violSwitch, counts) {
			newCap := float64(counts[key.v][key.nf] - 1)
			if newCap < 0 {
				continue
			}
			final, err := r.descend(sol, key, newCap, violSwitch)
			if err == nil {
				return final, nil
			}
			if errors.Is(err, errRepairAbort) {
				return nil, err
			}
			lastErr = err
		}
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, fmt.Errorf("core: irreparable resource violation at switch %d", violSwitch)
	}
	violSwitch, pair, ok := findColocatedPair(r.prob, counts)
	if !ok {
		r.sol = sol
		return counts, nil
	}
	if r.evicts >= r.maxEvicts {
		return nil, fmt.Errorf("core: could not separate anti-affine pair %v at switch %d after %d evictions",
			pair, violSwitch, r.evicts)
	}
	for _, nf := range evictionOrder(pair, counts[violSwitch]) {
		r.evicts++
		final, err := r.descend(sol, qKey{v: violSwitch, nf: nf}, 0, violSwitch)
		if err == nil {
			return final, nil
		}
		if errors.Is(err, errRepairAbort) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("core: anti-affine pair %v cannot be separated at switch %d (both evictions dead-end)",
		pair, violSwitch)
}

// descend applies one cap, re-solves, and recurses; the cap is restored
// before returning an error so the caller can try its next candidate.
func (r *repairer) descend(sol lp.Solution, key qKey, newCap float64, violSwitch topology.NodeID) (map[topology.NodeID]map[policy.NF]int, error) {
	qv := r.md.qVar[key]
	_, prevCap, err := r.md.m.Bounds(qv)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errRepairAbort, err)
	}
	if err := r.solver.SetUpper(qv, newCap); err != nil {
		return nil, fmt.Errorf("%w: %v", errRepairAbort, err)
	}
	sol2, err := r.solver.ReSolve()
	recordSolve(&sol2, true)
	r.iters += sol2.Iterations
	r.dualIters += sol2.DualIterations
	if r.tracer.Enabled() {
		r.tracer.Emit(trace.Ev(trace.KindLPResolve).
			WithNode(int64(violSwitch)).
			WithVal(int64(sol2.TotalPivots())).
			WithErr(err))
	}
	if err == nil {
		final, rerr := r.repair(sol2)
		if rerr == nil {
			return final, nil
		}
		err = rerr
	} else if !errors.Is(err, lp.ErrInfeasible) {
		err = fmt.Errorf("%w: repair re-solve failed: %v", errRepairAbort, err)
	} else {
		err = fmt.Errorf("core: %w at switch %d", lp.ErrInfeasible, violSwitch)
	}
	// Dead end (infeasible here, or deeper in the subtree): undo the cap.
	if uerr := r.solver.SetUpper(qv, prevCap); uerr != nil {
		return nil, fmt.Errorf("%w: %v", errRepairAbort, uerr)
	}
	return nil, err
}

// buildModel constructs the LP/ILP of §IV-D — σ-eliminated by default,
// with explicit σ variables when explicitSigma is set. caps optionally
// adds upper bounds on selected q variables (used by the repair loop).
//
// Every class h gets a rate column r_h whose bounds pin it, and Eq. (4)
// reads Σ_i d − r = 0, so the class rate T_h lives in exactly one place:
//
//   - cold form (parametric false): r_h = 1 and T_h is the Eq. (5)
//     coefficient of each d — the model as the paper writes it;
//   - parametric form: r_h = T_h and every Eq. (5) coefficient is 1, so d
//     is absolute flow (Mbps) and every coefficient is rate-independent. A
//     new traffic snapshot is then purely a change of the r bounds, which
//     the dual simplex repairs from the previous basis (IncrementalEngine).
//
// Columns and rows are emitted in a fixed order (classes in problem order,
// q and the Eq. (5)/(6) rows in (switch, NF) order), so the tableau layout
// — and hence the pivot count — is a function of the problem alone.
func buildModel(prob *Problem, caps map[qKey]float64, explicitSigma, parametric bool) (*model, error) {
	m := lp.NewModel("apple-placement")
	md := &model{
		m:    m,
		dVar: make([][][]lp.VarID, len(prob.Classes)),
		rVar: make([]lp.VarID, len(prob.Classes)),
		qVar: make(map[qKey]lp.VarID),
	}
	wrap := func(err error) error { return fmt.Errorf("core: %w", err) }

	// potential[k] is the total rate of classes that could run k's NF at
	// k's switch; loads[k] collects k's Eq. (5) terms.
	potential := make(map[qKey]float64)
	loads := make(map[qKey][]lp.Term)
	for ci, c := range prob.Classes {
		hops := prob.eligibleHops(c)
		if len(hops) == 0 {
			return nil, fmt.Errorf("core: class %d has no APPLE host on its path", c.ID)
		}
		r, coef := 1.0, c.RateMbps
		if parametric {
			r, coef = c.RateMbps, 1
		}
		rv, err := m.AddVariable(fmt.Sprintf("r[%d]", c.ID), r, r, 0)
		if err != nil {
			return nil, wrap(err)
		}
		md.rVar[ci] = rv
		md.dVar[ci] = make([][]lp.VarID, len(c.Path))
		for i := range c.Path {
			md.dVar[ci][i] = make([]lp.VarID, len(c.Chain))
			for j := range c.Chain {
				md.dVar[ci][i][j] = -1
			}
		}
		for _, i := range hops {
			for j, nf := range c.Chain {
				// Upper bound r is implied by Eq. (4) + non-negativity;
				// leaving it off keeps the tableau smaller.
				v, err := m.AddVariable(fmt.Sprintf("d[%d][%d][%d]", c.ID, i, j), 0, math.Inf(1), 0)
				if err != nil {
					return nil, wrap(err)
				}
				md.dVar[ci][i][j] = v
				key := qKey{v: c.Path[i], nf: nf}
				potential[key] += c.RateMbps
				loads[key] = append(loads[key], lp.Term{Var: v, Coef: coef})
			}
		}
	}

	// Consolidation bias: the pure Σq objective is degenerate — any split
	// of a class's load across its path costs the same fractional q, so
	// the LP may scatter load, and integer rounding then opens one
	// instance per scattered shard. A tiny per-(v,nf) perturbation makes
	// switches with more multiplexable demand strictly cheaper, so
	// degenerate optima consolidate. The perturbation is far below 1, so
	// the instance total is still minimized first. It is computed from the
	// problem's RateMbps in both forms, so the incremental engine keeps its
	// universe's bias across snapshots.
	maxPotential := 0.0
	for key, p := range potential {
		md.qKeys = append(md.qKeys, key)
		maxPotential = math.Max(maxPotential, p)
	}
	sort.Slice(md.qKeys, func(i, j int) bool {
		a, b := md.qKeys[i], md.qKeys[j]
		if a.v != b.v {
			return a.v < b.v
		}
		return a.nf < b.nf
	})
	for _, key := range md.qKeys {
		hi := math.Inf(1)
		if c, ok := caps[key]; ok {
			hi = c
		}
		obj := 1.0 // Eq. (1)
		if maxPotential > 0 {
			obj += 1e-3 * (1 - potential[key]/maxPotential)
		}
		obj += 1e-7 * float64(key.v) // deterministic tie break
		v, err := m.AddVariable(fmt.Sprintf("q[%d][%v]", key.v, key.nf), 0, hi, obj)
		if err != nil {
			return nil, wrap(err)
		}
		if err := m.SetInteger(v); err != nil {
			return nil, wrap(err)
		}
		md.qVar[key] = v
	}

	for ci, c := range prob.Classes {
		hops := prob.eligibleHops(c)
		if explicitSigma {
			if err := addSigmaConstraints(m, md, ci, c, hops); err != nil {
				return nil, err
			}
			continue
		}
		// Eq. (4): every chain position processes all of the class.
		for j := range c.Chain {
			terms := make([]lp.Term, 0, len(hops)+1)
			for _, i := range hops {
				terms = append(terms, lp.Term{Var: md.dVar[ci][i][j], Coef: 1})
			}
			terms = append(terms, lp.Term{Var: md.rVar[ci], Coef: -1})
			if err := m.AddConstraint(fmt.Sprintf("full[%d][%d]", c.ID, j), lp.EQ, 0, terms...); err != nil {
				return nil, wrap(err)
			}
		}
		// Eq. (3): σ_{j-1}^i ≥ σ_j^i at every eligible hop, with σ
		// eliminated into prefix sums of d.
		for j := 1; j < len(c.Chain); j++ {
			for hi, i := range hops {
				terms := make([]lp.Term, 0, 2*(hi+1))
				for _, k := range hops[:hi+1] {
					terms = append(terms,
						lp.Term{Var: md.dVar[ci][k][j-1], Coef: 1},
						lp.Term{Var: md.dVar[ci][k][j], Coef: -1})
				}
				name := fmt.Sprintf("order[%d][%d][%d]", c.ID, i, j)
				if err := m.AddConstraint(name, lp.GE, 0, terms...); err != nil {
					return nil, wrap(err)
				}
			}
		}
	}

	// Eq. (5): per-(v,nf) capacity couples d to q.
	for _, key := range md.qKeys {
		spec, err := policy.SpecOf(key.nf)
		if err != nil {
			return nil, wrap(err)
		}
		terms := append(loads[key], lp.Term{Var: md.qVar[key], Coef: -spec.CapacityMbps})
		if err := m.AddConstraint(fmt.Sprintf("cap[%d][%v]", key.v, key.nf), lp.LE, 0, terms...); err != nil {
			return nil, wrap(err)
		}
	}

	// Eq. (6): per-switch resources, one row per resource dimension. qKeys
	// is switch-major, so each switch's keys form one run.
	for lo := 0; lo < len(md.qKeys); {
		v := md.qKeys[lo].v
		var coreTerms, memTerms []lp.Term
		for ; lo < len(md.qKeys) && md.qKeys[lo].v == v; lo++ {
			key := md.qKeys[lo]
			spec, err := policy.SpecOf(key.nf)
			if err != nil {
				return nil, wrap(err)
			}
			coreTerms = append(coreTerms, lp.Term{Var: md.qVar[key], Coef: float64(spec.Cores)})
			memTerms = append(memTerms, lp.Term{Var: md.qVar[key], Coef: float64(spec.MemoryMB)})
		}
		avail := prob.Avail[v]
		if err := m.AddConstraint(fmt.Sprintf("cores[%d]", v), lp.LE, float64(avail.Cores), coreTerms...); err != nil {
			return nil, wrap(err)
		}
		if err := m.AddConstraint(fmt.Sprintf("mem[%d]", v), lp.LE, float64(avail.MemoryMB), memTerms...); err != nil {
			return nil, wrap(err)
		}
	}
	return md, nil
}

// extractCounts reads q values; when roundUp is set, fractional LP values
// are ceiled (the relaxation rounding step).
func extractCounts(md *model, sol *lp.Solution, roundUp bool) map[topology.NodeID]map[policy.NF]int {
	counts := make(map[topology.NodeID]map[policy.NF]int)
	for key, v := range md.qVar {
		x := sol.Value(v)
		var q int
		if roundUp {
			q = int(math.Ceil(x - 1e-6))
		} else {
			q = int(math.Round(x))
		}
		if q <= 0 {
			continue
		}
		if counts[key.v] == nil {
			counts[key.v] = make(map[policy.NF]int)
		}
		counts[key.v][key.nf] = q
	}
	return counts
}

// extractDist reads the d values back into per-class matrices, cleaning
// numerical noise so each chain position sums to exactly 1 (this also
// turns the parametric form's absolute flows into fractions). A class
// whose rate column is pinned at 0 is inactive and omitted.
func extractDist(prob *Problem, md *model, sol *lp.Solution) map[ClassID][][]float64 {
	out := make(map[ClassID][][]float64, len(prob.Classes))
	for ci, c := range prob.Classes {
		if _, r, _ := md.m.Bounds(md.rVar[ci]); r <= 0 {
			continue
		}
		dist := make([][]float64, len(c.Path))
		for i := range c.Path {
			dist[i] = make([]float64, len(c.Chain))
			for j := range c.Chain {
				if v := md.dVar[ci][i][j]; v >= 0 {
					x := sol.Value(v)
					if x < 0 {
						x = 0
					}
					dist[i][j] = x
				}
			}
		}
		// Renormalize each chain position to sum exactly 1.
		for j := range c.Chain {
			total := 0.0
			for i := range c.Path {
				total += dist[i][j]
			}
			if total > 0 {
				for i := range c.Path {
					dist[i][j] /= total
				}
			}
		}
		out[c.ID] = dist
	}
	return out
}

// findViolatedSwitch returns the lowest-ID switch whose rounded instance
// counts exceed its resources (Eq. 6).
func findViolatedSwitch(prob *Problem, counts map[topology.NodeID]map[policy.NF]int) (topology.NodeID, bool) {
	switches := make([]topology.NodeID, 0, len(counts))
	for v := range counts {
		switches = append(switches, v)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	for _, v := range switches {
		var used policy.Resources
		for nf, q := range counts[v] {
			spec, err := policy.SpecOf(nf)
			if err != nil {
				continue
			}
			for k := 0; k < q; k++ {
				used = used.Add(spec.Resources())
			}
		}
		if avail, ok := prob.Avail[v]; ok && !used.Fits(avail) {
			return v, true
		}
	}
	return 0, false
}

// repairCandidates orders the (v,nf) pairs at a violated switch for
// capping: largest core footprint first (freeing the most pressure per
// capped instance), NF order as the deterministic tie break.
func repairCandidates(v topology.NodeID, counts map[topology.NodeID]map[policy.NF]int) []qKey {
	out := make([]qKey, 0, len(counts[v]))
	for nf, q := range counts[v] {
		if q > 0 {
			out = append(out, qKey{v: v, nf: nf})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		si, erri := policy.SpecOf(out[i].nf)
		sj, errj := policy.SpecOf(out[j].nf)
		if erri != nil || errj != nil {
			return out[i].nf < out[j].nf
		}
		if si.Cores != sj.Cores {
			return si.Cores > sj.Cores
		}
		return out[i].nf < out[j].nf
	})
	return out
}

// findColocatedPair returns the lowest-ID switch where any anti-affinity
// pair has instances of both types, plus the first offending pair at that
// switch (pairs scanned in the problem's declared order).
func findColocatedPair(prob *Problem, counts map[topology.NodeID]map[policy.NF]int) (topology.NodeID, policy.NFPair, bool) {
	if len(prob.AntiAffinity) == 0 {
		return 0, policy.NFPair{}, false
	}
	switches := make([]topology.NodeID, 0, len(counts))
	for v := range counts {
		switches = append(switches, v)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	for _, v := range switches {
		for _, pr := range prob.AntiAffinity {
			if counts[v][pr.A] > 0 && counts[v][pr.B] > 0 {
				return v, pr, true
			}
		}
	}
	return 0, policy.NFPair{}, false
}

// evictionOrder orders the two NFs of a co-located pair for eviction:
// fewer instances at the switch first (moving less load), NF order as the
// deterministic tie break.
func evictionOrder(pair policy.NFPair, at map[policy.NF]int) []policy.NF {
	if at[pair.B] < at[pair.A] {
		return []policy.NF{pair.B, pair.A}
	}
	return []policy.NF{pair.A, pair.B}
}

// exclusionPairs maps the problem's anti-affinity pairs onto the model's q
// variables: one (q_a, q_b) exclusion per switch where both types could be
// placed, in deterministic (switch, pair) order, for MILP branching.
func exclusionPairs(prob *Problem, md *model) [][2]lp.VarID {
	if len(prob.AntiAffinity) == 0 {
		return nil
	}
	var out [][2]lp.VarID
	for k, key := range md.qKeys {
		if k > 0 && md.qKeys[k-1].v == key.v {
			continue // one pass per switch
		}
		for _, pr := range prob.AntiAffinity {
			qa, oka := md.qVar[qKey{v: key.v, nf: pr.A}]
			qb, okb := md.qVar[qKey{v: key.v, nf: pr.B}]
			if oka && okb {
				out = append(out, [2]lp.VarID{qa, qb})
			}
		}
	}
	return out
}

// addSigmaConstraints models Eqs. (2)-(4) with explicit cumulative
// variables, exactly as the paper writes them: σ_{h,j}^i = σ_{h,j}^{i-1} +
// d_{h,j}^i (Eq. 2), σ_{h,j-1}^i ≥ σ_{h,j}^i (Eq. 3), σ at the last hop
// equals the rate column, 1 in the cold form (Eq. 4).
func addSigmaConstraints(m *lp.Model, md *model, ci int, c Class, hops []int) error {
	nPos := len(c.Chain)
	sigma := make([][]lp.VarID, len(hops))
	for hi := range hops {
		sigma[hi] = make([]lp.VarID, nPos)
		for j := 0; j < nPos; j++ {
			v, err := m.AddVariable(fmt.Sprintf("sigma[%d][%d][%d]", c.ID, hops[hi], j), 0, 1, 0)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			sigma[hi][j] = v
		}
	}
	for j := 0; j < nPos; j++ {
		for hi, i := range hops {
			// Eq. (2): σ^i = σ^{i-1} + d^i.
			terms := []lp.Term{
				{Var: sigma[hi][j], Coef: 1},
				{Var: md.dVar[ci][i][j], Coef: -1},
			}
			if hi > 0 {
				terms = append(terms, lp.Term{Var: sigma[hi-1][j], Coef: -1})
			}
			name := fmt.Sprintf("cum[%d][%d][%d]", c.ID, i, j)
			if err := m.AddConstraint(name, lp.EQ, 0, terms...); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			// Eq. (3): σ_{j-1} ≥ σ_j.
			if j > 0 {
				name := fmt.Sprintf("order[%d][%d][%d]", c.ID, i, j)
				if err := m.AddConstraint(name, lp.GE, 0,
					lp.Term{Var: sigma[hi][j-1], Coef: 1},
					lp.Term{Var: sigma[hi][j], Coef: -1}); err != nil {
					return fmt.Errorf("core: %w", err)
				}
			}
		}
		// Eq. (4): fully processed by the last hop.
		name := fmt.Sprintf("full[%d][%d]", c.ID, j)
		if err := m.AddConstraint(name, lp.EQ, 0,
			lp.Term{Var: sigma[len(hops)-1][j], Coef: 1},
			lp.Term{Var: md.rVar[ci], Coef: -1}); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}
