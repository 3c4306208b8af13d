package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/traffic"
)

const (
	// planWindow is the number of snapshots one plan covers: the engine
	// plans on the window mean and fast failover absorbs the snapshots in
	// it, as in the paper's Fig 12 replay.
	planWindow = 6
	// planProbes is the number of probe packets replayed after each plan.
	planProbes = 48
)

// planWindows is how many distinct windows of each topology one episode
// plans. The counts put the median inside the GEANT and UNIV1 plans and
// the 90th percentile inside the AS-3679 ones rather than on the edge
// between two topologies.
var planWindows = map[string]int{"Internet2": 3, "GEANT": 2, "UNIV1": 2, "AS-3679": 2}

// planPaper is the Table V path: on each paper topology and several
// distinct window-mean traffic matrices, build the problem, solve it cold,
// install it into a fresh controller and check enforcement — the sequence
// the framework's Deploy runs. Each cycle is one plan sample. Each
// episode takes the next dataset of the pool; a run goes through the pool
// at least twice, and every later visit of a cycle must repeat the
// first visit's outputs.
type planPaper struct {
	cycles []*planCycle
	// first records each cycle's outputs on its first visit.
	first map[string]planOutput
}

type planCycle struct {
	sc      *experiments.Scenario
	dataset int
	window  int
	mean    *traffic.Matrix
}

type planOutput struct{ instances, rules int }

func (c *planCycle) String() string {
	return fmt.Sprintf("dataset %d %s window %d", c.dataset, c.sc.Name, c.window)
}

func (w *planPaper) prepare(r *runner, k int) error {
	d := dataset(r.seed, k)
	scs, err := paperScenarios(d)
	if err != nil {
		return err
	}
	w.cycles = w.cycles[:0]
	for _, sc := range scs {
		// The datasets walk the windows in turn, so the pool covers each
		// time of day alike.
		windows := len(sc.Series) / planWindow
		n := planWindows[sc.Name]
		for j := 0; j < n; j++ {
			lo := (d*n + j) % windows * planWindow
			mean, err := traffic.Mean(sc.Series[lo : lo+planWindow])
			if err != nil {
				return fmt.Errorf("%s: %w", sc.Name, err)
			}
			w.cycles = append(w.cycles, &planCycle{sc: sc, dataset: d, window: lo, mean: mean})
		}
	}
	return nil
}

func (w *planPaper) sizes() map[string]int {
	out := map[string]int{"cycles_per_episode": len(w.cycles), "window_snapshots": planWindow,
		"probes_per_cycle": planProbes, "datasets": datasets}
	for _, c := range w.cycles {
		out[c.sc.Name+".switches"] = c.sc.Graph.NumNodes()
		out[c.sc.Name+".series_snapshots"] = len(c.sc.Series)
		out[c.sc.Name+".windows_per_episode"]++
	}
	return out
}

func (w *planPaper) done(r *runner) bool {
	return wholeCycles(r.episodes, 2) && r.planMs.enough(0.9) && r.batchMs.enough(0.9) &&
		r.fwdUs.enough(0.99) && r.reactMs.enough(0.9)
}

func (w *planPaper) run(r *runner, k int) error {
	if w.first == nil {
		w.first = make(map[string]planOutput)
	}
	for _, c := range w.cycles {
		out, ok := w.cycle(r, c)
		if !ok {
			continue
		}
		prev, seen := w.first[c.String()]
		if !seen {
			w.first[c.String()] = out
			continue
		}
		if out.instances != prev.instances {
			r.fail(c.String()+" repeat", fmt.Errorf("%d instances, first visit gave %d", out.instances, prev.instances))
		}
		// Rule counts are not always deterministic: the solver may land
		// on another optimal distribution of equal instance count.
		r.rulesSpread = max(r.rulesSpread, float64(abs(out.rules-prev.rules))/float64(max(prev.rules, 1)))
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// cycle plans one window and reports its instance and rule counts; ok is
// false when the cycle failed.
func (w *planPaper) cycle(r *runner, c *planCycle) (planOutput, bool) {
	what := c.String()
	r.attempted++
	// Each plan starts on a collected heap, so one cycle's garbage does
	// not bill the next one's collection. The heap it starts on holds the
	// episode's inputs, which heap_mb leaves out.
	r.markHeap()
	done := r.op("plan.cycle")
	s := r.tr.begin("core.build")
	prob, err := c.sc.Problem(c.mean)
	r.tr.end(s)
	if err != nil {
		done()
		r.fail(what+" build", err)
		return planOutput{}, false
	}
	s = r.tr.begin("core.solve")
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	r.tr.end(s)
	if err != nil {
		done()
		r.fail(what+" solve", err)
		return planOutput{}, false
	}
	r.placedOne(pl.Objective)
	s = r.tr.begin("controller.new")
	ctrl, clock, err := newController(c.sc)
	r.tr.end(s)
	if err != nil {
		done()
		r.fail(what, err)
		return planOutput{}, false
	}
	s = r.tr.begin("controller.install")
	start := time.Now()
	err = ctrl.InstallPlacement(prob, pl)
	install := time.Since(start)
	r.tr.end(s)
	if err != nil {
		// The controller refuses placements it cannot tag or install.
		done()
		r.refuse(what+" install", err)
		return planOutput{}, false
	}
	s = r.tr.begin("controller.enforce")
	err = ctrl.CheckEnforcement()
	r.tr.end(s)
	d := done()
	if err != nil {
		r.fail(what+" enforce", err)
		return planOutput{}, false
	}
	r.planDone(d)
	r.admitted(len(prob.Classes), install)
	out := planOutput{instances: pl.Objective, rules: ctrl.RuleUpdates()}
	r.installedOne(out.rules)

	// Correctness gates, outside the timed cycle.
	if err := pl.Verify(prob); err != nil {
		r.fail(what+" verify", err)
		return planOutput{}, false
	}
	if err := ctrl.CheckTables(); err != nil {
		r.fail(what+" tables", err)
		return planOutput{}, false
	}
	if c.sc.Name == "AS-3679" {
		// The live heap the largest plan and controller take.
		r.sampleHeap()
	}
	r.replay(ctrl, ctrl.Classes(), planProbes)

	// Fast failover absorbs the window's snapshots against the plan.
	h, err := controller.NewDynamicHandler(ctrl)
	if err != nil {
		r.fail(what+" handler", err)
		return out, true
	}
	step := snapshotStep(c.sc)
	runtime.GC()
	for t := c.window; t < c.window+planWindow; t++ {
		r.attempted++
		rates := classRates(prob, c.sc.Series[t])
		done := r.op("react.snapshot")
		loss, err := r.react(ctrl, h, clock, rates, step)
		d := done()
		if err != nil {
			r.fail(fmt.Sprintf("%s snapshot %d", c.sc.Name, t), err)
			return out, true
		}
		r.reacted(d, loss)
	}
	if err := h.CheckInvariants(); err != nil {
		r.fail(what+" invariants", err)
	}
	return out, true
}
