package main

import (
	"fmt"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/sim"
)

const (
	// reactPasses is the number of warm passes per episode, and
	// reactStride the snapshots between them: eight passes cover a day
	// of hourly matrices.
	reactPasses = 8
	reactStride = 3
	// reactProbes is the number of probe packets replayed per topology
	// after each pass.
	reactProbes = 16
)

// reactDiurnal keeps one controller per paper topology for an episode
// and, per diurnal snapshot, re-places warm, commits the delta and reads
// the loss. Each episode takes the next dataset of the pool; its cold
// first pass is set-up. With failover set, fast failover also observes
// every snapshot between commits: that is the react-failover workload,
// which reproduces a known enforcement defect (README.md) and so is not
// one of the benchmark's measured workloads.
type reactDiurnal struct {
	failover bool
	dataset  int
	topos    []*reactTopo
}

type reactTopo struct {
	sc      *experiments.Scenario
	base    *core.Problem
	eng     *core.IncrementalEngine
	ctrl    *controller.Controller
	handler *controller.DynamicHandler
	// failover is handler when fast failover is on, nil otherwise.
	failover *controller.DynamicHandler
	clock    *sim.Simulation
	// coldErr and coldRefused are the cold pass's failure or refusal,
	// counted when the episode runs.
	coldErr, coldRefused error
}

func (w *reactDiurnal) prepare(r *runner, k int) error {
	w.dataset = dataset(r.seed, k)
	scs, err := paperScenarios(w.dataset)
	if err != nil {
		return err
	}
	w.topos = nil // the last episode's controllers are not part of the baseline
	r.markHeap()
	for _, sc := range scs {
		base, err := sc.MeanProblem()
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		eng, err := core.NewIncrementalEngine(base, core.IncrementalOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		ctrl, clock, err := newController(sc)
		if err != nil {
			return err
		}
		h, err := controller.NewDynamicHandler(ctrl)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		t := &reactTopo{sc: sc, base: base, eng: eng, ctrl: ctrl, handler: h, clock: clock}
		if w.failover {
			t.failover = h
		}
		t.coldRefused, t.coldErr = t.cold()
		w.topos = append(w.topos, t)
	}
	return nil
}

// cold runs the first, cold pass on snapshot 0. A refused commit leaves
// the controller empty; the warm passes then install from scratch.
func (t *reactTopo) cold() (refused, err error) {
	rates := classRates(t.base, t.sc.Series[0])
	pl, _, err := t.eng.Place(rates)
	if err != nil {
		return nil, fmt.Errorf("cold place: %w", err)
	}
	_, refused = t.ctrl.ReOptimize(probWithRates(t.base, rates), pl, controller.ReoptOptions{Verify: true, Reap: true})
	if t.failover != nil {
		if _, err := t.failover.Observe(rates); err != nil {
			return refused, fmt.Errorf("cold observe: %w", err)
		}
	}
	if err := t.clock.AdvanceTo(t.clock.Now() + snapshotStep(t.sc)); err != nil {
		return refused, fmt.Errorf("cold clock: %w", err)
	}
	return refused, nil
}

func (w *reactDiurnal) sizes() map[string]int {
	out := map[string]int{"passes_per_episode": reactPasses, "snapshot_stride": reactStride,
		"probes_per_step": reactProbes, "datasets": datasets}
	for _, t := range w.topos {
		out[t.sc.Name+".switches"] = t.sc.Graph.NumNodes()
		out[t.sc.Name+".classes"] = len(t.base.Classes)
		out[t.sc.Name+".series_snapshots"] = len(t.sc.Series)
	}
	return out
}

func (w *reactDiurnal) done(r *runner) bool {
	return wholeCycles(r.episodes, 1) && r.reactMs.enough(0.9) && r.planMs.enough(0.9) &&
		r.batchMs.enough(0.9) && r.fwdUs.enough(0.99)
}

func (w *reactDiurnal) run(r *runner, k int) error {
	for _, t := range w.topos {
		what := fmt.Sprintf("dataset %d %s", w.dataset, t.sc.Name)
		if t.coldRefused != nil {
			r.attempted++
			r.refuse(what+" cold pass", t.coldRefused)
		}
		if t.coldErr != nil {
			r.attempted++
			r.fail(what, t.coldErr)
		}
	}
	for i := 1; i <= reactPasses; i++ {
		for _, t := range w.topos {
			w.step(r, t, i)
		}
	}
	r.sampleHeap()
	return nil
}

func (w *reactDiurnal) step(r *runner, t *reactTopo, i int) {
	snap := i * reactStride % len(t.sc.Series)
	what := fmt.Sprintf("dataset %d %s pass %d", w.dataset, t.sc.Name, i)
	rates := classRates(t.base, t.sc.Series[snap])
	r.attempted++
	done := r.op("react.step")
	start := time.Now()
	s := r.tr.begin("core.place")
	pl, st, err := t.eng.Place(rates)
	r.tr.end(s)
	if err != nil {
		done()
		r.fail(what+" place", err)
		return
	}
	r.places++
	r.placedOne(pl.Objective)
	if st.WarmAccepted {
		r.warmAccepted++
	}
	prob := probWithRates(t.base, rates)
	s = r.tr.begin("controller.reopt")
	commit := time.Now()
	rep, err := t.ctrl.ReOptimize(prob, pl, controller.ReoptOptions{Verify: true, Reap: true})
	commitD := time.Since(commit)
	r.tr.end(s)
	refused := err
	if err == nil {
		r.planDone(time.Since(start))
		r.admitted(len(prob.Classes), commitD)
		r.reopts++
		r.reoptRules += rep.RulesInstalled + rep.RulesRemoved
		r.reoptChanged += rep.ClassesChanged()
		r.installedOne(rep.RulesInstalled)
	}
	// A refused commit leaves the previous generation running; the
	// snapshot is still absorbed against it.
	loss, err := r.react(t.ctrl, t.failover, t.clock, rates, snapshotStep(t.sc))
	d := done()
	if err != nil {
		r.fail(what, err)
		return
	}
	if refused != nil {
		r.refuse(what, refused)
		r.lost(loss)
	} else {
		r.reacted(d, loss)
	}

	// Correctness gates, outside the timed step.
	if err := t.handler.CheckInvariants(); err != nil {
		r.fail(what+" invariants", err)
		return
	}
	r.replay(t.ctrl, t.ctrl.Classes(), reactProbes)
}
