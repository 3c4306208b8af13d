package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/traffic"
)

const (
	// paperSnapshots is the traffic series length of the paper-topology
	// workloads (AS-3679's generator caps its own series at 24).
	paperSnapshots = 48
	// datasets is the size of the pool of paper-scenario datasets —
	// topology, traffic series and policy chains, standing in for the
	// paper's fixed traces. Runs end on whole cycles through the pool, so
	// every run weighs every dataset alike and the seed only sets the
	// order and the probes: loss and solve times vary several-fold
	// between datasets, far beyond any bound a single draw could hold.
	datasets = 8
)

// dataset is the pool index episode k of a run with this seed visits.
func dataset(seed int64, k int) int {
	return int(((seed+int64(k))%datasets + datasets) % datasets)
}

// paperScenarios builds the four paper scenarios of pool dataset d.
func paperScenarios(d int) ([]*experiments.Scenario, error) {
	return experiments.All(experiments.Options{Seed: int64(d) + 1, Snapshots: paperSnapshots})
}

// wholeCycles reports whether a run of n episodes has visited every
// dataset the same number of times, at least times times.
func wholeCycles(n, times int) bool { return n >= times*datasets && n%datasets == 0 }

// hostSwitches lists a scenario's APPLE-host switches in ascending order,
// so controller construction never depends on map iteration.
func hostSwitches(sc *experiments.Scenario) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(sc.Avail))
	for v := range sc.Avail {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// newController builds an empty controller for a scenario on a fresh
// virtual clock.
func newController(sc *experiments.Scenario) (*controller.Controller, *sim.Simulation, error) {
	clock := sim.New()
	ctrl, err := controller.New(controller.Config{
		Topology:              sc.Graph,
		Clock:                 clock,
		HostSwitches:          hostSwitches(sc),
		HostResourcesBySwitch: sc.Avail,
		Seed:                  sc.Seed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", sc.Name, err)
	}
	return ctrl, clock, nil
}

// classRates maps one snapshot onto a problem's classes by their OD pair.
func classRates(prob *core.Problem, tm *traffic.Matrix) map[core.ClassID]float64 {
	out := make(map[core.ClassID]float64, len(prob.Classes))
	for _, c := range prob.Classes {
		out[c.ID] = tm.At(int(c.Path[0]), int(c.Path[len(c.Path)-1]))
	}
	return out
}

// probWithRates copies the problem with each class's rate replaced by its
// snapshot rate, dropping classes without traffic.
func probWithRates(base *core.Problem, rates map[core.ClassID]float64) *core.Problem {
	out := *base
	out.Classes = make([]core.Class, 0, len(base.Classes))
	for _, cl := range base.Classes {
		if r := rates[cl.ID]; r > 0 {
			cl.RateMbps = r
			out.Classes = append(out.Classes, cl)
		}
	}
	return &out
}

// snapshotStep is the virtual time between a scenario's snapshots.
func snapshotStep(sc *experiments.Scenario) time.Duration {
	return time.Duration(max(sc.SnapshotSeconds, 1)) * time.Second
}

// react absorbs one snapshot: the Dynamic Handler observes the rates
// (fast failover), the controller reports the traffic-weighted loss, and
// the virtual clock advances to the next snapshot. A nil handler leaves
// fast failover off.
func (r *runner) react(ctrl *controller.Controller, h *controller.DynamicHandler, clock *sim.Simulation,
	rates map[core.ClassID]float64, step time.Duration) (float64, error) {
	if h != nil {
		s := r.tr.begin("controller.failover")
		n, err := h.Observe(rates)
		r.tr.end(s)
		if err != nil {
			return 0, fmt.Errorf("observe: %w", err)
		}
		r.transitions += n
	}
	s := r.tr.begin("controller.loss")
	loss, err := ctrl.LossRate(rates)
	r.tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("loss: %w", err)
	}
	if err := clock.AdvanceTo(clock.Now() + step); err != nil {
		return 0, fmt.Errorf("clock: %w", err)
	}
	if h != nil {
		r.peakExtra = max(r.peakExtra, h.PeakExtraCores())
	}
	return loss, nil
}
