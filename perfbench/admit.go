package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
)

const (
	fatTreeK = 16
	// ingressPods is how many pods source classes; concentrating
	// ingresses is what grows the per-table state.
	ingressPods = 4
	// admitBatch classes commit per AddClassBatch transaction, and
	// admitBatches transactions make one round.
	admitBatch   = 1024
	admitBatches = 16
	// admitProbes is the number of probe packets replayed after each
	// batch, drawn from every class admitted so far in the round.
	admitProbes = 32
	// surgeSnapshots is how many traffic snapshots are replayed at the
	// end of each round.
	surgeSnapshots = 12
)

// admitFattree admits a closed-form single-NF class stream into one
// controller on FatTree-16 in fixed-size batches, replaying probe packets
// after each batch, then reads the loss of a diurnal surge against it.
// No LP runs. Each round (episode) builds the same stream from the seed
// and starts from a fresh controller, so every round does the same work.
type admitFattree struct {
	layout  *topology.FatTreeLayout
	hosts   []topology.NodeID
	classes []core.Class
	ids     []core.ClassID
	surge   []map[core.ClassID]float64
	ctrl    *controller.Controller
	// instances and rules are the first round's outputs after admission;
	// every later round must repeat them exactly.
	instances, rules int
}

func (w *admitFattree) prepare(r *runner, k int) error {
	l, err := topology.FatTree(fatTreeK)
	if err != nil {
		return err
	}
	w.layout = l
	w.hosts = w.hosts[:0]
	for _, nd := range l.Graph.Nodes() {
		w.hosts = append(w.hosts, nd.ID)
	}
	sort.Slice(w.hosts, func(i, j int) bool { return w.hosts[i] < w.hosts[j] })
	rng := rand.New(rand.NewSource(r.seed))
	half := fatTreeK / 2
	n := admitBatch * admitBatches
	w.classes = make([]core.Class, n)
	for i := range w.classes {
		srcPod := i % ingressPods
		srcEdge := (i / ingressPods) % half
		dstPod := (srcPod + 1 + rng.Intn(fatTreeK-1)) % fatTreeK
		path, err := l.Path(srcPod, srcEdge, dstPod, rng.Intn(half), rng.Int())
		if err != nil {
			return err
		}
		w.classes[i] = core.Class{ID: core.ClassID(i), Path: path, Chain: policy.Chain{policy.Firewall}, RateMbps: 1}
	}
	w.ids = classIDs(w.classes)
	// The surge heats one ingress edge switch: its classes follow a
	// diurnal day peaking at twice their rate, and everyone else stays
	// near their admitted rate, so one instance overloads at the peak.
	w.surge = make([]map[core.ClassID]float64, surgeSnapshots)
	for t := range w.surge {
		day := 1.5 + 0.5*math.Sin(2*math.Pi*float64(t)/surgeSnapshots)
		rates := make(map[core.ClassID]float64, n)
		for i, c := range w.classes {
			f := 0.9 + 0.2*rng.Float64()
			if i%(ingressPods*half) == 0 {
				f *= day
			}
			rates[c.ID] = c.RateMbps * f
		}
		w.surge[t] = rates
	}
	if k == 0 {
		w.instances = -1
	}
	w.ctrl = nil // the last round's controller is not part of the baseline
	r.markHeap()
	w.ctrl, err = controller.New(controller.Config{
		Topology:      l.Graph,
		Clock:         sim.New(),
		HostSwitches:  w.hosts,
		HostResources: policy.Resources{Cores: 64, MemoryMB: 128 * 1024},
		Seed:          r.seed,
	})
	return err
}

func (w *admitFattree) sizes() map[string]int {
	return map[string]int{
		"switches":          w.layout.Graph.NumNodes(),
		"classes_per_round": len(w.classes),
		"batch_classes":     admitBatch,
		"probes_per_batch":  admitProbes,
		"surge_snapshots":   surgeSnapshots,
	}
}

func (w *admitFattree) done(r *runner) bool {
	return r.planMs.enough(0.9) && r.batchMs.enough(0.9) && r.fwdUs.enough(0.99) && r.reactMs.enough(0.9)
}

func (w *admitFattree) run(r *runner, k int) error {
	ctrl := w.ctrl
	r.batchesPerRound = admitBatches
	opts := controller.BatchOptions{Workers: runtime.GOMAXPROCS(0)}
	for b := 0; b < admitBatches; b++ {
		batch := w.classes[b*admitBatch : (b+1)*admitBatch]
		r.attempted++
		done := r.op("admit.batch")
		s := r.tr.begin("controller.admit_batch")
		start := time.Now()
		err := ctrl.AddClassBatch(batch, opts)
		d := time.Since(start)
		r.tr.end(s)
		if err != nil {
			done()
			r.fail(fmt.Sprintf("round %d batch %d", k, b), err)
			return nil
		}
		r.admitted(len(batch), d)
		r.batchRank[b] = append(r.batchRank[b], ms(d))
		r.replay(ctrl, w.ids[:(b+1)*admitBatch], admitProbes)
		r.planDone(done())
	}

	// Correctness gates and determinism, outside the timed batches.
	instances, rules := len(ctrl.Orchestrator().Instances()), ctrl.RuleUpdates()
	r.placedOne(instances)
	r.installedOne(rules)
	if w.instances < 0 {
		w.instances, w.rules = instances, rules
	} else if instances != w.instances || rules != w.rules {
		r.fail(fmt.Sprintf("round %d repeat", k), fmt.Errorf("instances %d rules %d, first round gave %d and %d",
			instances, rules, w.instances, w.rules))
	}
	if err := ctrl.CheckTables(); err != nil {
		r.fail(fmt.Sprintf("round %d tables", k), err)
	}
	r.sampleHeap()

	// Fast failover stays off here: every instance serves 512 classes,
	// and its rollback check recomputes all loads once per class in
	// failover, about 5 s per overloaded snapshot at this size. The
	// snapshot's loss is read with the admitted placement as it stands.
	for t, rates := range w.surge {
		r.attempted++
		done := r.op("react.snapshot")
		s := r.tr.begin("controller.loss")
		loss, err := ctrl.LossRate(rates)
		r.tr.end(s)
		d := done()
		if err != nil {
			r.fail(fmt.Sprintf("round %d snapshot %d", k, t), err)
			return nil
		}
		r.reacted(d, loss)
	}
	return nil
}

func classIDs(cls []core.Class) []core.ClassID {
	out := make([]core.ClassID, len(cls))
	for i, c := range cls {
		out[i] = c.ID
	}
	return out
}
