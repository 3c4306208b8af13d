package controller

import (
	"reflect"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
)

// failoverFixture admits n single-firewall classes online on a 4-switch
// line and attaches a fast-failover handler.
func failoverFixture(t *testing.T, n int) (*Controller, *DynamicHandler, *sim.Simulation) {
	t.Helper()
	clock := sim.New()
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: clock, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	classes := make([]core.Class, n)
	for i := range classes {
		classes[i] = core.Class{ID: core.ClassID(i), Path: linePath(4),
			Chain: policy.Chain{policy.Firewall}, RateMbps: 20}
	}
	if err := c.AddClassBatch(classes, BatchOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, d, clock
}

// quadraticObserve is Observe with the rollback pass as it was before
// loads were shared across it: every class in failover is judged against
// loads recomputed from scratch.
func quadraticObserve(d *DynamicHandler, rates map[core.ClassID]float64) (int, error) {
	n, err := d.rebalance(rates)
	if err != nil {
		return n, err
	}
	for _, classID := range d.c.Classes() {
		if d.states[classID] == nil || !d.baseWouldFit(classID, rates, d.c.Loads(rates)) {
			continue
		}
		if err := d.rollback(classID); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// TestRollbackPassMatchesQuadratic drives two identical controllers
// through a surge that puts many classes into failover and a partial
// recovery, one with Observe and one with the quadratic rollback pass.
// Every snapshot must give the same transitions, the same number of
// classes left in failover and the same CheckInvariants verdict, and
// the final weights must agree. The recovery must both roll classes back
// and keep others in failover, so the shared loads are refreshed
// mid-pass.
func TestRollbackPassMatchesQuadratic(t *testing.T) {
	const n = 240
	fast, fastD, fastClock := failoverFixture(t, n)
	slow, slowD, slowClock := failoverFixture(t, n)
	snapshot := func(scale func(i int) float64) map[core.ClassID]float64 {
		rates := make(map[core.ClassID]float64, n)
		for i := 0; i < n; i++ {
			rates[core.ClassID(i)] = 20 * scale(i)
		}
		return rates
	}
	steps := []map[core.ClassID]float64{
		snapshot(func(i int) float64 { return 1.9 }),
		snapshot(func(i int) float64 { return 2.0 }),
		snapshot(func(i int) float64 { return 0.5 + float64(i%7)/5 }),
		snapshot(func(i int) float64 { return 0.8 + float64(i%3)/4 }),
		snapshot(func(i int) float64 { return 0.3 }),
	}
	peak, partial := 0, false
	for k, rates := range steps {
		before := len(fastD.states)
		got, err := fastD.Observe(rates)
		if err != nil {
			t.Fatalf("step %d: Observe: %v", k, err)
		}
		want, err := quadraticObserve(slowD, rates)
		if err != nil {
			t.Fatalf("step %d: quadratic Observe: %v", k, err)
		}
		if got != want {
			t.Fatalf("step %d: %d transitions, quadratic pass gives %d", k, got, want)
		}
		if len(fastD.states) != len(slowD.states) {
			t.Fatalf("step %d: %d classes in failover, quadratic pass leaves %d", k, len(fastD.states), len(slowD.states))
		}
		fastErr, slowErr := fastD.CheckInvariants(), slowD.CheckInvariants()
		if (fastErr == nil) != (slowErr == nil) {
			t.Fatalf("step %d: CheckInvariants %v, quadratic pass %v", k, fastErr, slowErr)
		}
		if fastErr != nil {
			t.Fatalf("step %d: invariants broken: %v", k, fastErr)
		}
		peak = max(peak, before, len(fastD.states))
		if after := len(fastD.states); after > 0 && after < before {
			partial = true
		}
		for _, clock := range []*sim.Simulation{fastClock, slowClock} {
			if err := clock.Run(6 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	if peak < n/4 {
		t.Fatalf("only %d of %d classes entered failover", peak, n)
	}
	if !partial {
		t.Fatal("no rollback pass both rolled classes back and kept others in failover")
	}
	for _, id := range fast.Classes() {
		a, _ := fast.assign.get(id)
		b, _ := slow.assign.get(id)
		if !reflect.DeepEqual(a.Weights, b.Weights) {
			t.Fatalf("class %d: weights %v, quadratic pass %v", id, a.Weights, b.Weights)
		}
	}
}
