package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
)

// updateGolden rewrites testdata/placement_golden.json from the current
// engine instead of comparing against it:
//
//	go test ./internal/experiments -run TestPlacementGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/placement_golden.json")

const goldenPath = "testdata/placement_golden.json"

// goldenCold is one topology's cold placement: the nonzero q_n^v keyed
// "v/nf" and the nonzero d_{h,j}^i keyed "h/i/j".
type goldenCold struct {
	Instances int                `json:"instances"`
	Counts    map[string]int     `json:"counts"`
	Dist      map[string]float64 `json:"dist"`
}

type goldenFile struct {
	// Cold holds Engine.Solve on each scenario's mean problem at the
	// benchmark settings (seed 1, 96 snapshots).
	Cold map[string]goldenCold `json:"cold"`
	// WarmPivots holds the per-pass IncrementalEngine pivots of the
	// applereopt replay (seed 1, 96-snapshot series, 24 passes, stride 2)
	// on every scenario; UNIV1 and AS-3679 pin the dual simplex on the
	// largest tableaus.
	WarmPivots map[string][]int `json:"warm_pivots"`
}

func goldenColdOf(pl *core.Placement) goldenCold {
	g := goldenCold{
		Instances: pl.TotalInstances(),
		Counts:    make(map[string]int),
		Dist:      make(map[string]float64),
	}
	for v, byNF := range pl.Counts {
		for nf, q := range byNF {
			if q > 0 {
				g.Counts[fmt.Sprintf("%d/%d", v, nf)] = q
			}
		}
	}
	for id, dist := range pl.Dist {
		for i, row := range dist {
			for j, d := range row {
				if d > 1e-12 { // drop solver noise
					g.Dist[fmt.Sprintf("%d/%d/%d", id, i, j)] = d
				}
			}
		}
	}
	return g
}

// distMismatch compares two sparse distributions entry by entry (a
// missing entry reads as 0) and describes the first difference above
// 1e-9, or returns "".
func distMismatch(got, want map[string]float64) string {
	for k, w := range want {
		if g := got[k]; math.Abs(g-w) > 1e-9 {
			return fmt.Sprintf("d %s = %v, want %v", k, g, w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok && g > 1e-9 {
			return fmt.Sprintf("d %s = %v, want 0", k, g)
		}
	}
	return ""
}

// warmPivots replays exactly the solve sequence RunReopt drives with the
// applereopt defaults (the controller commit does not feed back into the
// engine, so it is left out).
func warmPivots(t *testing.T, sc *Scenario) []int {
	t.Helper()
	base, err := sc.MeanProblem()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewIncrementalEngine(base, core.IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const passes, stride = 24, 2
	out := make([]int, 0, passes)
	for k := 0; k < passes; k++ {
		// AS-3679's series has 24 snapshots; wrap around it.
		_, st, err := eng.Place(classRates(base, sc.Series[(k*stride)%len(sc.Series)]))
		if err != nil {
			t.Fatalf("%s pass %d: %v", sc.Name, k, err)
		}
		out = append(out, st.Pivots)
	}
	return out
}

// TestPlacementGolden pins the placement engine's observable results: the
// cold placements of the four Table V scenarios (Counts exactly, Dist to
// 1e-9) and the warm engine's per-pass pivot counts on the re-optimization
// replay. A refactor of the model builder or the repair search must leave
// all of them unchanged.
func TestPlacementGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solves all four Table V scenarios")
	}
	scs, err := All(Options{Seed: 1, Snapshots: 96})
	if err != nil {
		t.Fatal(err)
	}
	got := goldenFile{Cold: make(map[string]goldenCold), WarmPivots: make(map[string][]int)}
	for _, sc := range scs {
		prob, err := sc.MeanProblem()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		got.Cold[sc.Name] = goldenColdOf(pl)
		got.WarmPivots[sc.Name] = warmPivots(t, sc)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want.Cold {
		g, ok := got.Cold[name]
		if !ok {
			t.Errorf("%s: no cold placement", name)
			continue
		}
		if g.Instances != w.Instances {
			t.Errorf("%s: %d instances, want %d", name, g.Instances, w.Instances)
		}
		if !reflect.DeepEqual(g.Counts, w.Counts) {
			t.Errorf("%s: counts %v, want %v", name, g.Counts, w.Counts)
		}
		if bad := distMismatch(g.Dist, w.Dist); bad != "" {
			t.Errorf("%s: %s", name, bad)
		}
	}
	for name, w := range want.WarmPivots {
		if g := got.WarmPivots[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: warm pivots %v, want %v", name, g, w)
		}
	}
}

// TestColdSolveAllocBound pins the simplex's storage: a cold Engine.Solve
// of AS-3679's mean problem (about 2100 rows by 5300 columns) allocates
// about 20 MB in all, where a dense m×n tableau alone is 89 MB.
func TestColdSolveAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the AS-3679 scenario")
	}
	sc, err := AS3679(Options{Seed: 1, Snapshots: 96})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sc.MeanProblem()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := core.NewEngine(core.EngineOptions{}).Solve(prob); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 32 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("cold solve allocated %.1f MiB, want at most %d MiB", float64(got)/(1<<20), limit>>20)
	}
}
