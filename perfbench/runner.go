package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/headerspace"
	appmetrics "github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
)

const (
	// lookupReps is how many Pipeline.Process calls one lookup span
	// times, so a span is long enough to read from the clock.
	lookupReps = 16
	// maxMeasure caps the measured loop whatever -seconds asks, so a run
	// always ends well inside three minutes.
	maxMeasure = 120 * time.Second
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner holds one run's samples and counters. Everything is touched by
// the single driver goroutine only.
type runner struct {
	seed int64
	tr   *tracer // nil when untraced
	rng  *rand.Rand

	attempted, failed int
	refused           int // failures that are the program's refusals
	failures          map[string]int
	unreportable      []string

	// End-to-end samples.
	setupS, planMs, batchMs, fwdUs, reactMs, heapMB series
	lossEp                                          series // mean loss per episode
	epLossSum                                       float64
	snapshots, epLossN                              int
	admitClasses                                    int
	admitTime                                       time.Duration
	placed, instances, installed, rules             int

	// Root-operation times with tracing on and off, for the overhead.
	planTraced, planUntraced series
	// lookupTime is the time spent in traced-only pipeline lookups, which
	// root-operation times leave out.
	lookupTime time.Duration
	// heapBase is the live heap before the workload built the state that
	// heap_mb measures; untimed is set-up time spent reading it.
	heapBase int64
	untimed  time.Duration

	// Run-wide layer counts.
	places, warmAccepted     int
	transitions, peakExtra   int
	hops, packets            int
	reopts, reoptRules       int
	reoptChanged             int
	tracedAdmitClasses       int
	tracedPackets            int
	rulesSpread              float64        // largest relative rule-count change of a repeated plan
	batchRank                map[int]series // batch time by position in its round
	batchesPerRound          int
	unwound0                 int64
	gcCPU0, totalCPU0, gcCPU float64
	elapsed                  time.Duration
	episodes                 int
}

func newRunner(seed int64, traced bool) *runner {
	r := &runner{
		seed:      seed,
		rng:       rand.New(rand.NewSource(seed)),
		failures:  make(map[string]int),
		batchRank: make(map[int]series),
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// fail counts one failed operation.
func (r *runner) fail(what string, err error) {
	r.failed++
	r.failures[fmt.Sprintf("%s: %v", what, err)]++
}

// refuse counts one operation the program refused: a transaction it
// rejected and unwound, leaving the previous state running. A refusal is
// a failure but not a wrong output.
func (r *runner) refuse(what string, err error) {
	r.refused++
	r.fail("refused "+what, err)
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

// prepare runs episode k's set-up on a collected heap and records its
// duration, less any heap baseline read, as a set-up sample.
func (r *runner) prepare(w workload, k int) error {
	runtime.GC()
	r.untimed = 0
	start := time.Now()
	if err := w.prepare(r, k); err != nil {
		return err
	}
	r.setupS.add((time.Since(start) - r.untimed).Seconds())
	return nil
}

// measure runs whole episodes until the time is up and every metric has
// enough samples; episode 0 is already prepared. With tracing, every
// other cycle through the dataset pool is traced, so traced and untraced
// episodes see the same inputs and can be compared for the tracing
// overhead; a traced run goes on until one traced cycle has ended.
func (r *runner) measure(w workload, d time.Duration) error {
	r.unwound0 = appmetrics.Txn.Unwound.Load()
	r.gcCPU0, r.totalCPU0 = readCPU()
	start := time.Now()
	limit := min(3*d, maxMeasure)
	for k := 0; ; k++ {
		if k > 0 {
			if err := r.prepare(w, k); err != nil {
				return err
			}
		}
		if r.tr != nil {
			r.tr.on = k/datasets%2 == 1
		}
		if err := w.run(r, k); err != nil {
			return err
		}
		r.endEpisode()
		r.episodes++
		el := time.Since(start)
		if el >= d && w.done(r) && (r.tr == nil || r.episodes >= 2*datasets) {
			break
		}
		if el >= limit {
			r.unreportable = append(r.unreportable, "run ended before every metric had enough samples")
			break
		}
	}
	r.elapsed = time.Since(start)
	if r.tr != nil && len(r.tr.spans) == 0 {
		r.unreportable = append(r.unreportable, "no span recorded")
	}
	gc, total := readCPU()
	if total > r.totalCPU0 {
		r.gcCPU = (gc - r.gcCPU0) / (total - r.totalCPU0)
	}
	return nil
}

// op brackets one root operation: it opens the root span and returns a
// function that closes it and reports the operation's duration. The
// duration leaves out pipeline lookups, which only traced episodes run,
// so traced and untraced durations cover the same work.
func (r *runner) op(name string) func() time.Duration {
	if r.tr != nil {
		r.tr.op++
	}
	id := r.tr.begin(name)
	start, lookups := time.Now(), r.lookupTime
	return func() time.Duration {
		d := time.Since(start) - (r.lookupTime - lookups)
		r.tr.end(id)
		return d
	}
}

// planDone records one plan operation.
func (r *runner) planDone(d time.Duration) {
	r.planMs.add(ms(d))
	if r.tr.enabled() {
		r.planTraced.add(ms(d))
	} else {
		r.planUntraced.add(ms(d))
	}
}

// admitted records one admission transaction of n classes.
func (r *runner) admitted(n int, d time.Duration) {
	r.batchMs.add(ms(d))
	r.admitClasses += n
	r.admitTime += d
	if r.tr.enabled() {
		r.tracedAdmitClasses += n
	}
}

// reacted records one traffic snapshot absorbed, with its loss rate.
func (r *runner) reacted(d time.Duration, loss float64) {
	r.reactMs.add(ms(d))
	r.lost(loss)
}

// lost records one snapshot's loss rate.
func (r *runner) lost(loss float64) {
	r.snapshots++
	r.epLossSum += loss
	r.epLossN++
}

// placedOne records one placement's Eq. 1 objective.
func (r *runner) placedOne(instances int) {
	r.placed++
	r.instances += instances
}

// installedOne records the rules one install or commit wrote.
func (r *runner) installedOne(rules int) {
	r.installed++
	r.rules += rules
}

// endEpisode closes the episode's loss mean.
func (r *runner) endEpisode() {
	if r.epLossN > 0 {
		r.lossEp.add(r.epLossSum / float64(r.epLossN))
	}
	r.epLossSum, r.epLossN = 0, 0
}

// markHeap reads the live heap as the baseline of the next sample, so
// that heap_mb leaves out the benchmark's own inputs. Its collection does
// not count as set-up.
func (r *runner) markHeap() {
	start := time.Now()
	r.heapBase = liveHeap()
	r.untimed += time.Since(start)
}

// sampleHeap records the live heap above the baseline.
func (r *runner) sampleHeap() {
	r.heapMB.add(float64(liveHeap()-r.heapBase) / (1 << 20))
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replay forwards n probe packets of classes drawn from ids and checks
// that each is delivered having visited its class chain in order.
func (r *runner) replay(ctrl *controller.Controller, ids []core.ClassID, n int) {
	if len(ids) == 0 {
		return
	}
	root := r.tr.begin("forward.replay")
	defer r.tr.end(root)
	for i := 0; i < n; i++ {
		id := ids[r.rng.Intn(len(ids))]
		sub := uint32(r.rng.Intn(8)) << 4
		r.attempted++
		a, err := ctrl.Assignment(id)
		if err != nil {
			r.fail("probe", err)
			continue
		}
		hdr, err := ctrl.FlowHeader(id, sub)
		if err != nil {
			r.fail("probe", err)
			continue
		}
		ingress := a.Class.Path[0]
		s := r.tr.beginTime("controller.forward")
		start := time.Now()
		tr, err := ctrl.Forward(hdr, ingress)
		d := time.Since(start)
		r.tr.end(s)
		if err == nil {
			err = checkTrace(ctrl, a.Class.Chain, tr)
		}
		if err != nil {
			r.fail(fmt.Sprintf("class %d probe", id), err)
			continue
		}
		r.fwdUs.add(float64(d) / float64(time.Microsecond))
		r.hops += len(tr.Switches)
		r.packets++
		if r.tr.enabled() {
			r.tracedPackets++
			r.lookup(ctrl, hdr, ingress)
		}
	}
}

// lookup times the ingress switch's pipeline alone on the probe header.
func (r *runner) lookup(ctrl *controller.Controller, hdr headerspace.Header, ingress topology.NodeID) {
	start := time.Now()
	defer func() { r.lookupTime += time.Since(start) }()
	sw, err := ctrl.Switch(ingress)
	if err != nil {
		return
	}
	s := r.tr.beginTime("flowtable.lookup")
	for j := 0; j < lookupReps; j++ {
		pkt := flowtable.Packet{Hdr: hdr}
		if _, err := sw.Pipeline.Process(&pkt); err != nil {
			r.tr.end(s)
			r.fail("lookup", err)
			return
		}
	}
	r.tr.end(s)
}

// checkTrace verifies a forwarded packet: delivered, finished, and the
// visited instances' NFs equal the chain position by position.
func checkTrace(ctrl *controller.Controller, chain policy.Chain, tr controller.Trace) error {
	if !tr.Delivered {
		return fmt.Errorf("not delivered")
	}
	if len(tr.Instances) != len(chain) {
		return fmt.Errorf("visited %d instances, chain has %d", len(tr.Instances), len(chain))
	}
	for j, id := range tr.Instances {
		nf, err := ctrl.InstanceNF(id)
		if err != nil {
			return err
		}
		if nf != chain[j] {
			return fmt.Errorf("position %d visited %v, chain says %v", j, nf, chain[j])
		}
	}
	if tr.FinalHostTag != flowtable.HostTagFin {
		return fmt.Errorf("delivered with host tag %d, want Fin", tr.FinalHostTag)
	}
	return nil
}

// tail reports a percentile, noting it as unreportable when it lacks
// samples beyond it.
func (r *runner) tail(name string, s series, p float64) float64 {
	v, ok := percentile(append(series(nil), s...), p)
	if !ok {
		r.unreportable = append(r.unreportable, fmt.Sprintf("%s has %d samples", name, len(s)))
	}
	return v
}

// result builds the output line: end-to-end metrics untraced, per-layer
// metrics traced.
func (r *runner) result() result {
	m := make(map[string]metric)
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	if r.tr == nil {
		put("setup_s", "s", median(append(series(nil), r.setupS...)))
		put("plan_ms_p50", "ms", r.tail("plan_ms", r.planMs, 0.5))
		put("plan_ms_p90", "ms", r.tail("plan_ms", r.planMs, 0.9))
		put("vnf_instances", "count", float64(r.instances)/float64(max(r.placed, 1)))
		put("tcam_rules", "count", float64(r.rules)/float64(max(r.installed, 1)))
		put("admit_classes_per_s", "1/s", float64(r.admitClasses)/r.admitTime.Seconds())
		put("admit_batch_ms_p50", "ms", r.tail("admit_batch_ms", r.batchMs, 0.5))
		put("admit_batch_ms_p90", "ms", r.tail("admit_batch_ms", r.batchMs, 0.9))
		put("forward_us_p50", "us", r.tail("forward_us", r.fwdUs, 0.5))
		put("forward_us_p99", "us", r.tail("forward_us", r.fwdUs, 0.99))
		put("heap_mb", "MB", median(append(series(nil), r.heapMB...)))
		put("react_ms_p50", "ms", r.tail("react_ms", r.reactMs, 0.5))
		put("react_ms_p90", "ms", r.tail("react_ms", r.reactMs, 0.9))
		put("loss_pct", "%", 100*median(append(series(nil), r.lossEp...)))
	} else {
		r.layerMetrics(put)
	}
	return result{
		Correct:   r.failed == r.refused && len(r.unreportable) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}
}

// layerMetrics derives the per-layer metrics from the traced spans and
// the run-wide counts.
func (r *runner) layerMetrics(put func(name, unit string, v float64)) {
	st := selfStats(r.tr.spans)
	get := func(name string) *layerStat {
		if s, ok := st[name]; ok {
			return s
		}
		return &layerStat{}
	}
	perCall := func(name string) float64 {
		s := get(name)
		if s.Calls == 0 {
			return 0
		}
		return ms(s.Self) / float64(s.Calls)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	solve, place := get("core.solve"), get("core.place")
	lpCalls := float64(solve.Calls + place.Calls)
	lp := solve.Delta.add(place.Delta)
	batch := get("controller.admit_batch")
	replay := get("forward.replay")
	admitAllocs := batch.Delta[cAllocs] + get("controller.install").Delta[cAllocs] + get("controller.reopt").Delta[cAllocs]

	put("core.build_ms", "ms", perCall("core.build"))
	put("core.solve_ms", "ms", perCall("core.solve"))
	put("lp.phase1_pivots", "count", ratio(float64(lp[cPhase1Pivots]), lpCalls))
	put("lp.phase2_pivots", "count", ratio(float64(lp[cPhase2Pivots]), lpCalls))
	put("lp.phase1_ms", "ms", ratio(float64(lp[cPhase1Nanos])/1e6, lpCalls))
	put("lp.phase2_ms", "ms", ratio(float64(lp[cPhase2Nanos])/1e6, lpCalls))
	put("core.place_ms", "ms", perCall("core.place"))
	put("core.place_warm_accepted_ratio", "ratio", ratio(float64(r.warmAccepted), float64(r.places)))
	put("lp.dual_pivots", "count", ratio(float64(lp[cDualPivots]), float64(place.Calls)))
	put("lp.warm_hit_ratio", "ratio", ratio(float64(lp[cWarmHits]), float64(lp[cWarmHits]+lp[cWarmMisses])))
	put("controller.install_ms", "ms", perCall("controller.install"))
	put("controller.enforce_ms", "ms", perCall("controller.enforce"))
	put("controller.rules_installed", "count", ratio(float64(r.rules), float64(r.installed)))
	put("controller.rules_spread", "ratio", r.rulesSpread)
	put("controller.admit_batch_ms", "ms", perCall("controller.admit_batch"))
	put("controller.admit_slowdown", "ratio", r.slowdown())
	put("flowtable.compiles_per_batch", "count", ratio(float64(batch.Delta[cCompiles]), float64(batch.Calls)))
	put("flowtable.installed_rules", "count", ratio(float64(batch.Delta[cInstalledRules]), float64(batch.Calls)))
	put("flowtable.skipped_rules", "count", ratio(float64(batch.Delta[cSkippedRules]), float64(batch.Calls)))
	put("go.gc_cpu_share", "ratio", r.gcCPU)
	put("go.allocs_per_class", "count", ratio(float64(admitAllocs), float64(r.tracedAdmitClasses)))
	put("controller.forward_us", "us", 1e3*perCall("controller.forward"))
	put("controller.forward_hops", "count", ratio(float64(r.hops), float64(r.packets)))
	put("go.allocs_per_packet", "count", ratio(float64(replay.Delta[cAllocs]), float64(r.tracedPackets)))
	put("flowtable.lookup_ns", "ns", 1e6*perCall("flowtable.lookup")/lookupReps)
	put("controller.reopt_ms", "ms", perCall("controller.reopt"))
	put("controller.reopt_rules_touched", "count", ratio(float64(r.reoptRules), float64(r.reopts)))
	put("controller.reopt_classes_changed", "count", ratio(float64(r.reoptChanged), float64(r.reopts)))
	put("txn.unwound", "count", float64(appmetrics.Txn.Unwound.Load()-r.unwound0))
	put("controller.failover_ms", "ms", perCall("controller.failover"))
	put("controller.failover_transitions", "count", ratio(float64(r.transitions), float64(r.snapshots)))
	put("controller.failover_peak_extra_cores", "count", float64(r.peakExtra))
	put("controller.loss_ms", "ms", perCall("controller.loss"))
	put("fail_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)))
	put("trace.overhead_pct", "%", 100*(ratio(median(append(series(nil), r.planTraced...)), median(append(series(nil), r.planUntraced...)))-1))
}

// slowdown is the median batch time of the last tenth of each round over
// that of the first tenth.
func (r *runner) slowdown() float64 {
	n := r.batchesPerRound
	if n == 0 {
		return 0
	}
	k := max(n/10, 1)
	var first, last series
	for i := 0; i < k; i++ {
		first = append(first, r.batchRank[i]...)
		last = append(last, r.batchRank[n-1-i]...)
	}
	f := median(first)
	if f == 0 {
		return 0
	}
	return median(last) / f
}

// report prints the failures and, when traced, the self-time split of
// each root operation kind to w.
func (r *runner) report(w io.Writer) {
	fmt.Fprintf(w, "episodes %d in %.2fs, attempted %d, failed %d\n", r.episodes, r.elapsed.Seconds(), r.attempted, r.failed)
	msgs := make([]string, 0, len(r.failures))
	for msg := range r.failures {
		msgs = append(msgs, msg)
	}
	sort.Strings(msgs)
	for _, msg := range msgs {
		fmt.Fprintf(w, "  %4d× %s\n", r.failures[msg], msg)
	}
	for _, u := range r.unreportable {
		fmt.Fprintf(w, "  unreportable: %s\n", u)
	}
	if r.tr == nil {
		return
	}
	st := selfStats(r.tr.spans)
	roots := make(map[string]time.Duration)
	under := make(map[string]string) // layer → its root kind
	for _, s := range r.tr.spans {
		root := s
		for root.Parent >= 0 {
			root = r.tr.spans[root.Parent]
		}
		if s.Parent < 0 {
			roots[s.Name] += s.End - s.Start
		}
		under[s.Name] = root.Name
	}
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if under[names[i]] != under[names[j]] {
			return under[names[i]] < under[names[j]]
		}
		return st[names[i]].Self > st[names[j]].Self
	})
	fmt.Fprintf(w, "%-24s %-24s %8s %12s %7s\n", "root", "layer", "calls", "self ms", "share")
	for _, n := range names {
		s := st[n]
		share := 0.0
		if t := roots[under[n]]; t > 0 {
			share = float64(s.Self) / float64(t)
		}
		fmt.Fprintf(w, "%-24s %-24s %8d %12.1f %6.1f%%\n", under[n], n, s.Calls, ms(s.Self), 100*share)
	}
}
