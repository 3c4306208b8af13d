package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	appmetrics "github.com/apple-nfv/apple/internal/metrics"
)

// Counter indices of a counter vector read around every traced call. The
// program's counters are process-wide; the benchmark drives one
// controller from one goroutine, so the delta around a call belongs to
// that call alone.
const (
	cPhase1Pivots = iota
	cPhase2Pivots
	cDualPivots
	cPhase1Nanos
	cPhase2Nanos
	cWarmHits
	cWarmMisses
	cCompiles
	cInstalledRules
	cSkippedRules
	cAllocs
	numCounters
)

type counters [numCounters]int64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) add(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// readCounters snapshots the LP and flow-setup counters plus
// the heap allocation count. runtime/metrics counts small allocations only
// when a span is refilled, too coarse for one call, so the count comes
// from ReadMemStats, which is exact.
func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lp := &appmetrics.LP
	fs := &appmetrics.FlowSetup
	return counters{
		cPhase1Pivots:   lp.Phase1Pivots.Load(),
		cPhase2Pivots:   lp.Phase2Pivots.Load(),
		cDualPivots:     lp.DualPivots.Load(),
		cPhase1Nanos:    lp.Phase1Nanos.Load(),
		cPhase2Nanos:    lp.Phase2Nanos.Load(),
		cWarmHits:       lp.WarmHits.Load(),
		cWarmMisses:     lp.WarmMisses.Load(),
		cCompiles:       fs.TableCompiles.Load(),
		cInstalledRules: fs.InstalledRules.Load(),
		cSkippedRules:   fs.SkippedRules.Load(),
		cAllocs:         int64(ms.Mallocs),
	}
}

// span is one timed call. Parent is the index of the enclosing span, or
// -1 for a root; Op identifies the workload operation the call served.
type span struct {
	Name    string        `json:"name"`
	Op      int64         `json:"op"`
	Parent  int32         `json:"parent"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Delta   counters      `json:"-"`
	before  counters
	counted bool
}

// tracer keeps spans in memory. A nil or disabled tracer records nothing,
// so the untraced runs pay one branch per call.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
	stack []int32
	op    int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on }

// begin opens a span under the innermost open one and returns its index,
// or -1 when tracing is off.
func (t *tracer) begin(name string) int32 { return t.open(name, true) }

// beginTime opens a span that records time only. Reading the counters
// stops the world for about 10 µs, too much around a microsecond call;
// such calls' counts land in the enclosing span.
func (t *tracer) beginTime(name string) int32 { return t.open(name, false) }

func (t *tracer) open(name string, count bool) int32 {
	if !t.enabled() {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	s := span{Name: name, Op: t.op, Parent: parent, counted: count}
	if count {
		s.before = readCounters()
	}
	s.Start = time.Since(t.base)
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.base)
	if s.counted {
		s.Delta = readCounters().sub(s.before)
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// layerStat is one layer's exclusive share of the traced work.
type layerStat struct {
	Calls int
	Self  time.Duration
	Delta counters
}

// selfStats attributes time and counter deltas to layers. A span's self
// time is its duration minus the part of it its direct children cover; its
// own counter delta is its delta minus its children's, so every pivot or
// allocation is charged to the innermost call it happened in.
func selfStats(spans []span) map[string]*layerStat {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*layerStat)
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		ivs := make([][2]time.Duration, 0, len(children[i]))
		delta := s.Delta
		for _, c := range children[i] {
			ivs = append(ivs, [2]time.Duration{spans[c].Start, spans[c].End})
			delta = delta.sub(spans[c].Delta)
		}
		st.Calls++
		st.Self += s.End - s.Start - covered(ivs, s.Start, s.End)
		st.Delta = st.Delta.add(delta)
	}
	return out
}

// covered returns how much of [lo, hi] the union of the intervals spans.
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
