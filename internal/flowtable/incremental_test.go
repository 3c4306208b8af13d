package flowtable

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Tests for incremental publication and undo marks: a batch republishes
// only the tuples it touches, so every later lookup must still agree
// with the linear reference (a stale shared tuple would not), and a
// Rollback must restore the rule list exactly.

// seqRule decodes one rule for the batch-sequence differential. Shapes
// come from a small set so tuples grow past tupleHashCutoff and keys
// collide; priorities from a small range so new rules land above, below
// and level with installed ones; names from a small pool so removes,
// duplicate names and SkipIfPresent all bite. port makes every install
// distinguishable in a lookup result.
func seqRule(next func() byte, port int) Rule {
	b0, b1, b2 := next(), next(), next()
	var m Match
	switch b0 % 5 {
	case 0:
		m.HostTag = U16(uint16(b1 % 12))
	case 1:
		m.HostTag = U16(uint16(b1 % 4))
		m.SubTag = U8(b2 % 4)
	case 2:
		m.Src = &Prefix{Addr: uint32(b1%16) << 24, Len: 8}
	case 3:
		m.Src = &Prefix{Addr: uint32(b1%4)<<24 | uint32(b2%4)<<16, Len: 16}
		m.InPort = IntPtr(int(b2 % 2))
	}
	return Rule{
		Name:     fmt.Sprintf("n%d", b2%seqNames),
		Priority: int(b0/5) % 4,
		Match:    m,
		Actions:  []Action{{Type: ActForward, Port: port}},
	}
}

// seqNames is the size of the rule-name pool: small enough for
// duplicates, large enough that a remove leaves most tuples standing and
// tables grow into hashed tuples.
const seqNames = 24

// seqPacket decodes a packet over the value ranges seqRule uses.
func seqPacket(next func() byte) Packet {
	b0, b1, b2 := next(), next(), next()
	var p Packet
	p.HostTag = uint16(b0 % 12)
	p.SubTag = b1 % 4
	p.Hdr.SrcIP = uint32(b0%16)<<24 | uint32(b2%4)<<16
	p.InPort = int(b1 % 2)
	return p
}

// runBatchSequence interprets a byte stream as a sequence of table
// mutations — ApplyBatch, Remove, Mark, Rollback, Release — and after
// every step checks Lookup against LookupLinear on probes packets, and
// that the snapshot published before the step still answers those
// packets as it did then (a published snapshot is immutable, even where
// the new one shares its tuples). After every Rollback, Rules() must
// equal what it was at the matching Mark. Marks nest; Rollback and
// Release close the innermost one.
func runBatchSequence(t *testing.T, next func() byte, steps, probes int) {
	t.Helper()
	tbl := NewTable()
	type open struct {
		mark  Mark
		rules []Rule
	}
	var marks []open
	port := 0
	var prev *compiledTable
	var prevPkts []Packet
	var prevHits []*entry
	for step := 0; step < steps; step++ {
		var what string
		switch next() % 8 {
		case 0, 1, 2, 3:
			n := 1 + int(next()%8)
			ops := make([]BatchOp, n)
			for i := range ops {
				flags := next()
				if flags&3 == 0 {
					ops[i].Remove = fmt.Sprintf("n%d", (flags>>2)%seqNames)
				}
				if flags&16 == 0 {
					port++
					ops[i].Rule = seqRule(next, port)
					ops[i].SkipIfPresent = flags&32 != 0
				}
			}
			if _, err := tbl.ApplyBatch(ops); err != nil {
				t.Fatalf("step %d: ApplyBatch: %v", step, err)
			}
			what = fmt.Sprintf("ApplyBatch(%d ops)", n)
		case 4:
			name := fmt.Sprintf("n%d", next()%seqNames)
			tbl.Remove(name)
			what = "Remove(" + name + ")"
		case 5:
			marks = append(marks, open{mark: tbl.Mark(), rules: tbl.Rules()})
			what = "Mark"
		case 6:
			if len(marks) == 0 {
				continue
			}
			top := marks[len(marks)-1]
			marks = marks[:len(marks)-1]
			tbl.Rollback(top.mark)
			if got := tbl.Rules(); !reflect.DeepEqual(got, top.rules) {
				t.Fatalf("step %d: Rules() after Rollback differ from Rules() at Mark\n got %+v\nwant %+v", step, got, top.rules)
			}
			what = "Rollback"
		case 7:
			if len(marks) == 0 {
				continue
			}
			tbl.Release(marks[len(marks)-1].mark)
			marks = marks[:len(marks)-1]
			what = "Release"
		}
		checkNameCount(t, tbl, step)
		if prev != nil {
			for i := range prevPkts {
				if got := prev.lookup(&prevPkts[i]); got != prevHits[i] {
					t.Fatalf("step %d (%s): the previous snapshot changed its answer for %+v", step, what, prevPkts[i])
				}
			}
		}
		prev, prevPkts, prevHits = tbl.compiled.Load(), prevPkts[:0], prevHits[:0]
		for i := 0; i < probes; i++ {
			pkt := seqPacket(next)
			got, ok := tbl.Lookup(pkt)
			want, wantOK := tbl.LookupLinear(pkt)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): compiled (%+v,%v) != linear (%+v,%v) for packet %+v",
					step, what, got, ok, want, wantOK, pkt)
			}
			if prev != nil {
				prevPkts = append(prevPkts, pkt)
				prevHits = append(prevHits, prev.lookup(&pkt))
			}
		}
	}
	// Closing every mark leaves nothing logged.
	for i := len(marks) - 1; i >= 0; i-- {
		tbl.Release(marks[i].mark)
	}
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	if tbl.marks != 0 || tbl.removedLog != nil {
		t.Fatalf("after closing every mark: %d open, %d logged", tbl.marks, len(tbl.removedLog))
	}
}

// checkNameCount checks the name index against the rule list.
func checkNameCount(t *testing.T, tbl *Table, step int) {
	t.Helper()
	counts := make(map[string]int)
	for _, r := range tbl.Rules() {
		counts[r.Name]++
	}
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	if len(tbl.nameCount) != len(counts) || (len(counts) > 0 && !reflect.DeepEqual(tbl.nameCount, counts)) {
		t.Fatalf("step %d: nameCount %v != actual %v", step, tbl.nameCount, counts)
	}
}

// TestCompiledMatchesLinearIncremental runs seeded batch sequences
// through runBatchSequence: compiled and linear lookups must agree after
// every single step, not just after the last install.
func TestCompiledMatchesLinearIncremental(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		next := func() byte { return byte(rng.Intn(256)) }
		runBatchSequence(t, next, 80, 24)
	}
}

// FuzzBatchSequence is the fuzzed form of the batch-sequence
// differential. The input is the byte stream; once it is exhausted every
// read yields zero.
func FuzzBatchSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0, 1, 2, 3, 32, 4, 5, 6, 3, 1, 0, 9, 9, 9, 4, 2, 7})
	f.Add([]byte{3, 0, 3, 0, 1, 7, 1, 1, 1, 9, 2, 3, 5, 0, 4, 4, 0, 0, 18, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			i++
			return data[i-1]
		}
		runBatchSequence(t, next, 1+len(data)/3, 4)
	})
}

// TestIncrementalSharesUntouchedTuples pins structure sharing: after a
// batch touching one shape, every other tuple of the new snapshot is
// pointer-identical to the old snapshot's, the touched tuple is a new
// copy, and the old snapshot still answers as before.
func TestIncrementalSharesUntouchedTuples(t *testing.T) {
	tbl := NewTable()
	var ops []BatchOp
	for i := 0; i < 3*tupleHashCutoff; i++ {
		ops = append(ops, BatchOp{Rule: Rule{Name: fmt.Sprintf("tag%d", i), Priority: 20,
			Match: Match{HostTag: U16(uint16(i))}, Actions: []Action{{Type: ActForward, Port: i}}}})
	}
	for i := 0; i < 4; i++ {
		ops = append(ops, BatchOp{Rule: Rule{Name: fmt.Sprintf("dst%d", i), Priority: 10,
			Match: Match{Dst: &Prefix{Addr: uint32(i+1) << 24, Len: 8}}, Actions: []Action{{Type: ActForward, Port: 100 + i}}}})
	}
	ops = append(ops, BatchOp{Rule: Rule{Name: "default", Priority: 0, Actions: []Action{{Type: ActForward, Port: 99}}}})
	if _, err := tbl.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	old := tbl.compiled.Load()
	touched := shapeOf(Match{HostTag: U16(0)})
	pkt := Packet{HostTag: 100}
	if r, _ := tbl.Lookup(pkt); r.Name != "default" {
		t.Fatalf("before the batch got %q, want default", r.Name)
	}
	if _, err := tbl.ApplyBatch([]BatchOp{{Rule: Rule{Name: "tag100", Priority: 20,
		Match: Match{HostTag: U16(100)}, Actions: []Action{{Type: ActForward, Port: 7}}}}}); err != nil {
		t.Fatal(err)
	}
	cur := tbl.compiled.Load()
	if len(cur.tuples) != len(old.tuples) {
		t.Fatalf("tuple count %d -> %d", len(old.tuples), len(cur.tuples))
	}
	oldByShape := make(map[shapeKey]*tuple)
	for _, tp := range old.tuples {
		oldByShape[tp.shape] = tp
	}
	for _, tp := range cur.tuples {
		if tp.shape == touched {
			if tp == oldByShape[tp.shape] {
				t.Fatal("touched tuple was edited in place instead of copied")
			}
			continue
		}
		if tp != oldByShape[tp.shape] {
			t.Fatalf("untouched tuple %+v was rebuilt", tp.shape)
		}
	}
	if e := old.lookup(&pkt); e == nil || e.Name != "default" {
		t.Fatalf("old snapshot changed under a new batch: %+v", e)
	}
	if r, _ := tbl.Lookup(pkt); r.Name != "tag100" {
		t.Fatalf("after the batch got %q, want tag100", r.Name)
	}
}

// TestRollbackRestoresOrderAndLookups pins the undo contract directly:
// rules removed under a mark come back with their original install
// sequence, so an equal-priority tie resolves as before the removal.
func TestRollbackRestoresOrderAndLookups(t *testing.T) {
	tbl := NewTable()
	mk := func(name string, port int) Rule {
		return Rule{Name: name, Priority: 5, Match: Match{Proto: U8(6)},
			Actions: []Action{{Type: ActForward, Port: port}}}
	}
	for i, name := range []string{"first", "second", "third"} {
		if err := tbl.Install(mk(name, i)); err != nil {
			t.Fatal(err)
		}
	}
	before := tbl.Rules()
	m := tbl.Mark()
	tbl.Remove("first")
	if _, err := tbl.ApplyBatch([]BatchOp{{Rule: mk("first", 9)}, {Remove: "second"}}); err != nil {
		t.Fatal(err)
	}
	var pkt Packet
	pkt.Hdr.Proto = 6
	if r, _ := tbl.Lookup(pkt); r.Name != "third" {
		t.Fatalf("under the mark got %q, want third", r.Name)
	}
	tbl.Rollback(m)
	if got := tbl.Rules(); !reflect.DeepEqual(got, before) {
		t.Fatalf("Rules() after Rollback = %+v, want %+v", got, before)
	}
	if r, _ := tbl.Lookup(pkt); r.Name != "first" || r.Port() != 0 {
		t.Fatalf("after Rollback got %q port %d, want first port 0", r.Name, r.Port())
	}
}
