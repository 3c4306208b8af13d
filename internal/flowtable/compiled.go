package flowtable

import (
	"slices"
	"sort"
)

// This file is the compiled data plane: an immutable, cache-friendly
// matcher built from a table's rule list and published atomically
// (copy-on-write), so Lookup and Pipeline.Process never take a lock.
//
// The linear scan in LookupLinear emulates a TCAM faithfully but pays
// O(rules) pointer-chasing work per packet. The compiled form uses
// tuple-space partitioning (the classic software-OpenFlow decomposition):
// rules are grouped by *match shape* — which of the eight fields are
// concrete and, for the two prefix fields, the prefix length — so every
// rule within a tuple is an exact match over the same field subset. A
// packet then probes one packed key per tuple instead of one ternary
// comparison per rule, making lookup cost a function of distinct shapes
// (a handful, per Table III) rather than rule count.
//
// Tie-breaking is inherited, not re-implemented: every installed rule
// carries a stable rank — priority descending, then the table's install
// sequence — which is exactly the order the linear table stores its
// rules in, and a lookup returns the best-ranked rule over all matching
// tuples: the same rule the linear scan's first hit finds, byte for
// byte. Because a rank never changes once assigned, an insert renumbers
// nothing, and publication is incremental: tuples are immutable and
// shared between snapshots, so a batch builds new copies only of the
// tuples whose shapes it touches.

// Field-presence bits of a match shape, one per Match field.
const (
	cHostTag uint8 = 1 << iota
	cSubTag
	cInPort
	cSrc
	cDst
	cProto
	cSrcPort
	cDstPort
)

// matchKey packs every concrete field value of one shape into three
// comparable machine words. Fields the shape treats as wildcards stay
// zero on both the rule side and the packet side, so equality of keys is
// exactly "the packet satisfies every concrete field". The packing is
// the arena/SoA representation of Match: the eight pointer fields of a
// rule collapse into this flat value plus the tuple's presence mask, and
// a tuple stores its rules' keys in one contiguous slice.
type matchKey struct {
	lo   uint64 // src addr (32, masked) | dst addr (32, masked) << 32
	hi   uint64 // hostTag | subTag<<16 | proto<<24 | srcPort<<32 | dstPort<<48
	port int64  // InPort, full int range
}

// shapeKey identifies a tuple: the concrete-field mask plus the two
// prefix lengths (1..32; a nil or zero-length prefix is a wildcard and
// contributes no bit).
type shapeKey struct {
	mask           uint8
	srcLen, dstLen int8
}

// clampLen normalizes a Prefix.Len to the effective number of compared
// bits: Contains treats Len <= 0 as match-everything and Len >= 32 as
// full-address equality.
func clampLen(l int) int8 {
	if l <= 0 {
		return 0
	}
	if l >= 32 {
		return 32
	}
	return int8(l)
}

// prefixMask returns the 32-bit mask selecting the top l bits, l in 1..32.
func prefixMask(l int8) uint32 {
	return ^uint32(0) << (32 - uint(l))
}

// shapeOf extracts a match's shape.
func shapeOf(m Match) shapeKey {
	var s shapeKey
	if m.HostTag != nil {
		s.mask |= cHostTag
	}
	if m.SubTag != nil {
		s.mask |= cSubTag
	}
	if m.InPort != nil {
		s.mask |= cInPort
	}
	if m.Src != nil {
		if l := clampLen(m.Src.Len); l > 0 {
			s.mask |= cSrc
			s.srcLen = l
		}
	}
	if m.Dst != nil {
		if l := clampLen(m.Dst.Len); l > 0 {
			s.mask |= cDst
			s.dstLen = l
		}
	}
	if m.Proto != nil {
		s.mask |= cProto
	}
	if m.SrcPort != nil {
		s.mask |= cSrcPort
	}
	if m.DstPort != nil {
		s.mask |= cDstPort
	}
	return s
}

// ruleKey packs the concrete field values of a match with the given
// shape. Prefix addresses are masked to the compared bits so rules whose
// spare low bits differ still collide onto one key, mirroring
// Prefix.Contains.
func ruleKey(m Match, s shapeKey) matchKey {
	var k matchKey
	if s.mask&cSrc != 0 {
		k.lo = uint64(m.Src.Addr & prefixMask(s.srcLen))
	}
	if s.mask&cDst != 0 {
		k.lo |= uint64(m.Dst.Addr&prefixMask(s.dstLen)) << 32
	}
	if s.mask&cHostTag != 0 {
		k.hi = uint64(*m.HostTag)
	}
	if s.mask&cSubTag != 0 {
		k.hi |= uint64(*m.SubTag) << 16
	}
	if s.mask&cProto != 0 {
		k.hi |= uint64(*m.Proto) << 24
	}
	if s.mask&cSrcPort != 0 {
		k.hi |= uint64(*m.SrcPort) << 32
	}
	if s.mask&cDstPort != 0 {
		k.hi |= uint64(*m.DstPort) << 48
	}
	if s.mask&cInPort != 0 {
		k.port = int64(*m.InPort)
	}
	return k
}

// tupleHashCutoff is the rule count above which a tuple switches from a
// contiguous key scan to a hash table. Small tuples stay as flat slices:
// a handful of 24-byte equality tests over contiguous memory beats a
// hash probe, and most shapes (routing, host-match, pass-by) hold only a
// few rules per table.
const tupleHashCutoff = 8

// rank is a rule's position in match order: higher priority first, then
// earlier install. Install sequences are unique per table, so ranks are
// a total order, and they are stable: installing or removing other rules
// never changes a rule's rank.
type rank struct {
	prio int
	seq  uint64
}

// before reports whether a precedes b in match order.
//
//apple:noalloc
func (a rank) before(b rank) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

// entry is one installed rule: the single stored copy, shared by the
// table's rule list, every snapshot whose tuples hold it, and the
// removal log of an open undo mark. It is immutable once installed.
type entry struct {
	Rule
	seq uint64 // per-table install sequence
}

// rank returns the entry's match-order rank.
//
//apple:noalloc
func (e *entry) rank() rank { return rank{prio: e.Priority, seq: e.seq} }

// byRank orders entries by match order, for slices.SortStableFunc.
func byRank(a, b *entry) int {
	switch {
	case a.rank().before(b.rank()):
		return -1
	case b.rank().before(a.rank()):
		return 1
	}
	return 0
}

// kv is one slot of a hashed tuple: a packed key and the best-ranked
// rule carrying it.
type kv struct {
	k matchKey
	e *entry
}

// hash mixes a key into 64 bits for bucket selection (multiply-xorshift:
// key fields are small structured values that need mixing). A hashed
// tuple is its own table rather than a Go map so that a batch can copy
// just the buckets it touches instead of cloning the whole map.
//
//apple:noalloc
func (k matchKey) hash() uint64 {
	h := k.lo*0x9E3779B97F4A7C15 ^ k.hi*0xC2B2AE3D27D4EB4F ^ uint64(k.port)*0x165667B19E3779F9
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return h
}

// tuple is one match shape's compiled rule set. Exactly one of
// (keys,ents) and buckets is populated. A published tuple is immutable
// and may be shared by many snapshots; a batch that touches the shape
// builds a new tuple instead of editing it.
type tuple struct {
	shape            shapeKey
	srcMask, dstMask uint32
	// top is the best rank in this tuple — the best outcome a probe of
	// it can produce. Snapshots sort tuples by it, so a lookup stops as
	// soon as the current winner beats every remaining tuple.
	top  rank
	keys []matchKey // linear tuples: packed rule keys, match order
	ents []*entry   // rule per key
	// buckets is a hashed tuple's table: a power-of-two number of
	// buckets, key k in buckets[k.hash()&(len-1)], each holding only the
	// best-ranked rule per key (later duplicates can never win). A
	// bucket is never written after publication, so a new tuple shares
	// every bucket a batch leaves alone and an insert copies only the
	// bucket it lands in.
	buckets [][]kv
	n       int // keys in buckets
}

// newTuple returns an empty tuple of the given shape.
func newTuple(s shapeKey) *tuple {
	t := &tuple{shape: s}
	if s.mask&cSrc != 0 {
		t.srcMask = prefixMask(s.srcLen)
	}
	if s.mask&cDst != 0 {
		t.dstMask = prefixMask(s.dstLen)
	}
	return t
}

// maxLoad is the average keys per bucket a hashed tuple may reach before
// a batch re-lays it out over more buckets.
const maxLoad = 4

// bucketsFor is the bucket count a hashed tuple of n keys is laid out
// with: a power of two giving at most two keys per bucket, so batches
// insert into it until the load passes maxLoad and a relayout happens
// once per doubling.
func bucketsFor(n int) int {
	b := 8
	for 2*b < n {
		b <<= 1
	}
	return b
}

// with returns a new tuple holding t's rules plus add, which must be in
// match order and of t's shape; t itself is left untouched. A linear
// tuple that stays within tupleHashCutoff is merged; a hashed tuple with
// room copies its bucket array (one slice header per bucket) and only
// the buckets add lands in; anything else is laid out afresh as a hashed
// tuple.
func (t *tuple) with(add []*entry) *tuple {
	nt := newTuple(t.shape)
	nt.top = add[0].rank()
	if len(t.keys)+t.n > 0 && t.top.before(nt.top) {
		nt.top = t.top
	}
	switch n := len(t.keys) + t.n + len(add); {
	case t.buckets == nil && n <= tupleHashCutoff:
		nt.mergeLinear(t, add)
	case t.buckets != nil && n <= maxLoad*len(t.buckets):
		nt.buckets = slices.Clone(t.buckets)
		nt.n = t.n
		for _, e := range add {
			nt.insert(ruleKey(e.Match, t.shape), e)
		}
	default:
		all := make([]kv, 0, n)
		for i, k := range t.keys {
			all = append(all, kv{k, t.ents[i]})
		}
		for _, b := range t.buckets {
			all = append(all, b...)
		}
		for _, e := range add {
			all = append(all, kv{ruleKey(e.Match, t.shape), e})
		}
		nt.build(all)
	}
	return nt
}

// mergeLinear fills nt's linear key list with t's and add's rules, in
// match order.
func (nt *tuple) mergeLinear(t *tuple, add []*entry) {
	n := len(t.keys) + len(add)
	nt.keys = make([]matchKey, 0, n)
	nt.ents = make([]*entry, 0, n)
	i := 0
	for _, e := range add {
		for i < len(t.ents) && t.ents[i].rank().before(e.rank()) {
			nt.keys = append(nt.keys, t.keys[i])
			nt.ents = append(nt.ents, t.ents[i])
			i++
		}
		nt.keys = append(nt.keys, ruleKey(e.Match, t.shape))
		nt.ents = append(nt.ents, e)
	}
	nt.keys = append(nt.keys, t.keys[i:]...)
	nt.ents = append(nt.ents, t.ents[i:]...)
}

// build lays out a fresh hashed table over all: the slots are sorted
// into one array by bucket (a counting sort), and each bucket keeps the
// best-ranked slot per key.
func (nt *tuple) build(all []kv) {
	nt.buckets = make([][]kv, bucketsFor(len(all)))
	mask := uint64(len(nt.buckets) - 1)
	start := make([]int, len(nt.buckets)+1)
	for _, s := range all {
		start[s.k.hash()&mask+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	arena := make([]kv, len(all))
	fill := slices.Clone(start[:len(nt.buckets)])
	for _, s := range all {
		i := s.k.hash() & mask
		arena[fill[i]] = s
		fill[i]++
	}
	for i := range nt.buckets {
		// Compact the bucket's region in place; writes never pass reads.
		b := arena[start[i]:start[i]]
	next:
		for _, s := range arena[start[i]:start[i+1]] {
			for j := range b {
				if b[j].k == s.k {
					if s.e.rank().before(b[j].e.rank()) {
						b[j] = s
					}
					continue next
				}
			}
			b = append(b, s)
		}
		nt.buckets[i] = b[:len(b):len(b)] // an append can never reach the next bucket
		nt.n += len(b)
	}
}

// insert adds e under key k to a tuple whose bucket array was just
// copied, copying the one bucket it touches; a key already present keeps
// the better-ranked rule.
func (nt *tuple) insert(k matchKey, e *entry) {
	i := k.hash() & uint64(len(nt.buckets)-1)
	b := nt.buckets[i]
	for j := range b {
		if b[j].k == k {
			if e.rank().before(b[j].e.rank()) {
				b = slices.Clone(b)
				b[j].e = e
				nt.buckets[i] = b
			}
			return
		}
	}
	nb := make([]kv, len(b)+1)
	copy(nb, b)
	nb[len(b)] = kv{k, e}
	nt.buckets[i] = nb
	nt.n++
}

// packetKey packs the packet fields this tuple's shape compares. It is
// the hot-path twin of ruleKey: pure arithmetic, no branches on rule
// data, no allocation.
//
//apple:noalloc
func (t *tuple) packetKey(p *Packet) matchKey {
	var k matchKey
	m := t.shape.mask
	if m&cSrc != 0 {
		k.lo = uint64(p.Hdr.SrcIP & t.srcMask)
	}
	if m&cDst != 0 {
		k.lo |= uint64(p.Hdr.DstIP&t.dstMask) << 32
	}
	if m&cHostTag != 0 {
		k.hi = uint64(p.HostTag)
	}
	if m&cSubTag != 0 {
		k.hi |= uint64(p.SubTag) << 16
	}
	if m&cProto != 0 {
		k.hi |= uint64(p.Hdr.Proto) << 24
	}
	if m&cSrcPort != 0 {
		k.hi |= uint64(p.Hdr.SrcPort) << 32
	}
	if m&cDstPort != 0 {
		k.hi |= uint64(p.Hdr.DstPort) << 48
	}
	if m&cInPort != 0 {
		k.port = int64(p.InPort)
	}
	return k
}

// compiledTable is an immutable snapshot of the tuple-space index over a
// table's rules. Once published via the table's atomic pointer it is
// never mutated, so readers share it without synchronization.
type compiledTable struct {
	tuples []*tuple // sorted by top rank, best first
}

// withEntries returns the snapshot that adds the given rules, which must
// be in match order, to base (nil for an empty table). Tuples of shapes
// add does not touch are shared with base pointer for pointer; each
// touched shape gets a new tuple, so publication costs O(batch) plus the
// touched tuples, not O(table).
func withEntries(base *compiledTable, add []*entry) *compiledTable {
	byShape := make(map[shapeKey][]*entry)
	var fresh []shapeKey // shapes base lacks, in first-appearance order
	for _, e := range add {
		s := shapeOf(e.Match)
		if _, ok := byShape[s]; !ok {
			fresh = append(fresh, s)
		}
		byShape[s] = append(byShape[s], e)
	}
	c := &compiledTable{}
	if base != nil {
		c.tuples = make([]*tuple, 0, len(base.tuples)+len(byShape))
		for _, t := range base.tuples {
			if group, ok := byShape[t.shape]; ok {
				t = t.with(group)
				delete(byShape, t.shape)
			}
			c.tuples = append(c.tuples, t)
		}
	}
	for _, s := range fresh {
		if group, ok := byShape[s]; ok {
			c.tuples = append(c.tuples, newTuple(s).with(group))
		}
	}
	sort.Slice(c.tuples, func(a, b int) bool { return c.tuples[a].top.before(c.tuples[b].top) })
	return c
}

// lookup returns the best-ranked matching rule over every tuple —
// identical to the linear scan's first hit — or nil. Probing order is
// ascending top rank, so the loop exits as soon as no remaining tuple
// can beat the current winner.
//
//apple:noalloc
func (c *compiledTable) lookup(p *Packet) *entry {
	var best *entry
	var bestRank rank
	for _, t := range c.tuples {
		if best != nil && !t.top.before(bestRank) {
			break
		}
		k := t.packetKey(p)
		var hit *entry
		if t.buckets != nil {
			b := t.buckets[k.hash()&uint64(len(t.buckets)-1)]
			for n := range b {
				if b[n].k == k {
					hit = b[n].e
					break
				}
			}
		} else {
			for n := range t.keys {
				if t.keys[n] == k {
					hit = t.ents[n]
					break
				}
			}
		}
		if hit != nil && (best == nil || hit.rank().before(bestRank)) {
			best, bestRank = hit, hit.rank()
		}
	}
	return best
}
