package stream

import "math"

// The one compiled predicate. A range/key conjunction is written down
// once, as an Interest, and compiled once, against the schema its tuples
// have, into a CompiledInterest: constraints in flat slices indexed by
// field position, no name resolution, map iteration or allocation per
// tuple. The relay's early filtering (MatchIndex), the row-at-a-time
// operator (operator.Filter.Process) and the shard engine's column scan
// (operator.Filter.ProcessBatch) all evaluate that one struct, so an
// ancestor's filter accepts exactly what the query's own filter accepts.
// Interest.Matches stays as the interpreted reference the tests hold both
// evaluators to.

// rangeCheck is one compiled numeric constraint: field position plus the
// closed interval.
type rangeCheck struct {
	idx    int
	lo, hi float64
}

// keyCheck is one compiled string-membership constraint. In the row
// evaluator, single-key sets (by far the most common registration:
// "symbol == ibm") compare directly against one string and larger sets
// probe a map keyed only at compile time; the column evaluator tests a
// bit of a KeyBits bound from them either way.
type keyCheck struct {
	idx    int
	single string
	set    map[string]struct{} // nil when single carries the constraint
}

// CompiledInterest is an Interest bound to a Schema, with a row
// evaluator (MatchValues) and a column evaluator (Apply). It is immutable
// after compilation and safe for concurrent use. Both evaluators, and
// the interpreted Interest.Matches, give every (interest, tuple) pair the
// same verdict under this contract:
//
//  1. A range constraint reads Value.AsFloat — ints convert, anything
//     else reads 0 — and holds iff v >= Lo && v <= Hi (Range.Contains).
//     NaN is therefore in no range, not even an unbounded one, and ±Inf
//     is in a range only when that bound is itself infinite. A range
//     with Hi < Lo (an empty intersection) holds for nothing.
//  2. A key constraint reads Value.AsString — "" for every non-string
//     value — and holds iff that string is in the set, so "" matches
//     only a set that lists "". An empty set holds for nothing.
//  3. A field position past the end of a short tuple reads the zero
//     Value: 0 under a range, "" under a key set.
//  4. Constraints are a conjunction and independent of each other, so
//     the order they are checked in never changes a verdict, and an
//     interest with none holds for everything.
//  5. A constraint on a field the schema does not declare makes the
//     interest dead: it holds for nothing. NewMatchIndex drops dead
//     terms; the engine refuses to compile a filter step into one.
//
// The stream name is not part of the compiled form: a MatchIndex checks
// it once per tuple for all its terms, and a filter step runs on
// post-join tuples, whose Stream is the join's.
type CompiledInterest struct {
	dead   bool
	ranges []rangeCheck
	keys   []keyCheck
}

// deadInterest is what an interest that constrains an undeclared field
// compiles to. Its one check is the empty range: no value, NaN and ±Inf
// included, is in [+Inf, -Inf], so both evaluators reject every row
// without testing a flag per row.
func deadInterest() CompiledInterest {
	return CompiledInterest{dead: true, ranges: []rangeCheck{{lo: math.Inf(1), hi: math.Inf(-1)}}}
}

// CompileInterest resolves the interest's field names against the schema
// and returns the compiled form — the only way to build one. A nil
// schema resolves nothing, so every constrained interest compiles dead.
func CompileInterest(in Interest, s *Schema) CompiledInterest {
	var c CompiledInterest
	if s == nil && !in.Unconstrained() {
		return deadInterest()
	}
	for field, r := range in.Ranges {
		i, ok := s.FieldIndex(field)
		if !ok {
			return deadInterest()
		}
		c.ranges = append(c.ranges, rangeCheck{idx: i, lo: r.Lo, hi: r.Hi})
	}
	for field, set := range in.Keys {
		i, ok := s.FieldIndex(field)
		if !ok {
			return deadInterest()
		}
		kc := keyCheck{idx: i}
		if len(set) == 1 {
			for k := range set {
				kc.single = k
			}
		} else {
			kc.set = make(map[string]struct{}, len(set))
			for k := range set {
				kc.set[k] = struct{}{}
			}
		}
		c.keys = append(c.keys, kc)
	}
	return c
}

// MatchValues is the row evaluator: it reports whether the tuple's
// values satisfy every constraint. It does not look at the stream name.
// It takes the tuple by pointer and indexes Values in place: the match
// loop runs once per (tuple, candidate term), and an 80-byte Tuple copy
// per call was a tenth of a relay's samples.
func (c *CompiledInterest) MatchValues(t *Tuple) bool {
	vals := t.Values
	for i := range c.ranges {
		rc := &c.ranges[i]
		v := 0.0
		if rc.idx < len(vals) {
			v = vals[rc.idx].AsFloat()
		}
		if !(v >= rc.lo && v <= rc.hi) {
			return false
		}
	}
	for i := range c.keys {
		kc := &c.keys[i]
		sv := ""
		if kc.idx < len(vals) {
			sv = vals[kc.idx].s
		}
		if kc.set == nil {
			if sv != kc.single {
				return false
			}
		} else if _, ok := kc.set[sv]; !ok {
			return false
		}
	}
	return true
}

// KeyBits is a CompiledInterest's key constraints bound to one
// ColBatch's key dictionary: per constraint, a bitset over the
// dictionary's ids with the bit of every key it lists set. It is the
// caller's state beside the immutable interest — operator.Filter keeps
// one — and, like the ColBatch it is bound to, belongs to one goroutine.
// The zero value is unbound.
type KeyBits struct {
	cb   *ColBatch
	sets [][]uint64
}

// bind adds every key c's key constraints list to cb's dictionary and
// records them in kb. Ids are append-only, so kb stays valid for cb
// however many keys are bound to cb after it: a later id is past the
// end of kb's sets, and reads as not listed.
func (c *CompiledInterest) bind(cb *ColBatch, kb *KeyBits) {
	kb.cb = cb
	if cap(kb.sets) < len(c.keys) {
		kb.sets = make([][]uint64, len(c.keys))
	}
	kb.sets = kb.sets[:len(c.keys)]
	for k := range c.keys {
		kc := &c.keys[k]
		set := kb.sets[k][:0]
		if kc.set == nil {
			set = setBit(set, cb.keyID(kc.single))
		}
		for key := range kc.set {
			set = setBit(set, cb.keyID(key))
		}
		kb.sets[k] = set
	}
}

// setBit sets bit id in set, growing it as far as that word.
func setBit(set []uint64, id int32) []uint64 {
	for len(set) <= int(id>>6) {
		set = append(set, 0)
	}
	set[id>>6] |= 1 << (id & 63)
	return set
}

// Apply is the column evaluator: it scans the batch's columns and
// compacts the selection vector to the rows MatchValues accepts,
// returning their count. One call covers the whole batch: no per-row
// function calls, no per-row locks, no allocations once kb is bound. A
// key constraint tests one bit per row of the key-id column; kb is bound
// to cb on the first call with cb, and again only when handed another
// ColBatch.
func (c *CompiledInterest) Apply(cb *ColBatch, kb *KeyBits) int {
	if len(c.keys) > 0 && kb.cb != cb {
		c.bind(cb, kb)
	}
	sel := cb.sel
	for r := range c.ranges {
		rc := &c.ranges[r]
		col := cb.FloatCol(rc.idx)
		lo, hi := rc.lo, rc.hi
		out := sel[:0]
		for _, i := range sel {
			v := col[i]
			if !(v >= lo && v <= hi) {
				continue
			}
			out = append(out, i)
		}
		sel = out
	}
	for k := range c.keys {
		col := cb.KeyCol(c.keys[k].idx)
		set := kb.sets[k]
		out := sel[:0]
		for _, i := range sel {
			id := uint32(col[i])
			if w := id >> 6; w >= uint32(len(set)) || set[w]&(1<<(id&63)) == 0 {
				continue
			}
			out = append(out, i)
		}
		sel = out
	}
	cb.sel = sel
	return len(sel)
}

// Dead reports whether the interest constrains a field its schema does
// not declare, and so holds for nothing.
func (c *CompiledInterest) Dead() bool { return c.dead }

// CompiledSet is an InterestSet bound to a schema: a disjunction of
// compiled terms sharing one stream check — the one-owner case of
// MatchIndex, which holds the only loop over compiled terms. It is
// immutable after compilation and safe for concurrent use.
type CompiledSet struct {
	ix *MatchIndex
}

// CompileSet compiles every term of the set against the schema. Dead
// terms (constraining fields the schema lacks) are dropped — they can
// never match, exactly as in the interpreted evaluation.
func CompileSet(set *InterestSet, s *Schema) *CompiledSet {
	return &CompiledSet{ix: NewMatchIndex(set.Stream, s, []*InterestSet{set})}
}

// Matches reports whether any term matches the tuple. Equivalent to
// InterestSet.Matches against the compile-time schema.
func (cs *CompiledSet) Matches(t Tuple) bool {
	var slab, lens [1]int32
	one := Routed{slab: slab[:], lens: lens[:], stride: 1}
	cs.ix.route(&t, 0, &one)
	return lens[0] > 0
}
