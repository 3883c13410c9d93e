package stream

// One match per tuple. A relay holds one disjunction of terms per
// consumer — its entity's local set and one registration per child — and
// the paper's early filtering (Section 3.1) asks, for every tuple, which
// of them it satisfies. MatchIndex answers that for all consumers in one
// pass: terms that constrain the field most terms are keyed on (for
// quotes, symbol) are filed under each of their keys in one hash map, a
// tuple is hashed once on that field, and only the candidate terms run
// what is left of their predicate. This is the subscription index of
// Chen et al., "Distributed Publish/Subscribe Query Processing on the
// Spatio-Textual Data Stream": hash on the attribute the subscriptions
// key on, then verify the candidates. It is the only code that evaluates
// a disjunction of compiled terms; CompiledSet is its one-owner case, and
// the interpreted InterestSet.Matches is the reference the tests hold it
// to.

// keyedTerm is one term filed under its keys on the hashed field. pred
// is the term without that key constraint, which the probe has already
// proved by the time pred runs.
type keyedTerm struct {
	owner int32
	pred  CompiledInterest
}

// ownerTerms lists the terms of one owner that are not filed in the key
// map: terms without a key constraint on the hashed field.
type ownerTerms struct {
	owner int32
	terms []CompiledInterest
}

// MatchIndex evaluates the disjunctions of a fixed list of owners over
// one stream. It is immutable after NewMatchIndex and safe for
// concurrent use; a change to any owner's terms is a new index.
type MatchIndex struct {
	stream string
	// nterms counts each owner's live (non-dead) terms; its length is the
	// number of owners.
	nterms []int
	// keyIdx is the field position tuples are hashed on, -1 when no term
	// has a key constraint (the terms of owners in all are not looked at).
	keyIdx int
	// keyed maps a key of the hashed field to the terms listing it, as
	// ascending positions in terms. terms is in owner order, so every
	// candidate list is too, which is what lets route skip an owner's
	// remaining candidates after its first match.
	keyed map[string][]int32
	terms []keyedTerm
	// resid holds, per owner that has any, the terms outside the key map.
	resid []ownerTerms
	// all lists the owners that registered an unconstrained term: they
	// take every row of the index's stream and none of their terms is
	// filed.
	all []int32
	// every lists the owners with no registration: they take every row,
	// whatever its stream — the safe default for a child whose interest
	// an ancestor has not heard yet.
	every []int32
}

// NewMatchIndex compiles every owner's terms against the schema and
// files them. owners[i] is owner i's disjunction; a nil entry is an
// owner with no registration, which takes every row. Every set is
// evaluated as a set of streamName's: the stream is checked once per
// tuple, not per term. Dead terms (constraining a field the schema
// lacks) are dropped — they can never match, exactly as in the
// interpreted evaluation.
func NewMatchIndex(streamName string, s *Schema, owners []*InterestSet) *MatchIndex {
	ix := &MatchIndex{stream: streamName, nterms: make([]int, len(owners)), keyIdx: -1}
	compiled := make([][]CompiledInterest, len(owners))
	var keyedOn []int // terms with a key constraint, by field position
	for o, set := range owners {
		if set == nil {
			ix.every = append(ix.every, int32(o))
			continue
		}
		all := false
		for _, term := range set.Terms {
			ct := CompileInterest(term, s)
			if ct.dead {
				continue
			}
			ix.nterms[o]++
			all = all || len(ct.ranges)+len(ct.keys) == 0
			compiled[o] = append(compiled[o], ct)
		}
		if all {
			ix.all = append(ix.all, int32(o))
			compiled[o] = nil
			continue
		}
		for _, ct := range compiled[o] {
			for _, kc := range ct.keys {
				for len(keyedOn) <= kc.idx {
					keyedOn = append(keyedOn, 0)
				}
				keyedOn[kc.idx]++
			}
		}
	}
	most := 0
	for idx, n := range keyedOn {
		if n > most {
			ix.keyIdx, most = idx, n
		}
	}
	if ix.keyIdx >= 0 {
		ix.keyed = make(map[string][]int32)
	}
	for o, cts := range compiled {
		var rest []CompiledInterest
		for _, ct := range cts {
			k := ct.keyCheckOn(ix.keyIdx)
			if k < 0 {
				rest = append(rest, ct)
				continue
			}
			kc := ct.keys[k]
			ct.keys = append(ct.keys[:k:k], ct.keys[k+1:]...)
			id := int32(len(ix.terms))
			ix.terms = append(ix.terms, keyedTerm{owner: int32(o), pred: ct})
			if kc.set == nil {
				ix.keyed[kc.single] = append(ix.keyed[kc.single], id)
			}
			for key := range kc.set {
				ix.keyed[key] = append(ix.keyed[key], id)
			}
		}
		if len(rest) > 0 {
			ix.resid = append(ix.resid, ownerTerms{owner: int32(o), terms: rest})
		}
	}
	return ix
}

// keyCheckOn returns the position in c.keys of the key constraint on
// field position idx, or -1. An interest constrains a field at most once
// per kind, so there is at most one.
func (c *CompiledInterest) keyCheckOn(idx int) int {
	for k := range c.keys {
		if c.keys[k].idx == idx {
			return k
		}
	}
	return -1
}

// route adds row to the list of every owner the tuple satisfies. Each
// owner stops at its first matching term.
func (ix *MatchIndex) route(t *Tuple, row int32, out *Routed) {
	for _, o := range ix.every {
		out.add(o, row)
	}
	if t.Stream != ix.stream {
		return
	}
	for _, o := range ix.all {
		out.add(o, row)
	}
	if ix.keyIdx >= 0 {
		// Contract points 2–3 of CompiledInterest: a non-string or
		// missing value reads "".
		key := ""
		if ix.keyIdx < len(t.Values) {
			key = t.Values[ix.keyIdx].s
		}
		matched := int32(-1)
		for _, id := range ix.keyed[key] {
			term := &ix.terms[id]
			if term.owner == matched || !term.pred.MatchValues(t) {
				continue
			}
			matched = term.owner
			out.add(matched, row)
		}
	}
	for i := range ix.resid {
		ro := &ix.resid[i]
		if out.has(ro.owner, row) {
			continue // one of the owner's keyed terms already matched
		}
		for j := range ro.terms {
			if ro.terms[j].MatchValues(t) {
				out.add(ro.owner, row)
				break
			}
		}
	}
}

// Routed is the reusable result of Route: one list of batch row numbers
// per owner. The lists live in one slab — owner o's is
// slab[o*stride:][:lens[o]] — so that a pooled Routed handed from a
// one-owner relay to a twelve-child hub grows once, not once per owner,
// and so that route stores nothing but integers through it (a match on
// the stack, CompiledSet.Matches, then stays on the stack).
type Routed struct {
	slab   []int32
	lens   []int32
	stride int
}

// Rows returns the rows of the last routed batch that the owner matches,
// in batch order. The slice is valid until the next Route into rt.
func (rt *Routed) Rows(owner int) []int32 {
	lo := owner * rt.stride
	hi := lo + int(rt.lens[owner])
	return rt.slab[lo:hi:hi]
}

// add appends row to the owner's list. A row is added at most once per
// owner and there are at most stride rows, so the list never overruns.
func (rt *Routed) add(owner, row int32) {
	rt.slab[int(owner)*rt.stride+int(rt.lens[owner])] = row
	rt.lens[owner]++
}

// has reports whether row, the row being routed, is already on the
// owner's list: rows arrive in order, so it can only be the last entry.
func (rt *Routed) has(owner, row int32) bool {
	n := int(rt.lens[owner])
	return n > 0 && rt.slab[int(owner)*rt.stride+n-1] == row
}

// Route matches a whole batch against every owner in one pass and
// leaves, per owner and in batch order, the rows that owner matches in
// out. It allocates only when out has to grow.
func (ix *MatchIndex) Route(batch Batch, out *Routed) {
	n, owners := len(batch), len(ix.nterms)
	if cap(out.slab) < n*owners {
		out.slab = make([]int32, n*owners)
	}
	if cap(out.lens) < owners {
		out.lens = make([]int32, owners)
	}
	out.slab, out.lens, out.stride = out.slab[:n*owners], out.lens[:owners], n
	clear(out.lens)
	for i := range batch {
		ix.route(&batch[i], int32(i), out)
	}
}
