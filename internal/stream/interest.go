package stream

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Range is a closed numeric interval [Lo, Hi] constraining one field.
type Range struct {
	Lo, Hi float64
}

// Contains reports whether v lies inside the range.
func (r Range) Contains(v float64) bool { return v >= r.Lo && v <= r.Hi }

// Empty reports whether the range contains no values.
func (r Range) Empty() bool { return r.Hi < r.Lo }

// Width returns Hi-Lo, or 0 for an empty range.
func (r Range) Width() float64 {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo
}

// Intersect returns the overlap of two ranges (possibly empty).
func (r Range) Intersect(o Range) Range {
	return Range{Lo: math.Max(r.Lo, o.Lo), Hi: math.Min(r.Hi, o.Hi)}
}

// Union returns the smallest range covering both (the bounding interval).
func (r Range) Union(o Range) Range {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Range{Lo: math.Min(r.Lo, o.Lo), Hi: math.Max(r.Hi, o.Hi)}
}

// Interest is the paper's "data interest": a conjunctive predicate that
// describes the subset of one stream a query (or an entity, after
// aggregation) requires. Each constrained field carries either a numeric
// Range or a string membership set; unconstrained fields match anything.
//
// Interests are the vocabulary with which entities express requirements
// to their dissemination-tree ancestors (early filtering, Section 3.1) and
// from which query-graph edge weights are estimated (Section 3.2.2).
//
// An Interest is immutable once built. WithRange, WithKeys, Intersect and
// Cover return an interest with fresh maps and never write the maps of
// their receiver or arguments, and nobody writes the maps of an interest
// after building it. Interests may therefore share maps, and sets share
// terms: InterestSet.Add keeps the interest it is given, and a relay's
// aggregate holds the very terms its entity and children registered.
// A caller that wants to edit maps in place edits a Clone.
type Interest struct {
	// Stream names the stream this interest applies to.
	Stream string
	// Ranges constrains numeric fields by name.
	Ranges map[string]Range
	// Keys constrains string fields by name to a set of allowed values.
	Keys map[string]map[string]bool
}

// NewInterest returns an unconstrained interest in the named stream
// (i.e. "all of it").
func NewInterest(streamName string) Interest {
	return Interest{Stream: streamName}
}

// WithRange returns a copy of the interest with a numeric range
// constraint added (replacing any prior constraint on the field).
func (in Interest) WithRange(field string, lo, hi float64) Interest {
	out := in.Clone()
	if out.Ranges == nil {
		out.Ranges = make(map[string]Range, 1)
	}
	out.Ranges[field] = Range{Lo: lo, Hi: hi}
	return out
}

// WithKeys returns a copy of the interest constraining a string field to
// the given set of values.
func (in Interest) WithKeys(field string, keys ...string) Interest {
	out := in.Clone()
	if out.Keys == nil {
		out.Keys = make(map[string]map[string]bool, 1)
	}
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	out.Keys[field] = set
	return out
}

// Clone returns a deep copy of the interest.
func (in Interest) Clone() Interest {
	out := Interest{Stream: in.Stream}
	if in.Ranges != nil {
		out.Ranges = make(map[string]Range, len(in.Ranges))
		for k, v := range in.Ranges {
			out.Ranges[k] = v
		}
	}
	if in.Keys != nil {
		out.Keys = make(map[string]map[string]bool, len(in.Keys))
		for f, set := range in.Keys {
			cp := make(map[string]bool, len(set))
			for k := range set {
				cp[k] = true
			}
			out.Keys[f] = cp
		}
	}
	return out
}

// Unconstrained reports whether the interest matches every tuple of its
// stream.
func (in Interest) Unconstrained() bool { return len(in.Ranges) == 0 && len(in.Keys) == 0 }

// Matches reports whether the tuple satisfies the interest. A tuple from
// a different stream never matches. Constraints naming fields absent from
// the schema do not match (a conservative choice that surfaces schema
// drift in tests rather than silently passing data through).
func (in Interest) Matches(s *Schema, t Tuple) bool {
	if t.Stream != in.Stream {
		return false
	}
	for field, r := range in.Ranges {
		i, ok := s.FieldIndex(field)
		if !ok {
			return false
		}
		if !r.Contains(t.Value(i).AsFloat()) {
			return false
		}
	}
	for field, set := range in.Keys {
		i, ok := s.FieldIndex(field)
		if !ok {
			return false
		}
		if !set[t.Value(i).AsString()] {
			return false
		}
	}
	return true
}

// Selectivity estimates the fraction of the stream the interest selects,
// assuming independent, uniformly distributed fields over the schema's
// declared domains. Fields with no declared domain contribute factor 1,
// and a constraint on a field the schema lacks makes it 0. The factors
// are multiplied in schema field order, so the result does not depend on
// map iteration order.
func (in Interest) Selectivity(s *Schema) float64 {
	sel, seen := 1.0, 0
	for i := range s.fields {
		f := &s.fields[i]
		if r, ok := in.Ranges[f.Name]; ok {
			seen++
			sel *= rangeFraction(r, f)
		}
		if set, ok := in.Keys[f.Name]; ok {
			seen++
			sel *= keyFraction(len(set), f)
		}
	}
	if seen < len(in.Ranges)+len(in.Keys) {
		return 0
	}
	return sel
}

// Overlap estimates the fraction of the stream that satisfies BOTH
// interests — the quantity the paper multiplies by the stream arrival
// rate to weight query-graph edges. Interests in different streams never
// overlap.
func Overlap(a, b Interest, s *Schema) float64 {
	if a.Stream != b.Stream {
		return 0
	}
	return a.Intersect(b).Selectivity(s)
}

// Intersect returns the conjunction of two interests in the same stream:
// a field both constrain keeps the overlap of the two ranges or key
// sets. An empty overlap stays in the result as an empty range or an
// empty key set — a constraint nothing satisfies — so the conjunction
// then matches nothing, here and after compilation.
func (in Interest) Intersect(o Interest) Interest {
	out := in.Clone()
	for field, r := range o.Ranges {
		if out.Ranges == nil {
			out.Ranges = make(map[string]Range)
		}
		if existing, ok := out.Ranges[field]; ok {
			out.Ranges[field] = existing.Intersect(r)
		} else {
			out.Ranges[field] = r
		}
	}
	for field, set := range o.Keys {
		if out.Keys == nil {
			out.Keys = make(map[string]map[string]bool)
		}
		if existing, ok := out.Keys[field]; ok {
			merged := make(map[string]bool)
			for k := range set {
				if existing[k] {
					merged[k] = true
				}
			}
			out.Keys[field] = merged
		} else {
			cp := make(map[string]bool, len(set))
			for k := range set {
				cp[k] = true
			}
			out.Keys[field] = cp
		}
	}
	return out
}

// Cover returns the smallest conjunctive interest containing both inputs:
// per-field bounding ranges and key-set unions; a field constrained in
// only one input becomes unconstrained (any widening is safe for early
// filtering — ancestors may forward too much, never too little).
func Cover(a, b Interest) Interest {
	if a.Stream != b.Stream {
		// Covering across streams is meaningless; return an
		// unconstrained interest in a's stream as the safe answer.
		return NewInterest(a.Stream)
	}
	out := NewInterest(a.Stream)
	for field, ra := range a.Ranges {
		rb, ok := b.Ranges[field]
		if !ok {
			continue // unconstrained in b -> unconstrained in cover
		}
		if out.Ranges == nil {
			out.Ranges = make(map[string]Range)
		}
		out.Ranges[field] = ra.Union(rb)
	}
	for field, sa := range a.Keys {
		sb, ok := b.Keys[field]
		if !ok {
			continue
		}
		merged := make(map[string]bool, len(sa)+len(sb))
		for k := range sa {
			merged[k] = true
		}
		for k := range sb {
			merged[k] = true
		}
		if out.Keys == nil {
			out.Keys = make(map[string]map[string]bool)
		}
		out.Keys[field] = merged
	}
	return out
}

// String renders the interest for logs: "stream{field in [lo,hi], ...}".
func (in Interest) String() string {
	if in.Unconstrained() {
		return in.Stream + "{*}"
	}
	var parts []string
	for field, r := range in.Ranges {
		parts = append(parts, fmt.Sprintf("%s in [%g,%g]", field, r.Lo, r.Hi))
	}
	for field, set := range in.Keys {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts = append(parts, fmt.Sprintf("%s in {%s}", field, strings.Join(keys, ",")))
	}
	sort.Strings(parts)
	return in.Stream + "{" + strings.Join(parts, ", ") + "}"
}

// InterestSet is a disjunction of interests in one stream. A
// dissemination-tree node aggregates the interests registered by its
// children into an InterestSet and forwards a tuple downward iff any term
// matches. To bound the size of a registration and the state an ancestor
// keeps per child the set can be simplified: terms are merged (covered)
// once the set grows beyond a limit, trading filtering precision for
// registration size — widening is always safe. (The limit no longer
// bounds per-tuple cost: MatchIndex hashes a tuple once however many
// keyed terms are registered.)
//
// A stored set (a relay's registration, a set compiled into a match
// index) is never modified, only replaced, and its terms are immutable
// (see Interest), so readers share it without copying. Add and Simplify
// write the set they are called on: they build a fresh set, never edit a
// stored one.
type InterestSet struct {
	// Stream names the stream all terms apply to.
	Stream string
	// Terms holds the disjuncts. An empty Terms matches nothing.
	Terms []Interest
}

// NewInterestSet returns an empty set for the named stream.
func NewInterestSet(streamName string) *InterestSet {
	return &InterestSet{Stream: streamName}
}

// Add inserts one interest, sharing its maps (interests are immutable).
// Interests for other streams are ignored.
func (s *InterestSet) Add(in Interest) {
	if in.Stream != s.Stream {
		return
	}
	s.Terms = append(s.Terms, in)
}

// Matches reports whether any term matches the tuple.
func (s *InterestSet) Matches(sc *Schema, t Tuple) bool {
	for _, term := range s.Terms {
		if term.Matches(sc, t) {
			return true
		}
	}
	return false
}

// Simplify reduces the set to at most maxTerms terms by repeatedly
// merging the pair of terms whose cover has the least selectivity
// increase over the schema (the first such pair, in term order, on a
// tie). maxTerms < 1 collapses to a single cover. Terms it does not merge
// stay in the set as they were, shared; a merged one is a fresh Cover.
//
// A pair's cost is computed without building its cover and kept across
// merge rounds: a merge changes one term, so only that term's pairs are
// computed again. Each term is first compiled against the schema
// (termForm), so a pair's cost is a merge of two sorted constraint lists
// with no map access; a term that constrains a field the schema lacks,
// or names another stream, is costed on its maps (coverSelectivity). Both
// multiply the same factors in the same order, so the merges chosen are
// the same either way.
func (s *InterestSet) Simplify(sc *Schema, maxTerms int) {
	if maxTerms < 1 {
		maxTerms = 1
	}
	n := len(s.Terms)
	if n <= maxTerms {
		return
	}
	tc := termCompiler{sc: sc, stream: s.Stream, ids: make(map[string]int32)}
	forms := make([]termForm, n)
	sels := make([]float64, n)
	for i := range s.Terms {
		forms[i] = tc.compile(s.Terms[i])
		sels[i] = s.Terms[i].Selectivity(sc)
	}
	coverSel := func(i, j int) float64 {
		if forms[i].other || forms[j].other {
			return coverSelectivity(s.Terms[i], s.Terms[j], sc)
		}
		return forms[i].coverSelectivity(&forms[j], sc)
	}
	// cost[i*n+j], i < j, is the selectivity the set gains if terms i and
	// j are replaced by their cover. Terms keep their slot for the whole
	// call; live lists the slots still in the set, in order.
	cost := make([]float64, n*n)
	pairCost := func(i, j int) float64 {
		return coverSel(i, j) - sels[i] - sels[j]
	}
	live := make([]int, n)
	for i := range live {
		live[i] = i
		for j := i + 1; j < n; j++ {
			cost[i*n+j] = pairCost(i, j)
		}
	}
	for len(live) > maxTerms {
		bestA, bestB := 0, 1 // positions in live
		bestCost := math.Inf(1)
		for a, i := range live {
			for b := a + 1; b < len(live); b++ {
				if c := cost[i*n+live[b]]; c < bestCost {
					bestCost, bestA, bestB = c, a, b
				}
			}
		}
		i, j := live[bestA], live[bestB]
		sels[i] = coverSel(i, j)
		s.Terms[i] = Cover(s.Terms[i], s.Terms[j])
		forms[i] = tc.compile(s.Terms[i])
		live = append(live[:bestB], live[bestB+1:]...)
		for _, k := range live {
			switch {
			case k < i:
				cost[k*n+i] = pairCost(k, i)
			case k > i:
				cost[i*n+k] = pairCost(i, k)
			}
		}
	}
	for a, i := range live { // live is ascending: a <= i
		s.Terms[a] = s.Terms[i]
	}
	s.Terms = s.Terms[:len(live)]
}

// termForm is a term compiled by a termCompiler: its constraints in
// schema field order, a field's range before its key set. other marks a
// term costed on its maps instead: one that constrains a field the schema
// lacks or names another stream.
type termForm struct {
	cons  []fieldCons
	other bool
}

// fieldCons is one constraint of a termForm. pos orders the constraints:
// twice the schema field index, plus one for a key set. keys holds a key
// set as ascending key ids.
type fieldCons struct {
	pos  int
	r    Range
	keys []int32
}

func (c *fieldCons) isKeys() bool { return c.pos&1 == 1 }

// termCompiler compiles the terms of one Simplify call. It numbers every
// key it meets, the same key with the same id in every term, so a key set
// is a sorted list of small integers.
type termCompiler struct {
	sc     *Schema
	stream string
	ids    map[string]int32
}

func (tc *termCompiler) compile(in Interest) termForm {
	if in.Stream != tc.stream {
		return termForm{other: true}
	}
	cons := make([]fieldCons, 0, len(in.Ranges)+len(in.Keys))
	for field, r := range in.Ranges {
		i, ok := tc.sc.FieldIndex(field)
		if !ok {
			return termForm{other: true}
		}
		cons = append(cons, fieldCons{pos: 2 * i, r: r})
	}
	for field, set := range in.Keys {
		i, ok := tc.sc.FieldIndex(field)
		if !ok {
			return termForm{other: true}
		}
		keys := make([]int32, 0, len(set))
		for k := range set {
			keys = append(keys, tc.id(k))
		}
		slices.Sort(keys)
		cons = append(cons, fieldCons{pos: 2*i + 1, keys: keys})
	}
	slices.SortFunc(cons, func(a, b fieldCons) int { return a.pos - b.pos })
	return termForm{cons: cons}
}

func (tc *termCompiler) id(key string) int32 {
	id, ok := tc.ids[key]
	if !ok {
		id = int32(len(tc.ids))
		tc.ids[key] = id
	}
	return id
}

// coverSelectivity is coverSelectivity for two compiled terms: the
// factors of the constraints both terms hold, multiplied in schema field
// order, a field's range before its key set.
func (a *termForm) coverSelectivity(b *termForm, sc *Schema) float64 {
	sel := 1.0
	for i, j := 0, 0; i < len(a.cons) && j < len(b.cons); {
		ca, cb := &a.cons[i], &b.cons[j]
		switch {
		case ca.pos < cb.pos:
			i++
		case ca.pos > cb.pos:
			j++
		default:
			f := &sc.fields[ca.pos/2]
			if ca.isKeys() {
				sel *= keyFraction(unionLen(ca.keys, cb.keys), f)
			} else {
				sel *= rangeFraction(ca.r.Union(cb.r), f)
			}
			i++
			j++
		}
	}
	return sel
}

// unionLen is the size of the union of two ascending id lists.
func unionLen(a, b []int32) int {
	n := len(a) + len(b)
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n--
			i++
			j++
		}
	}
	return n
}

// coverSelectivity returns Cover(a, b).Selectivity(sc) without building
// the cover: a field both constrain contributes the width of the two
// ranges' union clipped to the field's domain, or |A| + |B| − |A ∩ B|
// keys over the field's cardinality; a field only one constrains is
// unconstrained in the cover and contributes nothing. The factors are
// multiplied in schema field order, as Selectivity multiplies them, so
// the result is the same bits on every call.
func coverSelectivity(a, b Interest, sc *Schema) float64 {
	if a.Stream != b.Stream {
		return 1 // Cover answers with an unconstrained interest
	}
	sel, seen := 1.0, 0
	for i := range sc.fields {
		f := &sc.fields[i]
		if ra, ok := a.Ranges[f.Name]; ok {
			seen++
			if rb, ok := b.Ranges[f.Name]; ok {
				sel *= rangeFraction(ra.Union(rb), f)
			}
		}
		if ka, ok := a.Keys[f.Name]; ok {
			seen++
			if kb, ok := b.Keys[f.Name]; ok {
				small, large := ka, kb
				if len(small) > len(large) {
					small, large = large, small
				}
				union := len(ka) + len(kb)
				for k := range small {
					if _, both := large[k]; both {
						union--
					}
				}
				sel *= keyFraction(union, f)
			}
		}
	}
	if seen < len(a.Ranges)+len(a.Keys) {
		// a constrains a field the schema lacks: the cover keeps the
		// constraint, and selects nothing, if b constrains it too.
		for field := range a.Ranges {
			if _, ok := b.Ranges[field]; ok {
				if _, declared := sc.FieldIndex(field); !declared {
					return 0
				}
			}
		}
		for field := range a.Keys {
			if _, ok := b.Keys[field]; ok {
				if _, declared := sc.FieldIndex(field); !declared {
					return 0
				}
			}
		}
	}
	return sel
}

// rangeFraction is the share of f's domain that r covers, or 1 when f
// declares no domain.
func rangeFraction(r Range, f *Field) float64 {
	w := f.DomainWidth()
	if w <= 0 {
		return 1
	}
	return r.Intersect(Range{Lo: f.Lo, Hi: f.Hi}).Width() / w
}

// keyFraction is the share of f's cardinality that n keys cover, capped
// at 1, or 1 when f declares no cardinality.
func keyFraction(n int, f *Field) float64 {
	if f.Card <= 0 {
		return 1
	}
	return min(float64(n)/float64(f.Card), 1)
}

// Clone returns a deep copy of the set.
func (s *InterestSet) Clone() *InterestSet {
	out := NewInterestSet(s.Stream)
	for _, t := range s.Terms {
		out.Terms = append(out.Terms, t.Clone())
	}
	return out
}
