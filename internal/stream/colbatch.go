package stream

// Columnar batch evaluation for the engine hot path. A ColBatch is a
// transposed view over a row-oriented Batch: per-field value columns
// (extracted lazily, only for the fields a pipeline actually touches)
// plus a selection vector of surviving row indexes. Vectorized filter
// kernels scan a primitive column and shrink the selection vector in
// place; surviving rows are read back (Gather) as the *original* tuples,
// so the columnar form never materializes new tuples and stays zero-copy
// with respect to the source batch's values.
//
// A ColBatch is owned by one shard goroutine and reused across batches
// (Reset) and across the queries sharing a batch (ResetSel): in steady
// state neither resetting nor filtering allocates. Columns are built at
// most once per (batch, field) no matter how many queries or filter
// steps read them.

// ColBatch is a columnar view over one same-stream Batch plus a
// selection vector. The zero value is ready for Reset.
type ColBatch struct {
	src Batch
	// sel holds the indexes of surviving rows in batch order. Filter
	// kernels compact it in place.
	sel []int32
	// fcols/scols cache per-field numeric (Value.AsFloat) and string
	// (Value.AsString) columns, indexed by field position. built tracks
	// which entries are valid for the current src.
	fcols  [][]float64
	scols  [][]string
	fbuilt []bool
	sbuilt []bool
}

// NewColBatch returns an empty ColBatch ready for Reset.
func NewColBatch() *ColBatch { return &ColBatch{} }

// Reset points the ColBatch at a new source batch: the selection vector
// becomes the identity and all cached columns are invalidated. The
// source batch is retained (read-only) until the next Reset; in steady
// state Reset performs no allocation once internal buffers have grown
// to the largest batch and widest schema seen.
func (cb *ColBatch) Reset(b Batch) {
	cb.src = b
	cb.ResetSel()
	for i := range cb.fbuilt {
		cb.fbuilt[i] = false
	}
	for i := range cb.sbuilt {
		cb.sbuilt[i] = false
	}
}

// ResetSel restores the identity selection (all rows live) without
// invalidating cached columns. Engines call it between queries sharing
// one batch: each query filters its own selection over shared columns.
func (cb *ColBatch) ResetSel() {
	n := len(cb.src)
	if cap(cb.sel) < n {
		cb.sel = make([]int32, n)
	}
	cb.sel = cb.sel[:n]
	for i := range cb.sel {
		cb.sel[i] = int32(i)
	}
}

// Len returns the number of currently selected (surviving) rows.
func (cb *ColBatch) Len() int { return len(cb.sel) }

// Src returns the number of rows in the underlying source batch.
func (cb *ColBatch) Src() int { return len(cb.src) }

// Gather appends the surviving rows — the original tuples, in batch
// order — to dst and returns it: the one point where a pipeline's
// row-oriented tail materializes the selection.
func (cb *ColBatch) Gather(dst []Tuple) []Tuple {
	for _, i := range cb.sel {
		dst = append(dst, cb.src[i])
	}
	return dst
}

// growCols ensures the column caches cover field index idx.
func (cb *ColBatch) growCols(idx int) {
	for len(cb.fcols) <= idx {
		cb.fcols = append(cb.fcols, nil)
		cb.fbuilt = append(cb.fbuilt, false)
	}
	for len(cb.scols) <= idx {
		cb.scols = append(cb.scols, nil)
		cb.sbuilt = append(cb.sbuilt, false)
	}
}

// FloatCol returns the numeric column for field idx (Value.AsFloat per
// row, so ints convert and non-numerics read 0 — identical to the
// row-wise semantics). Built on first use per Reset, then cached.
func (cb *ColBatch) FloatCol(idx int) []float64 {
	cb.growCols(idx)
	if !cb.fbuilt[idx] {
		col := cb.fcols[idx]
		if cap(col) < len(cb.src) {
			col = make([]float64, len(cb.src))
		}
		col = col[:len(cb.src)]
		for i := range cb.src {
			col[i] = cb.src[i].Value(idx).AsFloat()
		}
		cb.fcols[idx] = col
		cb.fbuilt[idx] = true
	}
	return cb.fcols[idx]
}

// StringCol returns the string column for field idx (Value.AsString per
// row: "" for non-string values, matching row-wise reads).
func (cb *ColBatch) StringCol(idx int) []string {
	cb.growCols(idx)
	if !cb.sbuilt[idx] {
		col := cb.scols[idx]
		if cap(col) < len(cb.src) {
			col = make([]string, len(cb.src))
		}
		col = col[:len(cb.src)]
		for i := range cb.src {
			col[i] = cb.src[i].Value(idx).AsString()
		}
		cb.scols[idx] = col
		cb.sbuilt[idx] = true
	}
	return cb.scols[idx]
}

// VecFilter is one conjunctive filter step compiled for columnar
// evaluation — the batch counterpart of the compiled-matcher rangeCheck/
// keyCheck machinery. Apply shrinks a ColBatch's selection vector in
// place with zero allocations.
//
// Semantics match the engine's per-tuple filter predicate (not interest
// matching): a range constraint rejects when v < lo || v > hi, so NaN
// values PASS range checks (both comparisons are false), exactly as the
// interpreted filter behaves. Key constraints reject rows whose string
// value is outside the set; non-string values read "" and match only an
// explicit "" key.
type VecFilter struct {
	ranges []rangeCheck
	keys   []keyCheck
}

// NewVecFilter compiles a filter step. rangeIdx/keyIdx are resolved
// field positions; pass -1 to omit a constraint. keys lists the
// admitted string values for the key constraint.
func NewVecFilter(rangeIdx int, lo, hi float64, keyIdx int, keys []string) *VecFilter {
	f := &VecFilter{}
	if rangeIdx >= 0 {
		f.ranges = append(f.ranges, rangeCheck{idx: rangeIdx, lo: lo, hi: hi})
	}
	if keyIdx >= 0 {
		kc := keyCheck{idx: keyIdx}
		if len(keys) == 1 {
			kc.single = keys[0]
		} else {
			kc.set = make(map[string]struct{}, len(keys))
			for _, k := range keys {
				kc.set[k] = struct{}{}
			}
		}
		f.keys = append(f.keys, kc)
	}
	return f
}

// Apply evaluates the filter over the batch's columns and compacts the
// selection vector to the surviving rows, returning their count. One
// call covers the whole batch: no per-row function calls, no per-row
// locks, no allocations.
func (f *VecFilter) Apply(cb *ColBatch) int {
	sel := cb.sel
	for r := range f.ranges {
		rc := &f.ranges[r]
		col := cb.FloatCol(rc.idx)
		lo, hi := rc.lo, rc.hi
		out := sel[:0]
		for _, i := range sel {
			v := col[i]
			if v < lo || v > hi {
				continue
			}
			out = append(out, i)
		}
		sel = out
	}
	for k := range f.keys {
		kc := &f.keys[k]
		col := cb.StringCol(kc.idx)
		out := sel[:0]
		if kc.set == nil {
			single := kc.single
			for _, i := range sel {
				if col[i] != single {
					continue
				}
				out = append(out, i)
			}
		} else {
			for _, i := range sel {
				if _, ok := kc.set[col[i]]; !ok {
					continue
				}
				out = append(out, i)
			}
		}
		sel = out
	}
	cb.sel = sel
	return len(sel)
}
