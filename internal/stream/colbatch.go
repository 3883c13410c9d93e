package stream

// Columnar batch evaluation for the engine hot path. A ColBatch is a
// transposed view over a row-oriented Batch: per-field value columns
// (extracted lazily, only for the fields a pipeline actually touches)
// plus a selection vector of surviving row indexes. The column evaluator
// (CompiledInterest.Apply) scans a primitive column and shrinks the
// selection vector in place; surviving rows are read back (Gather) as
// the *original* tuples, so the columnar form never materializes new
// tuples and stays zero-copy with respect to the source batch's values.
//
// A ColBatch is owned by one shard goroutine and reused across batches
// (Reset) and across the queries sharing a batch (ResetSel): in steady
// state neither resetting nor filtering allocates. Columns are built at
// most once per (batch, field) no matter how many queries or filter
// steps read them.
//
// String columns are key ids. The ColBatch owns a key dictionary that
// numbers, from 1, every key some key constraint bound to it lists
// (CompiledInterest.Apply binds a constraint the first time it runs on
// the ColBatch). A key column holds each row's id — one dictionary probe
// per (batch, field, row) — and 0, noKey, for a string no bound
// constraint lists; a constraint is then one bit test per row, however
// many queries share the column. Ids are never reused or renumbered, so
// a binding stays valid for the ColBatch's life, and the dictionary
// holds the distinct keys ever bound on it.

// noKey is the id of every string the dictionary does not hold. No
// binding sets its bit.
const noKey = 0

// ColBatch is a columnar view over one same-stream Batch plus a
// selection vector. The zero value is ready for Reset.
type ColBatch struct {
	src Batch
	// sel holds the indexes of surviving rows in batch order.
	// CompiledInterest.Apply compacts it in place.
	sel []int32
	// fcols/kcols cache per-field numeric (Value.AsFloat) and key-id
	// (Value.AsString through dict) columns, indexed by field position.
	// built tracks which entries are valid for the current src and, for
	// key columns, the current dictionary.
	fcols  [][]float64
	kcols  [][]int32
	fbuilt []bool
	kbuilt []bool
	// dict maps each bound key to its id; see the package comment above.
	dict map[string]int32
}

// NewColBatch returns an empty ColBatch ready for Reset.
func NewColBatch() *ColBatch { return &ColBatch{} }

// Reset points the ColBatch at a new source batch: the selection vector
// becomes the identity and all cached columns are invalidated. The
// source batch is retained (read-only) until the next Reset; in steady
// state Reset performs no allocation once internal buffers have grown
// to the largest batch and widest schema seen. The key dictionary
// outlives Reset.
func (cb *ColBatch) Reset(b Batch) {
	cb.src = b
	cb.ResetSel()
	clear(cb.fbuilt)
	clear(cb.kbuilt)
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
	for len(cb.kcols) <= idx {
		cb.kcols = append(cb.kcols, nil)
		cb.kbuilt = append(cb.kbuilt, false)
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

// KeyCol returns the key-id column for field idx: per row, the
// dictionary id of Value.AsString ("" for non-string values and short
// tuples, matching row-wise reads), or noKey for a string no bound
// constraint lists. Built on first use per Reset and per dictionary
// growth, then cached.
func (cb *ColBatch) KeyCol(idx int) []int32 {
	cb.growCols(idx)
	if !cb.kbuilt[idx] {
		col := cb.kcols[idx]
		if cap(col) < len(cb.src) {
			col = make([]int32, len(cb.src))
		}
		col = col[:len(cb.src)]
		for i := range cb.src {
			col[i] = cb.dict[cb.src[i].Value(idx).AsString()] // a missing key reads noKey
		}
		cb.kcols[idx] = col
		cb.kbuilt[idx] = true
	}
	return cb.kcols[idx]
}

// keyID returns key's id, adding it to the dictionary if it is new. A
// new key invalidates the built key columns, whose rows holding it read
// noKey.
func (cb *ColBatch) keyID(key string) int32 {
	if id, ok := cb.dict[key]; ok {
		return id
	}
	if cb.dict == nil {
		cb.dict = make(map[string]int32)
	}
	id := int32(len(cb.dict) + 1)
	cb.dict[key] = id
	clear(cb.kbuilt)
	return id
}
