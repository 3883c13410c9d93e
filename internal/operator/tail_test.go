package operator

import (
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"sspd/internal/stream"
)

// refExtremum is the min/max the aggregate computed before it kept a
// deque per group: a scan of the whole window on every input.
type refExtremum struct {
	fn  AggFunc
	win *stream.Window[stream.Tuple]
}

func (r *refExtremum) process(t stream.Tuple) float64 {
	r.win.Evict(t.Ts.UnixNano(), nil)
	r.win.Add(t.Ts.UnixNano(), t)
	group := t.Value(0).String()
	best := math.Inf(1)
	if r.fn == AggMax {
		best = math.Inf(-1)
	}
	r.win.Each(func(_ int64, w stream.Tuple) bool {
		if w.Value(0).String() != group {
			return true
		}
		v := w.Value(1).AsFloat()
		if r.fn == AggMin && v < best || r.fn == AggMax && v > best {
			best = v
		}
		return true
	})
	return best
}

// TestTailMinMaxMatchesRescan holds the deque-backed min and max
// against the window rescan on the randomized tail stream (duplicate
// values, -0, single and multiple evictions per push), restoring a
// snapshot into a fresh aggregate at random cuts. The one intended
// difference is pinned too: a group holding nothing but NaN yields NaN,
// where the rescan returned the infinity it started from.
func TestTailMinMaxMatchesRescan(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	s := quotesSchema(t)
	windows := map[string]stream.WindowSpec{
		"count": stream.CountWindow(16),
		"time":  stream.TimeWindow(16 * time.Millisecond),
	}
	seed := int64(100)
	for wname, spec := range windows {
		for _, fn := range []AggFunc{AggMin, AggMax} {
			for _, card := range []int{1, 3, 100} {
				seed++
				seed := seed
				t.Run(fmt.Sprintf("%s/%s/groups=%d", wname, fn, card), func(t *testing.T) {
					t.Parallel()
					newAgg := func() *Aggregate {
						a, err := NewAggregate("agg", s, fn, "price", "symbol", spec, 1)
						if err != nil {
							t.Fatal(err)
						}
						return a
					}
					in := newTailStream(seed, card)
					ref, agg := &refExtremum{fn: fn, win: stream.NewWindow[stream.Tuple](spec)}, newAgg()
					allNaN := 0
					for i := 0; i < n; i++ {
						tu := in.next()
						want := ref.process(tu)
						out := agg.Process(0, tu)
						if len(out) != 1 || out[0].Seq != tu.Seq || !out[0].Ts.Equal(tu.Ts) ||
							out[0].Values[0].AsString() != tu.Values[0].AsString() {
							t.Fatalf("input %d %v: got %v", i, tu, out)
						}
						got := out[0].Values[1].AsFloat()
						if math.IsInf(want, 0) {
							allNaN++
							want = math.NaN()
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("input %d %v: %s = %v, rescan %v", i, tu, fn, got, want)
						}
						if in.rng.Intn(n/20) == 0 {
							snap := agg.SnapshotState()
							agg = newAgg()
							if err := agg.RestoreState(snap); err != nil {
								t.Fatalf("input %d: restore: %v", i, err)
							}
						}
					}
					if card == 100 && allNaN == 0 {
						t.Fatal("no group ever held only NaN: stream too weak")
					}
				})
			}
		}
	}
}

func TestTailMaxDeque(t *testing.T) {
	var d maxDeque
	nan := math.NaN()
	// ordinal → value; the window holds the last 3 ordinals.
	vals := []float64{nan, 2, 2, 1, 3, nan, 0, math.Copysign(0, -1), nan, nan, nan}
	for i, v := range vals {
		d.push(uint64(i), v)
		if i >= 3 {
			d.evict(uint64(i - 3))
		}
		lo := max(0, i-2)
		want, at := vals[lo], lo
		for j := lo + 1; j <= i; j++ {
			if beats(vals[j], want) {
				want, at = vals[j], j
			}
		}
		if got := d.buf[d.head]; got.ord != uint64(at) || math.Float64bits(got.val) != math.Float64bits(want) {
			t.Fatalf("after %d: front (%d, %v), want oldest maximum (%d, %v)", i, got.ord, got.val, at, want)
		}
	}
	if d.evict(99) {
		t.Fatal("evicted an ordinal it does not hold")
	}
}

// TestTailRestoresRecordedSnapshots is the cross-version half of
// snapshot compatibility. testdata/tail_state.golden was recorded by the
// rescanning, rebuild-and-sort operators that came before the
// incremental tail, whose windows held whole tuples and whose snapshots
// wrote them: per operator, the snapshot after a fixed prefix of the
// tail stream and the outputs of the suffix that follows. It is a record
// of that format; nothing regenerates it. Today's operators, restored
// from the recorded bytes, must produce the recorded outputs. Their own
// snapshot after the prefix — one row per window slot, holding only the
// fields the operator reads — must be no larger, hold rows its input
// schema accepts, be as long as StateBytes says, and, restored, produce
// the recorded outputs too. A distinct on the int field volume, which
// has no record, checks the same against the operator it was taken
// from.
func TestTailRestoresRecordedSnapshots(t *testing.T) {
	const path = "testdata/tail_state.golden"
	s := quotesSchema(t)
	count, span := stream.CountWindow(24), stream.TimeWindow(20*time.Millisecond)
	ops := []struct {
		name string
		make func() (Operator, error)
	}{
		{"sum", func() (Operator, error) { return NewAggregate("sum", s, AggSum, "price", "symbol", count, 1) }},
		{"avg", func() (Operator, error) { return NewAggregate("avg", s, AggAvg, "price", "symbol", span, 1) }},
		{"min", func() (Operator, error) { return NewAggregate("min", s, AggMin, "price", "symbol", count, 1) }},
		{"max", func() (Operator, error) { return NewAggregate("max", s, AggMax, "price", "", span, 1) }},
		{"distinct", func() (Operator, error) { return NewDistinct("distinct", s, "symbol", count, 1) }},
		{"top-count", func() (Operator, error) { return NewTopK("top-count", s, 3, "price", "symbol", count, 1) }},
		{"top-time", func() (Operator, error) { return NewTopK("top-time", s, 5, "price", "symbol", span, 1) }},
	}
	in := newTailStream(16, 12)
	var prefix, suffix []stream.Tuple
	for i := 0; i < 500; i++ {
		// No NaN: where it ranks is the one thing that changed.
		tu := in.next()
		if v := tu.Values[1].AsFloat(); v != v {
			continue
		}
		if len(prefix) < 300 {
			prefix = append(prefix, tu)
		} else {
			suffix = append(suffix, tu)
		}
	}
	run := func(op Operator, in []stream.Tuple) string {
		var b strings.Builder
		for _, tu := range in {
			for _, out := range op.Process(0, tu) {
				b.WriteString(out.String())
				b.WriteByte(';')
			}
		}
		return b.String()
	}
	// resume checks op's snapshot after prefix, against a recorded one of
	// recordedLen bytes, and returns the outputs of the suffix from an
	// operator restored from it.
	resume := func(name string, mk func() (Operator, error), prefix, suffix []stream.Tuple, recordedLen int) string {
		op, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		run(op, prefix)
		snap := op.(Stateful).SnapshotState()
		if len(snap) > recordedLen {
			t.Errorf("%s: snapshot of %d bytes, larger than the %d of whole tuples", name, len(snap), recordedLen)
		}
		if n := op.(Stateful).StateBytes(); n != len(snap) {
			t.Errorf("%s: StateBytes %d, snapshot %d bytes", name, n, len(snap))
		}
		rows, _, err := stream.DecodeBatch(snap[statsLen:])
		if err != nil {
			t.Fatalf("%s: snapshot rows: %v", name, err)
		}
		for _, r := range rows {
			if err := s.Validate(r); err != nil {
				t.Fatalf("%s: snapshot row %v: %v", name, r, err)
			}
		}
		restored, _ := mk()
		if err := restored.(Stateful).RestoreState(snap); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		return run(restored, suffix)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(ops) {
		t.Fatalf("%s: %d records, want %d", path, len(lines), len(ops))
	}
	for i, o := range ops {
		name, rest, _ := strings.Cut(lines[i], " ")
		snapHex, wantOut, _ := strings.Cut(rest, " ")
		snap, err := hex.DecodeString(snapHex)
		if err != nil || name != o.name {
			t.Fatalf("%s line %d: record %q, want %q (%v)", path, i+1, name, o.name, err)
		}
		restored, _ := o.make()
		if err := restored.(Stateful).RestoreState(snap); err != nil {
			t.Fatalf("%s: restore: %v", o.name, err)
		}
		if got := run(restored, suffix); got != wantOut {
			t.Errorf("%s: outputs after restoring the recorded snapshot diverge:\n got %s\nwant %s", o.name, got, wantOut)
		}
		if got := resume(o.name, o.make, prefix, suffix, len(snap)); got != wantOut {
			t.Errorf("%s: outputs after restoring today's snapshot diverge:\n got %s\nwant %s", o.name, got, wantOut)
		}
	}

	// volume takes the price's 20 values, so keys repeat in the window.
	volume := func(in []stream.Tuple) []stream.Tuple {
		out := make([]stream.Tuple, len(in))
		for i, tu := range in {
			tu.Values = []stream.Value{tu.Values[0], tu.Values[1], stream.Int(int64(tu.Values[1].AsFloat()))}
			out[i] = tu
		}
		return out
	}
	vprefix, vsuffix := volume(prefix), volume(suffix)
	mk := func() (Operator, error) { return NewDistinct("distinct-volume", s, "volume", count, 1) }
	live, _ := mk()
	run(live, vprefix)
	wantOut := run(live, vsuffix)
	if strings.Count(wantOut, ";") == len(vsuffix) {
		t.Fatal("distinct-volume passed every row: keys too sparse")
	}
	// The reference is the window as whole tuples in the row form a
	// snapshot writes: a count, then each tuple.
	wholeTuples := statsLen + 4
	for _, tu := range vprefix[len(vprefix)-24:] {
		wholeTuples += len(stream.AppendTuple(nil, tu))
	}
	if got := resume("distinct-volume", mk, vprefix, vsuffix, wholeTuples); got != wantOut {
		t.Errorf("distinct-volume: outputs after restoring its snapshot diverge:\n got %s\nwant %s", got, wantOut)
	}
}
