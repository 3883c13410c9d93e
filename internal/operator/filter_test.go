package operator

import (
	"math/rand"
	"slices"
	"testing"

	"sspd/internal/stream"
)

// filterTestSymbols are the keys the random filters list and the
// batches carry; the last two are listed only by the filters that join
// half-way, so until then every batch carries them unlisted.
var filterTestSymbols = []string{"ibm", "msft", "goog", "amzn", "", "nvda", "orcl"}

func randomFilterInterest(rng *rand.Rand, syms []string) stream.Interest {
	in := stream.NewInterest("quotes")
	if rng.Intn(4) != 0 {
		keys := make([]string, 1+rng.Intn(3))
		for i := range keys {
			keys[i] = syms[rng.Intn(len(syms))]
		}
		in = in.WithKeys("symbol", keys...)
	}
	if rng.Intn(2) == 0 {
		lo := rng.Float64() * 800
		in = in.WithRange("price", lo, lo+rng.Float64()*600)
	}
	if rng.Intn(5) == 0 {
		in = in.WithKeys("volume", "", "7") // a key set on an int field reads ""
	}
	return in
}

func randomFilterBatch(rng *rand.Rand) stream.Batch {
	b := make(stream.Batch, rng.Intn(65))
	for i := range b {
		b[i] = quote(uint64(i), filterTestSymbols[rng.Intn(len(filterTestSymbols))], rng.Float64()*1000, int64(rng.Intn(10)))
		if rng.Intn(16) == 0 {
			b[i].Values = b[i].Values[:rng.Intn(2)] // short: symbol and price read zero values
		}
	}
	return b
}

// TestColumnEvaluatorFiltersMatchReference drives filter chains the way
// a shard engine does — several queries' filters sharing one ColBatch
// per batch — and holds every filter's batch entry to the interpreted
// Interest.Matches: the survivors of each chain and each filter's Stats
// in/out counts. Along the way the chains move between two ColBatches
// (each with its own dictionary, so every move rebinds), are reordered
// mid-stream as the Adaptation Module would, and a second query joins
// half-way with keys the batches carried unlisted until then.
func TestColumnEvaluatorFiltersMatchReference(t *testing.T) {
	s := quotesSchema(t)
	rng := rand.New(rand.NewSource(5))
	type chain struct {
		interests []stream.Interest
		filters   []*Filter
		in, out   []int64 // reference counts per filter
	}
	newChain := func(syms []string) *chain {
		c := &chain{}
		for i := 0; i < 3; i++ {
			in := randomFilterInterest(rng, syms)
			f, err := NewFilter("f", s, in, 1)
			if err != nil {
				t.Fatal(err)
			}
			c.interests = append(c.interests, in)
			c.filters = append(c.filters, f)
			c.in, c.out = append(c.in, 0), append(c.out, 0)
		}
		return c
	}
	early := filterTestSymbols[:5]
	chains := []*chain{newChain(early), newChain(early)}
	cbs := []*stream.ColBatch{stream.NewColBatch(), stream.NewColBatch()}
	const batches = 400
	kept, dropped := 0, 0
	for k := 0; k < batches; k++ {
		if k == batches/2 {
			chains = append(chains, newChain(filterTestSymbols))
		}
		if k%37 == 36 { // reorder one chain's filters, counts and all
			c := chains[rng.Intn(len(chains))]
			perm := rng.Perm(len(c.filters))
			permute := func(xs []int64) []int64 {
				out := make([]int64, len(xs))
				for i, p := range perm {
					out[i] = xs[p]
				}
				return out
			}
			fs, ins := make([]*Filter, len(perm)), make([]stream.Interest, len(perm))
			for i, p := range perm {
				fs[i], ins[i] = c.filters[p], c.interests[p]
			}
			c.filters, c.interests, c.in, c.out = fs, ins, permute(c.in), permute(c.out)
		}
		b := randomFilterBatch(rng)
		cb := cbs[rng.Intn(len(cbs))]
		cb.Reset(b)
		for _, c := range chains {
			cb.ResetSel()
			for _, f := range c.filters {
				if cb.Len() == 0 {
					break
				}
				f.ProcessBatch(cb)
			}
			var want []uint64
			for _, tu := range b {
				pass := true
				for i, in := range c.interests {
					c.in[i]++
					if !in.Matches(s, tu) {
						pass = false
						break
					}
					c.out[i]++
				}
				if pass {
					want = append(want, tu.Seq)
				}
			}
			var got []uint64
			for _, tu := range cb.Gather(nil) {
				got = append(got, tu.Seq)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("batch %d: chain kept %v, the reference %v", k, got, want)
			}
			kept += len(got)
			dropped += len(b) - len(got)
		}
	}
	if kept < 1000 || dropped < 1000 {
		t.Fatalf("degenerate run: %d rows kept, %d dropped", kept, dropped)
	}
	for ci, c := range chains {
		for i, f := range c.filters {
			if f.Stats().In() != c.in[i] || f.Stats().Out() != c.out[i] {
				t.Errorf("chain %d filter %d (%v): Stats in/out %d/%d, reference %d/%d",
					ci, i, c.interests[i], f.Stats().In(), f.Stats().Out(), c.in[i], c.out[i])
			}
		}
	}
}

// TestColumnEvaluatorFilterAllocFree is the allocation gate of the batch
// entry: once its keys are bound to the ColBatch, a filter's ProcessBatch
// allocates nothing.
func TestColumnEvaluatorFilterAllocFree(t *testing.T) {
	s := quotesSchema(t)
	f, err := NewFilter("f", s, stream.NewInterest("quotes").
		WithKeys("symbol", "ibm", "goog").WithRange("price", 100, 900), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pool := make([]stream.Batch, 16)
	for i := range pool {
		pool[i] = randomFilterBatch(rng)
	}
	cb, next, kept := stream.NewColBatch(), 0, 0
	run := func() {
		cb.Reset(pool[next%len(pool)])
		next++
		kept += f.ProcessBatch(cb)
	}
	for range pool {
		run()
	}
	if got := testing.AllocsPerRun(len(pool)*8, run); got != 0 {
		t.Fatalf("ProcessBatch allocates %.2f per batch in steady state, want 0", got)
	}
	if kept == 0 {
		t.Fatal("the filter kept nothing: the gate measured an empty path")
	}
}
