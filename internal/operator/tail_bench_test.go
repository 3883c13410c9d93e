package operator_test

import (
	"testing"

	"sspd/internal/operator"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// The tail benchmarks feed each stateful tail operator what the
// end-to-end benchmark's stateful_tail workload feeds it: the ticker's
// quotes (100 symbols, zipf 1.2) that pass a 50 % volume filter, at
// that workload's window sizes, one row per Process call — the path the
// benchmark's layer replay and its oracle take. Run them with
//
//	go test -run '^$' -bench Tail -benchmem ./internal/operator

var tailSink []stream.Tuple

func benchTail(b *testing.B, build func(*stream.Schema) (operator.Operator, error)) {
	op, err := build(workload.Quotes(100))
	if err != nil {
		b.Fatal(err)
	}
	tk := workload.NewTicker(3, 100, 1.2)
	var in []stream.Tuple
	for len(in) < 1<<15 {
		if t := tk.Next(); t.Values[2].AsInt() < 5e5 {
			in = append(in, t)
		}
	}
	for _, t := range in { // fill the window and grow every buffer
		op.Process(0, t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tailSink = op.Process(0, in[i&(len(in)-1)])
	}
}

func BenchmarkTailTopK(b *testing.B) {
	benchTail(b, func(s *stream.Schema) (operator.Operator, error) {
		return operator.NewTopK("top", s, 5, "price", "symbol", stream.CountWindow(32), 2)
	})
}

func BenchmarkTailAggregate(b *testing.B) {
	benchTail(b, func(s *stream.Schema) (operator.Operator, error) {
		return operator.NewAggregate("agg", s, operator.AggSum, "price", "symbol", stream.CountWindow(64), 2)
	})
}

func BenchmarkTailDistinct(b *testing.B) {
	benchTail(b, func(s *stream.Schema) (operator.Operator, error) {
		return operator.NewDistinct("dis", s, "symbol", stream.CountWindow(256), 1)
	})
}
