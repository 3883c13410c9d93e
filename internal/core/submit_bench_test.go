package core

import (
	"fmt"
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/simnet"
	"sspd/internal/workload"
)

// registrationsSent is the number of interest registrations the
// federation's relays have sent upward.
func registrationsSent(f *Federation) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, en := range f.entities {
		for _, r := range en.relays {
			n += r.Registrations.Value()
		}
	}
	return int(n)
}

// BenchmarkSubmitSettle measures what adding queries costs a whole SimNet
// federation: 64 entities of two processors on an 8 × 8 grid, and 256
// two-symbol quote filters, 4 per entity, each submitted to its entity
// and settled before the next. Locality builds the paper's tree (fanout
// 4); SourceDirect is the star it is compared with. ns/op is one round of
// 256 submits and their Settles. The benchmark gates only on a count:
// registrations per submit (the interest registrations relays send for
// one query), which may not exceed the tree's height — a registration
// climbs at most to the source, and stops below it where an ancestor's
// aggregate does not move.
func BenchmarkSubmitSettle(b *testing.B) {
	const (
		entities  = 64
		perEntity = 4
	)
	for _, strategy := range []dissemination.Strategy{dissemination.Locality, dissemination.SourceDirect} {
		b.Run(strategy.String(), func(b *testing.B) {
			var regs, submits int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net := simnet.NewSim(nil)
				fed, err := New(net, workload.Catalog(100, 20), Options{Strategy: strategy, Fanout: 4})
				if err != nil {
					b.Fatal(err)
				}
				fed.refreshEvery = time.Hour // no refresh round inside the count
				if err := fed.AddSource("quotes", simnet.Point{}, StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}); err != nil {
					b.Fatal(err)
				}
				for e := 0; e < entities; e++ {
					pos := simnet.Point{X: float64(10 + 10*(e%8)), Y: float64(10 * (e / 8))}
					if err := fed.AddEntity(fmt.Sprintf("e%02d", e), pos, 2, nil); err != nil {
						b.Fatal(err)
					}
				}
				if err := fed.Start(); err != nil {
					b.Fatal(err)
				}
				fed.Settle(5 * time.Second)
				height := fed.DisseminationTree("quotes").MaxDepth()
				before := registrationsSent(fed)
				b.StartTimer()
				for q := 0; q < entities*perEntity; q++ {
					e := q % entities
					spec := priceQuery(fmt.Sprintf("q%03d", q), float64(q%10)*100, float64(q%10)*100+150,
						fmt.Sprintf("S%04d", (7*q)%100), fmt.Sprintf("S%04d", (7*q+3)%100))
					if err := fed.SubmitQueryTo(spec, fmt.Sprintf("e%02d", e), nil); err != nil {
						b.Fatal(err)
					}
					fed.Settle(5 * time.Second)
				}
				b.StopTimer()
				round := registrationsSent(fed) - before
				if round == 0 {
					b.Fatalf("no registrations counted for %d submits", entities*perEntity)
				}
				if max := height * entities * perEntity; round > max {
					b.Fatalf("%d registrations for %d submits on a tree of height %d: more than one per level",
						round, entities*perEntity, height)
				}
				regs += round
				submits += entities * perEntity
				fed.Close()
				net.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(regs)/float64(submits), "registrations/submit")
		})
	}
}
