package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or stalled.
type fakeClock struct{ t time.Time }

func (c *fakeClock) clock() pacedClock {
	return pacedClock{
		now:   func() time.Time { return c.t },
		sleep: func(d time.Duration) { c.t = c.t.Add(d) },
	}
}

// A 50 ms stall must charge every batch queued behind it, whether the
// system caused it (inside Publish) or the generator's own host did (it
// overslept the wait for a send time).
func TestPacedStallChargesEveryQueuedBatch(t *testing.T) {
	const n = 200
	const stall = 50 * time.Millisecond
	interval := time.Millisecond
	for _, where := range []string{"publish", "sleep"} {
		t.Run(where, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			start := clk.t
			pc := clk.clock()
			waits := 0
			pc.sleep = func(d time.Duration) {
				// Batch 0 is due at once, so wait 11 is the one for batch 11.
				if waits++; where == "sleep" && waits == 11 {
					d += stall - interval
				}
				clk.t = clk.t.Add(d)
			}
			var dues, sends []time.Time
			late := runPaced(n, start, interval, pc, func(i int, due time.Time) {
				dues = append(dues, due)
				sends = append(sends, clk.t)
				if where == "publish" && i == 10 {
					clk.t = clk.t.Add(stall)
				}
			})
			if len(dues) != n {
				t.Fatalf("published %d batches, want %d: the generator must never skip", len(dues), n)
			}
			for i, due := range dues {
				if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
					t.Fatalf("batch %d stamped %v, want its due time %v (not its send time)", i, due, want)
				}
				if sends[i].Before(due) {
					t.Fatalf("batch %d sent %v before it was due", i, due.Sub(sends[i]))
				}
			}
			for i := 0; i <= 10; i++ {
				if late[i] != 0 {
					t.Errorf("batch %d was late by %v before the stall", i, late[i])
				}
			}
			// Batch 11 was due 1 ms after batch 10 and is sent when the
			// stall ends: 49 ms late. The backlog drains at catchUp× the
			// rate, so each later batch gains interval/catchUp until the
			// generator is on time.
			if late[11] != stall-interval {
				t.Errorf("batch 11 late by %v, want %v", late[11], stall-interval)
			}
			charged := 0
			for i := 11; i < n; i++ {
				if late[i] > 0 {
					charged++
					if want := late[i-1] - interval/catchUp; i > 11 && late[i] != want {
						t.Fatalf("batch %d late by %v, want %v (backlog drains at %d× rate)", i, late[i], want, catchUp)
					}
				}
			}
			if want := 49 * catchUp; charged != want {
				t.Errorf("%d batches were charged the stall, want %d", charged, want)
			}
			if late[n-1] != 0 {
				t.Errorf("generator still %v late at the end", late[n-1])
			}
		})
	}
}

func TestPoolStampsDenseSequence(t *testing.T) {
	p := newPool(7, 4)
	again := newPool(7, 4)
	ts := time.Unix(5, 0)
	for k := 0; k < 10; k++ {
		b := p.batch(k, ts)
		if len(b) != batchSize {
			t.Fatalf("batch %d has %d tuples", k, len(b))
		}
		for j := range b {
			if want := uint64(k*batchSize + j); b[j].Seq != want || !b[j].Ts.Equal(ts) {
				t.Fatalf("batch %d tuple %d: seq %d ts %v, want %d %v", k, j, b[j].Seq, b[j].Ts, want, ts)
			}
		}
		// Same seed, same inputs; the pool cycles.
		same := again.batches[k%4]
		for j := range b {
			if !b[j].Values[0].Equal(same[j].Values[0]) || !b[j].Values[2].Equal(same[j].Values[2]) {
				t.Fatalf("batch %d tuple %d differs between two pools of one seed", k, j)
			}
		}
	}
	if other := newPool(8, 4); other.batches[0][0].Values[2].Equal(p.batches[0][0].Values[2]) &&
		other.batches[0][1].Values[2].Equal(p.batches[0][1].Values[2]) {
		t.Error("two seeds generated the same tuples")
	}
}

func TestMakePlan(t *testing.T) {
	w := workloadDef{SatTuplesPerSec: 64000, PacedTuplesPerSec: 6400}
	pl := makePlan(w, 10)
	if pl.Sat != 5000 || pl.Paced != 500 || pl.Warm != warmBatches || pl.PacedInterval != 10*time.Millisecond {
		t.Errorf("plan %+v", pl)
	}
	if pl.total() != pl.Warm+5500 || pl.satStart() != pl.Warm || pl.pacedStart() != pl.Warm+5000 {
		t.Errorf("plan offsets %d %d %d", pl.total(), pl.satStart(), pl.pacedStart())
	}
	if tiny := makePlan(w, 0.001); tiny.Sat < 1 || tiny.Paced < 1 {
		t.Errorf("tiny plan %+v leaves a phase empty", tiny)
	}
}
