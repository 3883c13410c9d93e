package main

import (
	"runtime"
	"syscall"
	"time"

	"sspd"
)

const (
	// batchSize is the tuples per published batch.
	batchSize = 64
	// poolBatches is how many distinct batches the generator cycles
	// through: 32768 tuples, far more than any window or intern table in
	// the system holds. It is not larger because the pool is the one big
	// pointer-carrying structure the harness keeps alive: at 4096 batches
	// (52 MB) every GC cycle spent ~50 ms marking it on one of the two
	// processors, which showed up as 45 ms generator stalls and a quarter
	// less closed-loop throughput — the harness measuring itself.
	poolBatches = 512
	// warmBatches are published (and checked) before anything is timed.
	warmBatches = 50
)

// pool is the pre-generated input: the run publishes batch k as
// pool.batches[k % len], re-stamped with dense sequence numbers and the
// publish (or due) time, so generating tuples costs nothing while the
// system is being timed and the oracle can replay the exact sequence.
type pool struct {
	batches []sspd.Batch
	symbols []string
}

func newPool(seed int64, nBatches int) *pool {
	tk := sspd.NewTicker(seed, numSymbols, zipfSkew)
	p := &pool{batches: make([]sspd.Batch, nBatches), symbols: tk.Symbols()}
	for i := range p.batches {
		p.batches[i] = tk.Batch(batchSize)
	}
	return p
}

// batch returns global batch k stamped in place: tuple j gets sequence
// number k*batchSize+j and timestamp ts. The pool slot is reused the
// next time round, which is safe because Publish has consumed the batch
// (relays clone what they keep) by the time it returns.
func (p *pool) batch(k int, ts time.Time) sspd.Batch {
	b := p.batches[k%len(p.batches)]
	seq := uint64(k) * batchSize
	for j := range b {
		b[j].Seq = seq + uint64(j)
		b[j].Ts = ts
	}
	return b
}

// plan fixes how many batches each phase publishes, so every count the
// run reports repeats exactly for a given seed and length.
type plan struct {
	Warm, Sat, Paced int
	// PacedInterval is the open-loop gap between batch due times.
	PacedInterval time.Duration
}

func (p plan) total() int      { return p.Warm + p.Sat + p.Paced }
func (p plan) satStart() int   { return p.Warm }
func (p plan) pacedStart() int { return p.Warm + p.Sat }

// makePlan splits the run's seconds evenly between the closed-loop and
// the open-loop phase.
func makePlan(w workloadDef, seconds float64) plan {
	half := seconds / 2
	sat := int(float64(w.SatTuplesPerSec) * half / batchSize)
	paced := int(float64(w.PacedTuplesPerSec) * half / batchSize)
	return plan{
		Warm:          warmBatches,
		Sat:           max(sat, 1),
		Paced:         max(paced, 1),
		PacedInterval: time.Duration(float64(time.Second) * batchSize / float64(w.PacedTuplesPerSec)),
	}
}

// pacedClock abstracts time for runPaced so a test can simulate a stall.
type pacedClock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = pacedClock{now: time.Now, sleep: preciseSleep}

// spinTail is the last stretch of every wait, which preciseSleep spends
// yielding instead of sleeping; no batch interval is longer.
const spinTail = 5 * time.Millisecond

// preciseSleep waits for d to within a few microseconds by yielding the
// processor in a loop until the deadline (sleeping first only through
// what exceeds spinTail). A generator that sleeps between batches is at
// the mercy of the timer and of the scheduler: time.Sleep rounds
// sub-millisecond waits up to about 1.1 ms on Linux (a 300 µs sleep
// overshot by 830 µs at the median on the reference box), and a
// goroutine coming back from nanosleep has lost its processor and queues
// for one behind everything else that is runnable — measured side by side
// on a busy host, nanosleep pacing ran 20–480 ms late at the 99th
// percentile and moved the median result latency between 0.4 and 3.4 ms,
// where yielding ran 1–18 ms late and held it between 0.28 and 0.33 ms.
// The yielding generator keeps one processor awake, like a source on a
// machine of its own, and gives it up whenever anything else can run:
// Gosched hands it to a runnable goroutine, sched_yield to a runnable
// thread. Without the second, a transport reader woken on the generator's
// processor (loopback TCP wakes the receiver beside the sender) waited out
// the spinning thread's time slice, which alone put the median result
// latency over TCP at 1.6 ms instead of 0.2 ms.
func preciseSleep(d time.Duration) {
	deadline := time.Now().Add(d)
	if d > spinTail {
		time.Sleep(d - spinTail)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
		syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) // cannot fail on Linux
	}
}

// catchUp bounds how fast the generator works off a backlog after it
// has itself been stalled: at most this multiple of the nominal rate,
// like a source whose link is that much wider than its stream. Without
// it a 100 ms host stall becomes a burst of 100 ms of tuples sent back
// to back, which overflows the shipped engines' bounded queues — loss
// caused by the generator's host, not by the system at the stated rate.
const catchUp = 2

// runPaced is the open-loop generator: batch i is due at start +
// i×interval, is handed to publish stamped with that due time (not the
// send time), and is never skipped. Whatever holds the generator up —
// Publish returning after the next batch was due, or its own host
// descheduling it — every batch queued behind is charged the wait, and the
// backlog goes out at catchUp times the nominal rate. It returns how long
// after its due time each batch was sent; a run whose generator ran late
// reports its latency as unresolved.
func runPaced(n int, start time.Time, interval time.Duration, clk pacedClock,
	publish func(i int, due time.Time)) (late []time.Duration) {
	late = make([]time.Duration, n)
	var lastSend time.Time
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		sendAt := due
		if earliest := lastSend.Add(interval / catchUp); i > 0 && earliest.After(sendAt) {
			sendAt = earliest
		}
		if wait := sendAt.Sub(clk.now()); wait > 0 {
			clk.sleep(wait)
		}
		lastSend = clk.now()
		if l := lastSend.Sub(due); l > 0 {
			late[i] = l
		}
		publish(i, due)
	}
	return late
}
