package core

// The control clock: every periodic job of the federation — the stats
// digest period (with the watchdogs riding it), the checkpoint sweep,
// the adaptation controller, periodic profiling, the soft-state interest
// refresh — is one f.every registration. A job gets its own goroutine,
// so a slow one (an AdaptOnce migration) never delays the others; all of
// them share one stop channel and one WaitGroup.
//
// Lock rule: a job never runs under f.mu, and Close stops the clock
// before it closes a plane — once clock.halt returns, no job is running
// and none will start, so plane teardown cannot race a tick.

import (
	"sync"
	"time"
)

type clock struct {
	mu      sync.Mutex
	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// every runs fn each period on the control clock until the returned
// cancel is called or the federation closes. cancel waits for an
// in-flight fn, so it must not be called with a lock fn takes.
func (f *Federation) every(period time.Duration, fn func()) (cancel func()) {
	c := &f.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fn()
			case <-quit:
				return
			case <-c.stop:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// halt stops every job and waits for the in-flight ones (idempotent).
func (c *clock) halt() {
	c.mu.Lock()
	if !c.stopped {
		c.stopped = true
		close(c.stop)
	}
	c.mu.Unlock()
	c.wg.Wait()
}
