// Package profile is the continuous profiling hook of the engine
// introspection plane (DESIGN.md §14): periodic CPU and heap pprof
// captures into a bounded on-disk ring, plus on-demand captures the
// backpressure watchdog triggers when a saturation rule breaches. The
// ring is delete-oldest, so a long-running node keeps a recent window
// of profiles in fixed disk space; captures are served by the HTTP API
// at GET /profiles.
//
// Everything here runs off the tuple path: the periodic loop sleeps
// between captures, heap profiles are written synchronously by the
// caller's goroutine, and CPU profiles run on their own goroutine for
// their sampling window. A single in-flight guard makes overlapping
// triggers (watchdog storm during saturation) collapse into one CPU
// capture instead of queueing.
package profile

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kinds of capture.
const (
	KindCPU  = "cpu"
	KindHeap = "heap"
)

// Capture describes one stored profile.
type Capture struct {
	// Name is the on-disk file name, unique and sortable by capture
	// order (zero-padded sequence prefix).
	Name string `json:"name"`
	// Kind is "cpu" or "heap".
	Kind string `json:"kind"`
	// Reason records why the capture happened: "periodic" or the
	// saturation rule that triggered it.
	Reason string `json:"reason"`
	// UnixNano is the capture completion time.
	UnixNano int64 `json:"unix_nano"`
	// Bytes is the stored profile size.
	Bytes int64 `json:"bytes"`
}

// Options configures a Recorder.
type Options struct {
	// Dir is the capture directory; created if missing.
	Dir string
	// CPUDuration is the CPU profile sampling window (default 1s).
	CPUDuration time.Duration
	// MaxCaptures bounds the on-disk ring (default 32); the oldest
	// captures are deleted to make room.
	MaxCaptures int
}

// DefaultMaxCaptures bounds the on-disk profile ring when Options does
// not say otherwise.
const DefaultMaxCaptures = 32

// DefaultCPUDuration is the default CPU sampling window.
const DefaultCPUDuration = time.Second

// Recorder owns the bounded on-disk profile ring.
type Recorder struct {
	opts Options

	mu       sync.Mutex
	captures []Capture // oldest first
	seq      uint64
	closed   bool

	// cpuBusy collapses concurrent CPU-capture requests: pprof supports
	// only one CPU profile at a time process-wide.
	cpuBusy atomic.Bool
	// onCapture, when set, is called after each stored capture (the
	// core plane journals profile.captured and bumps its counter).
	onCapture func(Capture)

	total atomic.Int64 // lifetime captures stored

	wg sync.WaitGroup
}

// NewRecorder creates the capture directory and returns a Recorder.
// Pre-existing captures in the directory are not adopted: each process
// starts its own ring (stale files are overwritten as names collide
// only within a process lifetime thanks to the pid infix).
func NewRecorder(opts Options) (*Recorder, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("profile: Dir is required")
	}
	if opts.CPUDuration <= 0 {
		opts.CPUDuration = DefaultCPUDuration
	}
	if opts.MaxCaptures <= 0 {
		opts.MaxCaptures = DefaultMaxCaptures
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return &Recorder{opts: opts}, nil
}

// SetOnCapture installs a hook called after every stored capture.
func (r *Recorder) SetOnCapture(fn func(Capture)) {
	r.mu.Lock()
	r.onCapture = fn
	r.mu.Unlock()
}

// Total returns the lifetime number of stored captures.
func (r *Recorder) Total() int64 { return r.total.Load() }

// Trigger captures a heap profile synchronously and starts an
// asynchronous CPU capture (skipped if one is already sampling).
// reason labels the captures ("periodic" — the owner clocks those — or
// the breached rule).
func (r *Recorder) Trigger(reason string) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.captureHeap(reason)
	r.captureCPUAsync(reason)
}

func (r *Recorder) captureHeap(reason string) {
	name := r.nextName(KindHeap)
	path := filepath.Join(r.opts.Dir, name)
	f, err := os.Create(path)
	if err != nil {
		return
	}
	// Fold recently freed objects in before snapshotting, the
	// conventional pre-heap-profile GC.
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	cerr := f.Close()
	if err != nil || cerr != nil {
		os.Remove(path)
		return
	}
	r.record(name, KindHeap, reason, path)
}

func (r *Recorder) captureCPUAsync(reason string) {
	if !r.cpuBusy.CompareAndSwap(false, true) {
		return // a CPU profile is already sampling
	}
	name := r.nextName(KindCPU)
	path := filepath.Join(r.opts.Dir, name)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.cpuBusy.Store(false)
		f, err := os.Create(path)
		if err != nil {
			return
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(path)
			return
		}
		time.Sleep(r.opts.CPUDuration)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			os.Remove(path)
			return
		}
		r.record(name, KindCPU, reason, path)
	}()
}

// nextName allocates a unique, order-sortable file name.
func (r *Recorder) nextName(kind string) string {
	r.mu.Lock()
	r.seq++
	n := r.seq
	r.mu.Unlock()
	return fmt.Sprintf("%06d-%s.pprof", n, kind)
}

// record registers a finished capture and evicts the oldest beyond the
// ring bound.
func (r *Recorder) record(name, kind, reason, path string) {
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	c := Capture{Name: name, Kind: kind, Reason: reason,
		UnixNano: time.Now().UnixNano(), Bytes: info.Size()}
	var evict []string
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		os.Remove(path)
		return
	}
	r.captures = append(r.captures, c)
	for len(r.captures) > r.opts.MaxCaptures {
		evict = append(evict, r.captures[0].Name)
		r.captures = r.captures[1:]
	}
	fn := r.onCapture
	r.mu.Unlock()
	r.total.Add(1)
	for _, n := range evict {
		os.Remove(filepath.Join(r.opts.Dir, n))
	}
	if fn != nil {
		fn(c)
	}
}

// Captures lists the stored captures, oldest first.
func (r *Recorder) Captures() []Capture {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Capture(nil), r.captures...)
}

// Open returns the stored bytes of one capture by name. The name is
// validated against the ring (no path traversal).
func (r *Recorder) Open(name string) ([]byte, error) {
	if strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("profile: bad capture name %q", name)
	}
	r.mu.Lock()
	found := false
	for _, c := range r.captures {
		if c.Name == name {
			found = true
			break
		}
	}
	r.mu.Unlock()
	if !found {
		return nil, fmt.Errorf("profile: unknown capture %q", name)
	}
	return os.ReadFile(filepath.Join(r.opts.Dir, name))
}

// Dir returns the capture directory.
func (r *Recorder) Dir() string { return r.opts.Dir }

// WaitIdle blocks until no asynchronous CPU capture is in flight —
// a test convenience.
func (r *Recorder) WaitIdle() { r.wg.Wait() }

// Close waits for in-flight captures and refuses new ones. Stored
// files stay on disk for post-mortem use.
func (r *Recorder) Close() {
	r.wg.Wait()
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

// SortCaptures orders captures newest first (the /profiles listing
// order).
func SortCaptures(cs []Capture) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name > cs[j].Name })
}
