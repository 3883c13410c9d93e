// Package obslog is sspd's structured observability log: a leveled,
// key-value logger backed by log/slog plus a bounded in-memory flight
// recorder (the Journal). Components emit *typed events* — a dotted
// kind from the taxonomy below, the originating node, a message, and
// key-value fields. Every event lands in the journal regardless of the
// text level, so a chaos run's full failure story (suspicion →
// confirmation → tree repair → re-placement) is reconstructable from
// GET /events even when stderr only shows warnings.
//
// Event-kind taxonomy (prefix-filterable at the API):
//
//	coordinator.split / coordinator.merge / coordinator.recenter
//	entity.join / entity.leave / entity.fail / entity.kill
//	detector.suspect / detector.confirm / detector.expel_failed
//	control.giveup
//	tree.repair
//	migration.plan / migration.start / migration.snapshot
//	migration.commit / migration.rollback / migration.place / migration.decide
//	ckpt.enable / ckpt.write / ckpt.replicate / ckpt.corrupt / ckpt.error
//	recovery.start / recovery.restore / recovery.done
//	ledger.error
//	link.down / link.up
//	decode.bad / decode.ok
//	stats.enable
//	slo.watch / slo.breach / slo.clear
//	engine.watch / engine.saturated / engine.recovered
//	profile.enable / profile.captured
//	am.route / am.reorder / am.explore
package obslog

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level aliases slog's levels so callers need only this package.
type Level = slog.Level

// Levels, re-exported for wiring convenience.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// DefaultJournalCapacity bounds the flight recorder when the caller
// passes no explicit size.
const DefaultJournalCapacity = 1024

// Event is one typed observability event. Seq is assigned by the
// journal at append time and is strictly increasing, so "since" cursors
// and causal ordering both fall out of it.
type Event struct {
	Seq    uint64            `json:"seq"`
	Time   time.Time         `json:"ts"`
	Level  string            `json:"level"`
	Kind   string            `json:"kind"`
	Node   string            `json:"node,omitempty"`
	Msg    string            `json:"msg"`
	Fields map[string]string `json:"fields,omitempty"`
}

// ValidKind reports whether s is a legal event kind: one or more
// non-empty dot-separated segments of [a-z0-9_-]. The /events endpoint
// uses it to reject malformed filters with 400 instead of silently
// matching nothing.
func ValidKind(s string) bool {
	if s == "" {
		return false
	}
	for _, seg := range strings.Split(s, ".") {
		if seg == "" {
			return false
		}
		for _, r := range seg {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' && r != '-' {
				return false
			}
		}
	}
	return true
}

// KindMatches reports whether an event kind matches a filter: exact
// match, or prefix match on a dot boundary ("detector" matches
// "detector.suspect" but not "detectors.x"). An empty filter matches
// everything.
func KindMatches(kind, filter string) bool {
	if filter == "" || kind == filter {
		return true
	}
	return len(kind) > len(filter) && strings.HasPrefix(kind, filter) && kind[len(filter)] == '.'
}

// Journal is the bounded in-memory flight recorder: a ring of the most
// recent events. Appends are O(1); old events are dropped (and counted)
// once capacity is reached. Safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	ring    []Event
	start   int // index of the oldest event
	n       int // events currently held
	nextSeq uint64
	dropped int64
}

// NewJournal returns a journal holding up to capacity events
// (<= 0 uses DefaultJournalCapacity).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{ring: make([]Event, 0, capacity), nextSeq: 1}
}

// Append stamps the event's Seq (and Time, when zero) and records it,
// evicting the oldest event when full. It returns the assigned Seq.
func (j *Journal) Append(e Event) uint64 {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	j.mu.Lock()
	e.Seq = j.nextSeq
	j.nextSeq++
	if j.n < cap(j.ring) {
		j.ring = append(j.ring, e)
		j.n++
	} else {
		j.ring[j.start] = e
		j.start = (j.start + 1) % cap(j.ring)
		j.dropped++
	}
	j.mu.Unlock()
	return e.Seq
}

// Since returns the buffered events with Seq > seq whose kind matches
// the filter (see KindMatches; "" matches all), oldest first.
func (j *Journal) Since(seq uint64, kindFilter string) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := 0; i < j.n; i++ {
		e := j.ring[(j.start+i)%cap(j.ring)]
		if e.Seq > seq && KindMatches(e.Kind, kindFilter) {
			out = append(out, e)
		}
	}
	return out
}

// Recent returns up to n of the newest events, oldest first.
func (j *Journal) Recent(n int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n <= 0 || n > j.n {
		n = j.n
	}
	out := make([]Event, 0, n)
	for i := j.n - n; i < j.n; i++ {
		out = append(out, j.ring[(j.start+i)%cap(j.ring)])
	}
	return out
}

// Len returns the number of buffered events.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// LastSeq returns the most recently assigned Seq (0 before any append).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq - 1
}

// Dropped returns how many events the ring has evicted — the signal to
// size the recorder up when a postmortem came back truncated.
func (j *Journal) Dropped() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Logger is the leveled key-value logger: every event is appended to
// the journal unconditionally, and rendered through the slog handler
// when it clears the handler's level. One Logger is shared by a whole
// federation; components receive it by reference.
type Logger struct {
	s *slog.Logger
	j *Journal
}

// New builds a logger over an explicit slog handler and journal
// (either may be nil: a nil handler keeps events journal-only, a nil
// journal makes the logger text-only).
func New(j *Journal, h slog.Handler) *Logger {
	l := &Logger{j: j}
	if h != nil {
		l.s = slog.New(h)
	}
	return l
}

// NewText builds a logger writing slog text lines at or above min to w,
// with a journal of the given capacity. This is the federation default:
// min = LevelWarn keeps stderr as quiet as the old once-per-transition
// log.Printf call sites, while the journal still records every event.
func NewText(w io.Writer, min Level, journalCapacity int) *Logger {
	return New(NewJournal(journalCapacity),
		slog.NewTextHandler(w, &slog.HandlerOptions{Level: min}))
}

// Journal exposes the flight recorder (nil for text-only loggers).
func (l *Logger) Journal() *Journal {
	if l == nil {
		return nil
	}
	return l.j
}

// Event records one typed event: journaled always, logged through slog
// when the handler's level admits it. kv is alternating key, value
// pairs; values are stringified with fmt.Sprint for the journal and
// passed through untouched to slog.
func (l *Logger) Event(level Level, kind, node, msg string, kv ...any) {
	if l == nil {
		return
	}
	if l.j != nil {
		e := Event{Level: levelName(level), Kind: kind, Node: node, Msg: msg}
		if len(kv) > 0 {
			e.Fields = make(map[string]string, len(kv)/2)
			for i := 0; i+1 < len(kv); i += 2 {
				e.Fields[fmt.Sprint(kv[i])] = fmt.Sprint(kv[i+1])
			}
		}
		l.j.Append(e)
	}
	if l.s != nil {
		args := make([]any, 0, len(kv)+4)
		args = append(args, "kind", kind)
		if node != "" {
			args = append(args, "node", node)
		}
		args = append(args, kv...)
		l.s.Log(context.Background(), level, msg, args...)
	}
}

// Debug records a debug-level event.
func (l *Logger) Debug(kind, node, msg string, kv ...any) {
	l.Event(LevelDebug, kind, node, msg, kv...)
}

// Info records an info-level event.
func (l *Logger) Info(kind, node, msg string, kv ...any) {
	l.Event(LevelInfo, kind, node, msg, kv...)
}

// Warn records a warning-level event.
func (l *Logger) Warn(kind, node, msg string, kv ...any) {
	l.Event(LevelWarn, kind, node, msg, kv...)
}

// Error records an error-level event.
func (l *Logger) Error(kind, node, msg string, kv ...any) {
	l.Event(LevelError, kind, node, msg, kv...)
}

func levelName(l Level) string {
	switch {
	case l >= LevelError:
		return "error"
	case l >= LevelWarn:
		return "warn"
	case l >= LevelInfo:
		return "info"
	default:
		return "debug"
	}
}

// defaultLogger serves components constructed without an explicit
// logger (bare relays in tests, benchmarks): warnings and errors to
// stderr, a small shared journal.
var defaultLogger atomic.Pointer[Logger]

// Default returns the process-wide fallback logger.
func Default() *Logger {
	if l := defaultLogger.Load(); l != nil {
		return l
	}
	l := NewText(os.Stderr, LevelWarn, 256)
	if defaultLogger.CompareAndSwap(nil, l) {
		return l
	}
	return defaultLogger.Load()
}
