package obslog

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestJournalAppendAssignsMonotonicSeq(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		seq := j.Append(Event{Kind: "entity.join", Msg: fmt.Sprintf("e%d", i)})
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq = %d, want %d", i, seq, i+1)
		}
	}
	if got := j.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	if got := j.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	evs := j.Since(0, "")
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
		if evs[i].Time.IsZero() {
			t.Fatalf("event %d has zero time", i)
		}
	}
}

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(4)
	for i := 1; i <= 10; i++ {
		j.Append(Event{Kind: "k", Msg: fmt.Sprintf("m%d", i)})
	}
	if got := j.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := j.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := j.Since(0, "")
	if len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("survivors = %+v, want seqs 7..10", evs)
	}
}

func TestJournalSinceCursorAndKindFilter(t *testing.T) {
	j := NewJournal(16)
	j.Append(Event{Kind: "detector.suspect", Node: "e1"})
	j.Append(Event{Kind: "detector.confirm", Node: "e1"})
	j.Append(Event{Kind: "tree.repair", Node: "e2"})
	j.Append(Event{Kind: "detectors.fake", Node: "e3"}) // must NOT match prefix "detector"

	if got := len(j.Since(0, "detector")); got != 2 {
		t.Fatalf("Since(0, detector) = %d events, want 2 (dot-boundary prefix)", got)
	}
	if got := len(j.Since(0, "detector.confirm")); got != 1 {
		t.Fatalf("exact kind match = %d events, want 1", got)
	}
	evs := j.Since(2, "")
	if len(evs) != 2 || evs[0].Seq != 3 {
		t.Fatalf("Since(2) = %+v, want seqs 3,4", evs)
	}
	if got := len(j.Since(j.LastSeq(), "")); got != 0 {
		t.Fatalf("Since(last) = %d events, want 0", got)
	}
}

func TestJournalRecent(t *testing.T) {
	j := NewJournal(8)
	for i := 1; i <= 6; i++ {
		j.Append(Event{Kind: "k"})
	}
	evs := j.Recent(3)
	if len(evs) != 3 || evs[0].Seq != 4 || evs[2].Seq != 6 {
		t.Fatalf("Recent(3) = %+v, want seqs 4,5,6", evs)
	}
	if got := len(j.Recent(0)); got != 6 {
		t.Fatalf("Recent(0) = %d, want all 6", got)
	}
}

func TestValidKind(t *testing.T) {
	valid := []string{"tree.repair", "detector", "link.down", "a.b.c", "x_1-2"}
	invalid := []string{"", ".", "a.", ".a", "a..b", "Tree.Repair", "a b", "a/b"}
	for _, k := range valid {
		if !ValidKind(k) {
			t.Errorf("ValidKind(%q) = false, want true", k)
		}
	}
	for _, k := range invalid {
		if ValidKind(k) {
			t.Errorf("ValidKind(%q) = true, want false", k)
		}
	}
}

func TestLoggerTeesToJournalAndRespectsTextLevel(t *testing.T) {
	var buf bytes.Buffer
	l := NewText(&buf, LevelWarn, 16)
	l.Info("entity.join", "e1", "entity joined", "streams", 3)
	l.Warn("link.down", "e1", "send failed", "link", "e2:s0", "err", "boom")

	j := l.Journal()
	if got := j.Len(); got != 2 {
		t.Fatalf("journal holds %d events, want 2 (info must be journaled)", got)
	}
	evs := j.Since(0, "")
	if evs[0].Level != "info" || evs[0].Kind != "entity.join" || evs[0].Fields["streams"] != "3" {
		t.Fatalf("journaled info event wrong: %+v", evs[0])
	}
	if evs[1].Fields["link"] != "e2:s0" {
		t.Fatalf("journaled warn fields wrong: %+v", evs[1])
	}

	out := buf.String()
	if strings.Contains(out, "entity joined") {
		t.Fatalf("info line leaked to text output at warn level:\n%s", out)
	}
	if !strings.Contains(out, "send failed") || !strings.Contains(out, "kind=link.down") {
		t.Fatalf("warn line missing from text output:\n%s", out)
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Warn("link.down", "e1", "should not panic")
	if l.Journal() != nil {
		t.Fatal("nil logger must expose a nil journal")
	}
}

func TestJournalConcurrentAppend(t *testing.T) {
	j := NewJournal(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j.Append(Event{Kind: "k"})
			}
		}()
	}
	wg.Wait()
	if got := j.LastSeq(); got != 800 {
		t.Fatalf("LastSeq = %d, want 800", got)
	}
	if j.Len() != 128 || j.Dropped() != 800-128 {
		t.Fatalf("Len=%d Dropped=%d, want 128 and %d", j.Len(), j.Dropped(), 800-128)
	}
}

func TestDefaultLogger(t *testing.T) {
	old := defaultLogger.Load()
	defer defaultLogger.Store(old)
	defaultLogger.Store(nil)
	l := Default()
	if l == nil || l.Journal() == nil {
		t.Fatal("Default() must build a journal-backed logger")
	}
	if Default() != l {
		t.Fatal("Default() must be stable across calls")
	}
}
