package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestGuardFiresOnBlockedPhase(t *testing.T) {
	hang := filepath.Join(t.TempDir(), "out", "w.hang.txt")
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	ok := guard("sat", 50*time.Millisecond, hang, func() { <-release })
	if ok {
		t.Fatal("guard reported a blocked phase as finished")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("guard took %v to give up on a 50 ms deadline", d)
	}
	dump, err := os.ReadFile(hang)
	if err != nil {
		t.Fatalf("no stack dump: %v", err)
	}
	if !strings.Contains(string(dump), `phase "sat"`) || !strings.Contains(string(dump), "TestGuardFiresOnBlockedPhase") {
		t.Errorf("stack dump names neither the phase nor the blocked goroutine:\n%.400s", dump)
	}
}

func TestGuardPassesFinishedPhase(t *testing.T) {
	hang := filepath.Join(t.TempDir(), "w.hang.txt")
	ran := false
	if !guard("warmup", time.Second, hang, func() { ran = true }) || !ran {
		t.Fatal("guard failed a phase that finished in time")
	}
	if _, err := os.Stat(hang); err == nil {
		t.Error("guard wrote a hang file for a phase that finished")
	}
}
