package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// guard runs fn on its own goroutine and waits for it at most d. When
// the deadline passes it writes every goroutine's stack to hangPath and
// returns false; fn's goroutine is abandoned (a wedged system cannot be
// cancelled from outside), so the caller must report the workload as
// failed and exit the process rather than keep measuring.
func guard(phase string, d time.Duration, hangPath string, fn func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		dumpStacks(phase, d, hangPath)
		return false
	}
}

func dumpStacks(phase string, d time.Duration, path string) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) || len(buf) >= 64<<20 {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	header := fmt.Sprintf("phase %q exceeded its %v deadline at %s\n\n", phase, d, time.Now().Format(time.RFC3339))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = os.WriteFile(path, append([]byte(header), buf...), 0o644)
		if err == nil {
			return
		}
	}
	// The dump is the only evidence of the wedge; if the file cannot be
	// written, standard error still carries it.
	fmt.Fprint(os.Stderr, header, string(buf))
}
