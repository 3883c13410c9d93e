package core

import (
	"runtime"
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/simnet"
)

// TestIdleEntityFootprint gates what an idle entity costs at federation
// scale, in counts rather than time: a 64-entity SimNet federation
// (Locality trees, two processors per entity, no queries) may hold at
// most 64 KB of in-use heap and 4.1 goroutines per entity once the GC
// has run. A transport that preallocates per-node inboxes, or a plane
// that starts a goroutine per entity, fails it.
func TestIdleEntityFootprint(t *testing.T) {
	const (
		entities        = 64
		maxHeapPerEnt   = 64 << 10
		maxGoroutPerEnt = 4.1
	)
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	goroutines0 := runtime.NumGoroutine()
	heap0 := heapInuse()

	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	startFederation(t, net, Options{Strategy: dissemination.Locality, Fanout: 3},
		entities, 2, nil)
	if !net.Quiesce(5 * time.Second) {
		t.Fatal("idle federation never quiesced")
	}

	heap1 := heapInuse()
	goroutines := runtime.NumGoroutine() - goroutines0
	var heapPerEnt int64
	if heap1 > heap0 {
		heapPerEnt = int64(heap1-heap0) / entities
	}
	perEnt := float64(goroutines) / entities
	t.Logf("idle federation of %d entities: %d KB heap, %.2f goroutines per entity",
		entities, heapPerEnt>>10, perEnt)
	if heapPerEnt > maxHeapPerEnt {
		t.Errorf("in-use heap = %d KB per idle entity, want <= %d KB", heapPerEnt>>10, maxHeapPerEnt>>10)
	}
	if perEnt > maxGoroutPerEnt {
		t.Errorf("goroutines = %.2f per idle entity, want <= %.1f", perEnt, maxGoroutPerEnt)
	}
}
