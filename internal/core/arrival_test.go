package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
)

// TestEngineBaseHeapSmall: an idle engine holds no preallocated queue
// storage. NewEngine+Close must leave less than 64 KB of heap behind (the
// buffered arrival channel alone used to be 512 KB).
func TestEngineBaseHeapSmall(t *testing.T) {
	txm := txn.NewManager(storage.NewCatalog(), lock.New(time.Second), nil)
	grew := int64(1 << 62)
	// The minimum of a few samples discards allocations other goroutines
	// of the test binary happen to make during one of them.
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e := NewEngine(txm, Options{})
		e.Close()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(e)
		if d := int64(after.HeapAlloc) - int64(before.HeapAlloc); d < grew {
			grew = d
		}
	}
	if grew >= 64<<10 {
		t.Fatalf("NewEngine+Close retains %d bytes of heap, want < 64 KB", grew)
	}
}

// TestSubmitQueueFullThenCloseFailsQueued holds the scheduler inside a
// blocking program body, fills the arrival queue to its cap, and checks
// that the next Submit is refused with ErrSubmitQueueFull and that Close
// fails every queued program with ErrEngineClosed without running it.
// Submit starts no goroutines, so only the blocker's member runs.
func TestSubmitQueueFullThenCloseFailsQueued(t *testing.T) {
	e := NewEngine(txn.NewManager(storage.NewCatalog(), lock.New(time.Second), nil), Options{})
	started, release := make(chan struct{}), make(chan struct{})
	blocker := e.Submit(Program{Name: "blocker", Body: func(*Tx) error {
		close(started)
		<-release
		return nil
	}})
	<-started

	var ran atomic.Int64
	queued := Program{Name: "queued", Body: func(*Tx) error {
		ran.Add(1)
		return nil
	}}
	handles := make([]*Handle, maxArrivals)
	for i := range handles {
		handles[i] = e.Submit(queued)
	}
	if o := e.Submit(queued).Wait(); o.Status != StatusFailed || !errors.Is(o.Err, ErrSubmitQueueFull) {
		t.Fatalf("submit past the cap: %+v, want ErrSubmitQueueFull", o)
	}

	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	for {
		e.mu.Lock()
		c := e.closed
		e.mu.Unlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-closed

	if o := blocker.Wait(); o.Status != StatusCommitted {
		t.Fatalf("blocker: %+v, want committed", o)
	}
	for i, h := range handles {
		if o := h.Wait(); o.Status != StatusFailed || !errors.Is(o.Err, ErrEngineClosed) {
			t.Fatalf("queued program %d: %+v, want ErrEngineClosed", i, o)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d queued programs ran after Close", n)
	}
}
