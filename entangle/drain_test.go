package entangle

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// A drain must let a coordinating pair that is already pooled finish —
// today's behavior (plain Close) would fail both with ErrEngineClosed.
func TestDrainCompletesPooledPair(t *testing.T) {
	// RunFrequency high enough that the submissions alone never trigger a
	// run: the transactions sit in the dormant pool until Drain's forced
	// runs execute them.
	db := openTest(t, Options{RunFrequency: 100, RetryInterval: time.Hour})
	h1, err := db.SubmitScript(pairScript("Mickey", "Minnie"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := db.SubmitScript(pairScript("Minnie", "Mickey"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if o := h1.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Mickey after drain: %+v", o)
	}
	if o := h2.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Minnie after drain: %+v", o)
	}
	res, _ := db.Query("SELECT name FROM Bookings")
	if len(res.Rows) != 2 {
		t.Fatalf("bookings = %v", res.Rows)
	}
}

// A pooled transaction whose partner never arrives cannot complete; drain
// aborts it deterministically with ErrDraining rather than ErrEngineClosed.
func TestDrainAbortsPartnerlessDeterministically(t *testing.T) {
	db := openTest(t, Options{RunFrequency: 100, RetryInterval: time.Hour})
	h, err := db.SubmitScript(pairScript("Donald", "Daffy"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	o := h.Wait()
	if o.Status != StatusTimedOut || !errors.Is(o.Err, core.ErrDraining) {
		t.Fatalf("Donald after drain: %+v", o)
	}
	// Attempts > 0: the transaction got real runs before being cut off.
	if o.Attempts == 0 {
		t.Fatalf("expected at least one drain run, got %+v", o)
	}
}

// Submissions after Drain are rejected; an expired context aborts the
// remaining work and reports the context error.
func TestDrainRejectsNewWorkAndHonorsContext(t *testing.T) {
	db := openTest(t, Options{RunFrequency: 100, RetryInterval: time.Hour})
	hPooled, err := db.SubmitScript(pairScript("Pluto", "Goofy"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: drain must still abort the pool
	if err := db.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with canceled ctx: %v", err)
	}
	if o := hPooled.Wait(); o.Status != StatusTimedOut || !errors.Is(o.Err, core.ErrDraining) {
		t.Fatalf("pooled after canceled drain: %+v", o)
	}
	h := db.Submit(Program{Body: func(tx *Tx) error { return nil }})
	if o := h.Wait(); !errors.Is(o.Err, core.ErrEngineClosed) {
		t.Fatalf("submit after drain: %+v", o)
	}
}

// Handle.Poll is non-blocking before completion and agrees with Wait after.
func TestHandlePoll(t *testing.T) {
	db := openTest(t, Options{RunFrequency: 2})
	h, err := db.SubmitScript(pairScript("Chip", "Dale"))
	if err != nil {
		t.Fatal(err)
	}
	// The partner has not arrived; poll must not block (it may or may not
	// report done=false depending on scheduling, but it must return).
	h.Poll()
	h2, err := db.SubmitScript(pairScript("Dale", "Chip"))
	if err != nil {
		t.Fatal(err)
	}
	if o := h2.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Dale: %+v", o)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if o, ok := h.Poll(); ok {
			if o.Status != StatusCommitted {
				t.Fatalf("Chip: %+v", o)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poll never reported completion")
		}
		time.Sleep(time.Millisecond)
	}
	if o := h.Wait(); o.Status != StatusCommitted {
		t.Fatalf("wait after poll: %+v", o)
	}
}
