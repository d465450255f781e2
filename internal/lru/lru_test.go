package lru

import (
	"errors"
	"testing"
	"time"
)

type key [32]byte

// TestBeginOutcomes: a first Begin runs fn (Miss), a concurrent Begin
// on the same key joins without running fn and blocks only in Wait
// (Joined), and a later Begin is served from the LRU (Hit).
func TestBeginOutcomes(t *testing.T) {
	c := New[key, int](16)
	k := key{3}
	gate, running := make(chan struct{}), make(chan struct{})
	leader := make(chan Flight[int])
	go func() {
		leader <- c.Begin(k, func() (int, error) { close(running); <-gate; return 7, nil })
	}()
	<-running
	joined := c.Begin(k, func() (int, error) { t.Error("joined caller ran fn"); return 0, nil })
	if joined.Outcome != Joined {
		t.Fatalf("concurrent Begin outcome = %v; want Joined", joined.Outcome)
	}
	waited := make(chan int)
	go func() { v, _ := joined.Wait(); waited <- v }()
	select {
	case <-waited:
		t.Fatal("Wait returned before the computation finished")
	case <-time.After(10 * time.Millisecond):
	}
	close(gate)
	if f := <-leader; f.Outcome != Miss {
		t.Errorf("leader outcome = %v; want Miss", f.Outcome)
	}
	if v := <-waited; v != 7 {
		t.Errorf("joined value = %d; want 7", v)
	}
	hit := c.Begin(k, func() (int, error) { t.Error("hit ran fn"); return 0, nil })
	if v, err := hit.Wait(); hit.Outcome != Hit || v != 7 || err != nil {
		t.Errorf("repeat Begin = (%v, %d, %v); want Hit 7", hit.Outcome, v, err)
	}
	if c.Hits() != 1 || c.Misses() != 1 || c.Coalesced() != 1 {
		t.Errorf("hits/misses/coalesced = %d/%d/%d; want 1/1/1", c.Hits(), c.Misses(), c.Coalesced())
	}
}

// TestPanicReachesWaiters: a caller joined to a computation that
// panics gets ErrPanicked instead of blocking forever.
func TestPanicReachesWaiters(t *testing.T) {
	c := New[key, int](16)
	k := key{5}
	gate, running := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }() //nolint:errcheck // the panic is the point
		c.Begin(k, func() (int, error) { close(running); <-gate; panic("kaboom") })
	}()
	<-running
	joined := c.Begin(k, func() (int, error) { return 0, nil })
	close(gate)
	if _, err := joined.Wait(); !errors.Is(err, ErrPanicked) {
		t.Errorf("joined caller err = %v; want ErrPanicked", err)
	}
}
