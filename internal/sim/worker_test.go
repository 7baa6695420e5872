package sim

import (
	"runtime"
	"strings"
	"testing"
)

// Worker lifecycle tests: every process runs on a pooled coroutine, and a
// Run that returns must have ended the coroutines of all idle workers,
// whichever way the run ended.

// checkNoCoroutinesLeft runs build's simulation to completion and checks
// that the goroutine count is back to where it started. Inside a process
// the count must be higher, or the check would not be looking at the
// coroutines at all.
func checkNoCoroutinesLeft(t *testing.T, build func(s *Simulation, probe func(*Proc)), wantErr string) {
	t.Helper()
	before := runtime.NumGoroutine()
	during := 0
	s := New()
	build(s, func(*Proc) { during = runtime.NumGoroutine() })
	err := s.Run()
	switch {
	case wantErr == "" && err != nil:
		t.Fatalf("Run: %v", err)
	case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
		t.Fatalf("Run = %v, want error containing %q", err, wantErr)
	}
	if during != 0 && during <= before {
		t.Errorf("goroutines inside a process = %d, want more than the %d before Run", during, before)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines after Run = %d, want %d as before", after, before)
	}
}

func TestRunEndsWorkerCoroutines(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		checkNoCoroutinesLeft(t, func(s *Simulation, probe func(*Proc)) {
			for i := 0; i < 3; i++ {
				s.Spawn("worker", func(p *Proc) {
					p.Wait(Microsecond)
					p.Spawn("child", probe)
				})
			}
		}, "")
	})
	t.Run("panic", func(t *testing.T) {
		checkNoCoroutinesLeft(t, func(s *Simulation, probe func(*Proc)) {
			s.Spawn("bystander", probe)
			s.Spawn("bomb", func(p *Proc) {
				p.Wait(Microsecond)
				panic("boom")
			})
		}, "boom")
	})
	t.Run("killed before first dispatch", func(t *testing.T) {
		checkNoCoroutinesLeft(t, func(s *Simulation, probe func(*Proc)) {
			s.Spawn("never", probe).Kill()
		}, "")
	})
}

// TestRunFromAnotherGoroutineResumes stops a simulation with processes
// blocked on a timer and on a mailbox, then finishes it from a different
// goroutine: the suspended coroutines must resume there.
func TestRunFromAnotherGoroutineResumes(t *testing.T) {
	s := New()
	m := NewMailbox(s, "m")
	var ticks, got int
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Wait(Millisecond)
			ticks++
		}
		m.Send(ticks)
	})
	s.Spawn("receiver", func(p *Proc) { got = m.Recv(p).(int) })
	if err := s.RunUntil(Time(3*Millisecond + Microsecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 || s.LiveProcs() != 2 {
		t.Fatalf("after RunUntil: ticks = %d, live = %d; want 3, 2", ticks, s.LiveProcs())
	}
	done := make(chan error)
	go func() { done <- s.Run() }()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ticks != 10 || got != 10 || s.Now() != Time(10*Millisecond) {
		t.Fatalf("after Run: ticks = %d, received %d, clock %v; want 10, 10, 10ms", ticks, got, Duration(s.Now()))
	}
}

func emptyProc(*Proc) {}

// TestSpawnOnRecycledWorkerAllocatesOnlyProc pins that the worker pool
// absorbs the cost of creating a coroutine: once a worker is recycled,
// Spawn allocates the Proc and nothing else.
func TestSpawnOnRecycledWorkerAllocatesOnlyProc(t *testing.T) {
	const warmup, rounds = 100, 1000
	s := New()
	var delta uint64
	s.Spawn("parent", func(p *Proc) {
		spawn := func(n int) {
			for i := 0; i < n; i++ {
				p.Spawn("child", emptyProc)
				p.Wait(0) // the child runs, terminates and returns its worker
			}
		}
		spawn(warmup)
		delta = mallocsAround(func() { spawn(rounds) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delta != rounds {
		t.Errorf("%d spawns on a recycled worker allocated %d times, want %d (the Proc only)", rounds, delta, rounds)
	}
}
