package sim

import (
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time = %v, want 3", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("event order = %v", order)
	}
	if e.events != 3 {
		t.Fatalf("events processed = %d, want 3", e.events)
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("nested times = %v", times)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestResourceSerialises(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "copy")
	var intervals [][2]float64
	record := func(s, en float64) { intervals = append(intervals, [2]float64{s, en}) }
	r.Submit(2, record)
	r.Submit(3, record)
	r.Submit(1, record)
	e.Run()
	want := [][2]float64{{0, 2}, {2, 5}, {5, 6}}
	if len(intervals) != len(want) {
		t.Fatalf("got %d intervals", len(intervals))
	}
	for i := range want {
		if intervals[i] != want[i] {
			t.Fatalf("interval %d = %v, want %v", i, intervals[i], want[i])
		}
	}
	if r.BusyTotal() != 6 {
		t.Fatalf("BusyTotal = %v, want 6", r.BusyTotal())
	}
	if r.jobs != 3 {
		t.Fatalf("jobs = %d, want 3", r.jobs)
	}
}

func TestResourceIdleGapThenWork(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "compute")
	var start2 float64
	e.Schedule(5, func() {
		r.Submit(1, func(s, _ float64) { start2 = s })
	})
	r.Submit(2, nil) // occupies [0,2]
	e.Run()
	if start2 != 5 {
		t.Fatalf("job after idle gap started at %v, want 5", start2)
	}
	if got := r.BusyTotal(); got != 3 {
		t.Fatalf("BusyTotal = %v, want 3 (the idle gap is not busy)", got)
	}
}

func TestResourceSubmitWhileBusyQueues(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	var second float64
	e.Schedule(1, func() {
		// Resource is busy until t=4; this job must start then.
		r.Submit(2, func(s, _ float64) { second = s })
	})
	r.Submit(4, nil)
	e.Run()
	if second != 4 {
		t.Fatalf("queued job started at %v, want 4", second)
	}
}

func TestResourceRejectsInvalidDuration(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative duration")
		}
	}()
	r.Submit(-1, nil)
}

func TestBarrierFiresWhenAllDone(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e)
	b.Add()
	b.Add()
	fired := -1.0
	e.Schedule(1, func() { b.Done() })
	e.Schedule(4, func() { b.Done() })
	b.Arm(func() { fired = e.Now() })
	e.Run()
	if fired != 4 {
		t.Fatalf("barrier fired at %v, want 4", fired)
	}
}

func TestBarrierFiresImmediatelyWhenNoDeps(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e)
	fired := false
	b.Arm(func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("barrier with no deps never fired")
	}
}

func TestBarrierDoneWithoutAddPanics(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Done()
}

func TestBarrierDoubleArmPanics(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e)
	b.Arm(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Arm(func() {})
}

func TestPipelineOverlapScenario(t *testing.T) {
	// Model: compute layers of 2 s each; each layer's offload (3 s) runs
	// on the copy engine concurrently; layer n+1 additionally waits for
	// offload n (vDNN-style). Expected: F1 [0,2], O1 [0,3], F2 starts at 3
	// (waits on O1), O2 [3,6], F3 starts 6, total = 8.
	e := NewEngine()
	compute := NewResource(e, "compute")
	copyEng := NewResource(e, "d2h")

	var done float64
	var runLayer func(n int, ready float64)
	runLayer = func(n int, ready float64) {
		if n > 3 {
			done = ready
			return
		}
		b := NewBarrier(e)
		b.Add() // compute
		compute.Submit(2, func(_, _ float64) { b.Done() })
		if n < 3 {
			b.Add() // offload gating the next layer
			copyEng.Submit(3, func(_, _ float64) { b.Done() })
		}
		b.Arm(func() { runLayer(n+1, e.Now()) })
	}
	runLayer(1, 0)
	e.Run()
	if done != 8 {
		t.Fatalf("pipeline finished at %v, want 8", done)
	}
}

func TestEngineStressRandomWorkload(t *testing.T) {
	// Thousands of interleaved jobs across several resources: time must
	// never regress, every callback must fire, and per-resource intervals
	// must be disjoint and ordered.
	e := NewEngine()
	res := []*Resource{NewResource(e, "a"), NewResource(e, "b"), NewResource(e, "c")}
	state := uint64(12345)
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 11) % n
	}
	fired := 0
	lastEnd := make([]float64, len(res))
	const jobs = 5000
	for i := 0; i < jobs; i++ {
		r := int(next(uint64(len(res))))
		dur := float64(next(1000)) / 1e4
		delay := float64(next(100)) / 1e3
		r2 := r
		e.Schedule(delay, func() {
			res[r2].Submit(dur, func(start, end float64) {
				fired++
				if start < lastEnd[r2]-1e-12 {
					t.Errorf("resource %d interval overlap: start %v < last end %v", r2, start, lastEnd[r2])
				}
				lastEnd[r2] = end
			})
		})
	}
	final := e.Run()
	if fired != jobs {
		t.Fatalf("fired %d of %d callbacks", fired, jobs)
	}
	for i, r := range res {
		if lastEnd[i] > final {
			t.Fatalf("resource %d finished after the engine: %v > %v", i, lastEnd[i], final)
		}
		if r.jobs == 0 {
			t.Fatalf("resource %d never used", i)
		}
	}
}
