package par

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestForCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		seen := make([]atomic.Int32, n)
		For(n, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestForNForcedConcurrency(t *testing.T) {
	const n = 200
	var sum atomic.Int64
	forN(8, n, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != n*(n-1)/2 {
		t.Fatalf("sum %d, want %d", got, n*(n-1)/2)
	}
}

func TestForNSequentialFallback(t *testing.T) {
	// workers <= 1 must execute in order on the calling goroutine.
	order := make([]int, 0, 5)
	forN(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order: %v", order)
		}
	}
}

func TestForNWorkerPanicRepanicsOnCaller(t *testing.T) {
	withAndWithoutReservation(t, workerPanicRepanicsOnCaller)
}

func workerPanicRepanicsOnCaller(t *testing.T) {
	defer func() {
		v := recover()
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *PanicError", v, v)
		}
		if pe.Index != 37 {
			t.Fatalf("panic index %d, want 37", pe.Index)
		}
		if pe.Value != "boom" {
			t.Fatalf("panic value %v, want boom", pe.Value)
		}
		if !strings.Contains(pe.Error(), "task 37 panicked: boom") {
			t.Fatalf("message %q lacks task index", pe.Error())
		}
		if len(pe.Stack) == 0 {
			t.Fatal("panic stack missing")
		}
	}()
	forN(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Fatal("forN returned despite a panicking task")
}

func TestForNSerialPanicKeepsIndex(t *testing.T) {
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok || pe.Index != 3 {
			t.Fatalf("recovered %v, want *PanicError with index 3", pe)
		}
	}()
	forN(1, 5, func(i int) {
		if i == 3 {
			panic("serial boom")
		}
	})
	t.Fatal("serial forN returned despite a panicking task")
}

func TestForNAllTasksRunDespitePanic(t *testing.T) {
	// Non-panicking tasks keep running on the surviving workers.
	var ran atomic.Int64
	func() {
		defer func() { recover() }()
		forN(8, 200, func(i int) {
			if i == 0 {
				panic("early")
			}
			ran.Add(1)
		})
	}()
	if got := ran.Load(); got != 199 {
		t.Fatalf("%d non-panicking tasks ran, want 199", got)
	}
}

// TestForNEveryTaskRunsWhenEveryWorkerPanics: a panic costs a worker one
// task, not the rest of its share — with two workers and two panicking
// tasks the other eight still run before the first panic surfaces.
func TestForNEveryTaskRunsWhenEveryWorkerPanics(t *testing.T) {
	var ran atomic.Int64
	pe := Catch(func() {
		forN(2, 10, func(i int) {
			if i < 2 {
				panic("boom")
			}
			ran.Add(1)
		})
	})
	if pe == nil || pe.Value != "boom" {
		t.Fatalf("recovered %+v, want the task's *PanicError", pe)
	}
	if got := ran.Load(); got != 8 {
		t.Fatalf("%d non-panicking tasks ran, want 8", got)
	}
}

func TestForNNegative(t *testing.T) {
	called := false
	forN(4, -3, func(int) { called = true })
	if called {
		t.Fatal("fn called for negative n")
	}
}

// TestCatch: a panic becomes a value with a stack; one re-raised by a loop
// keeps the index and stack of the task that panicked; no panic, nil.
func TestCatch(t *testing.T) {
	if pe := Catch(func() {}); pe != nil {
		t.Fatalf("no panic, got %v", pe)
	}
	pe := Catch(func() { panic("boom") })
	if pe == nil || pe.Value != "boom" || pe.Index != -1 || len(pe.Stack) == 0 {
		t.Fatalf("direct panic recovered as %+v", pe)
	}
	pe = Catch(func() {
		For(8, func(i int) {
			if i == 5 {
				panic("task")
			}
		})
	})
	if pe == nil || pe.Value != "task" || pe.Index != 5 {
		t.Fatalf("loop panic recovered as %+v, want the task's own PanicError", pe)
	}
}
