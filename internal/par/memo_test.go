package par

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoSingleFlight: many goroutines asking for one key share one build,
// exactly one of them reports having run it, and all get its value.
func TestMemoSingleFlight(t *testing.T) {
	var m Memo[string, int]
	var builds, built atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, b, err := m.Do("k", func() (int, error) {
				builds.Add(1)
				<-release // hold the build open while the others arrive
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Do = %d, %v; want 42, nil", v, err)
			}
			if b {
				built.Add(1)
			}
		}()
	}
	close(release)
	wg.Wait()
	if builds.Load() != 1 || built.Load() != 1 {
		t.Fatalf("%d builds, %d callers reported built; want 1 and 1", builds.Load(), built.Load())
	}
	if _, b, _ := m.Do("k", func() (int, error) { t.Error("kept value rebuilt"); return 0, nil }); b {
		t.Fatal("a kept value reported built")
	}
}

// TestMemoRetriesFailedAndPanickedBuilds: neither an error nor a panic is
// kept — the next call builds again, and a success after them is kept.
func TestMemoRetriesFailedAndPanickedBuilds(t *testing.T) {
	var m Memo[int, string]
	boom := errors.New("boom")
	if _, built, err := m.Do(1, func() (string, error) { return "", boom }); !built || !errors.Is(err, boom) {
		t.Fatalf("failing build: built=%v err=%v", built, err)
	}
	if pe := Catch(func() { m.Do(1, func() (string, error) { panic("bang") }) }); pe == nil || pe.Value != "bang" {
		t.Fatalf("panicking build: recovered %v, want bang", pe)
	}
	v, built, err := m.Do(1, func() (string, error) { return "ok", nil })
	if v != "ok" || !built || err != nil {
		t.Fatalf("build after a failure and a panic = %q, %v, %v; want it to run and succeed", v, built, err)
	}
	if v, built, _ := m.Do(1, func() (string, error) { return "again", nil }); v != "ok" || built {
		t.Fatalf("successful build not kept: %q built=%v", v, built)
	}
}

// TestMemoWaiterSurvivesPanickedBuild: a caller that was waiting on a build
// that panicked runs the build itself instead of returning a zero value.
func TestMemoWaiterSurvivesPanickedBuild(t *testing.T) {
	var m Memo[string, int]
	building, release := make(chan struct{}), make(chan struct{})
	done := make(chan *PanicError)
	go func() {
		done <- Catch(func() {
			m.Do("k", func() (int, error) {
				close(building)
				<-release
				panic("bang")
			})
		})
	}()
	<-building
	got := make(chan int)
	go func() {
		v, _, _ := m.Do("k", func() (int, error) { return 7, nil })
		got <- v
	}()
	close(release)
	if pe := <-done; pe == nil {
		t.Fatal("the panicking build did not panic its caller")
	}
	if v := <-got; v != 7 {
		t.Fatalf("waiter got %d, want 7 from its own build", v)
	}
}

// TestMemoDistinctKeysOverlap: builds of different keys run concurrently —
// each waits for the other to have started, which deadlocks under a
// memo-wide lock.
func TestMemoDistinctKeysOverlap(t *testing.T) {
	var m Memo[int, int]
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Do(k, func() (int, error) {
				close(started[k])
				<-started[1-k]
				return k, nil
			})
		}()
	}
	wg.Wait()
}

// TestMemoNaNKey: a key that does not equal itself is built every time and
// leaves nothing behind.
func TestMemoNaNKey(t *testing.T) {
	var m Memo[float64, int]
	for i := 0; i < 3; i++ {
		if _, built, _ := m.Do(math.NaN(), func() (int, error) { return i, nil }); !built {
			t.Fatal("NaN key served from the memo")
		}
	}
	if len(m.m) != 0 {
		t.Fatalf("NaN keys left %d unreachable entries", len(m.m))
	}
}
