package tile

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mosaic/internal/ilt"
)

// TestRetryRecoversTransientFault injects a fault that fails each tile's
// first attempt and checks the run succeeds with retries enabled and the
// result is identical to a fault-free run.
func TestRetryRecoversTransientFault(t *testing.T) {
	l := testLayout()
	p, err := NewPlan(l, 8, 512, DefaultHaloNM(testOptics(64)))
	if err != nil {
		t.Fatal(err)
	}
	ws := testSim(t, p.WindowPx)
	cfg := testConfig()

	ref, err := p.Optimize(context.Background(), ws, cfg, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	res, err := p.Optimize(context.Background(), ws, cfg, Options{
		Workers: 2,
		Retries: 2,
		backoff: time.Millisecond,
		tileFault: func(index, attempt int) error {
			if attempt == 0 {
				return fmt.Errorf("injected transient fault on tile %d", index)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("retries did not recover the transient fault: %v", err)
	}
	for i, v := range ref.Mask.Data {
		if res.Mask.Data[i] != v {
			t.Fatal("retried mask differs from fault-free run")
		}
	}

	// A persistent fault must still fail once attempts are exhausted.
	_, err = p.Optimize(context.Background(), ws, cfg, Options{
		Workers: 1,
		Retries: 1,
		backoff: time.Millisecond,
		tileFault: func(index, attempt int) error {
			return errors.New("injected persistent fault")
		},
	})
	if err == nil {
		t.Fatal("persistent fault did not fail the run")
	}
}

// TestNegativeRetriesMeansNone is the regression test for the nil result a
// negative retry budget used to produce: the attempt loop ran zero times,
// returned (nil, nil), and the scheduler dereferenced it. mosaic.Admit
// refuses such a budget before a plan exists; a caller that skips the gate
// gets one attempt per tile and that attempt's error.
func TestNegativeRetriesMeansNone(t *testing.T) {
	p, err := NewPlan(testLayout(), 8, 512, DefaultHaloNM(testOptics(64)))
	if err != nil {
		t.Fatal(err)
	}
	attempts := 0
	fault := errors.New("injected")
	res, err := p.Optimize(context.Background(), testSim(t, p.WindowPx), testConfig(), Options{
		Retries: -1, Workers: 1,
		tileFault: func(index, attempt int) error { attempts++; return fault },
	})
	if !errors.Is(err, fault) || res != nil || attempts != 1 {
		t.Fatalf("Retries -1 returned (%v, %v) after %d attempts, want the first attempt's error", res, err, attempts)
	}
}

// TestFullJitterBounds checks the retry jitter stays in (0, d] and
// actually spreads — a degenerate constant wait would put simultaneous
// tile failures right back in lockstep.
func TestFullJitterBounds(t *testing.T) {
	if got := fullJitter(0); got != 0 {
		t.Fatalf("fullJitter(0) = %s, want 0", got)
	}
	if got := fullJitter(-time.Second); got != 0 {
		t.Fatalf("fullJitter(-1s) = %s, want 0", got)
	}
	const d = 80 * time.Millisecond
	lo, hi := d, time.Duration(0)
	for i := 0; i < 2000; i++ {
		w := fullJitter(d)
		if w <= 0 || w > d {
			t.Fatalf("fullJitter(%s) = %s, want a wait in (0, %s]", d, w, d)
		}
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if hi-lo < d/4 {
		t.Fatalf("2000 draws spanned only [%s, %s]; the jitter is not spreading", lo, hi)
	}
}

type panicRunner struct{}

func (panicRunner) RunTile(context.Context, *Request) (*ilt.Result, error) { panic("runner bug") }

// TestOptimizeTurnsRunnerPanicIntoTileError: the scheduler's goroutines
// have no caller to unwind into, so a panicking runner used to end the
// process; it is that tile's error.
func TestOptimizeTurnsRunnerPanicIntoTileError(t *testing.T) {
	p, err := NewPlan(testLayout(), 8, 512, DefaultHaloNM(testOptics(64)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Optimize(context.Background(), testSim(t, p.WindowPx), testConfig(), Options{Runner: panicRunner{}})
	if err == nil || res != nil || !strings.Contains(err.Error(), "panic: runner bug") {
		t.Fatalf("panicking runner returned (%v, %v), want an error naming the panic", res, err)
	}
}
