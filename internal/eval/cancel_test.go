package eval

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSweepCancellationIsPrompt cancels a routed sweep that would
// otherwise run many trials and requires it to return quickly with the
// cancellation cause and a partial (possibly empty) result.
func TestSweepCancellationIsPrompt(t *testing.T) {
	cfg := Quick()
	cfg.Trials = 50 // far more work than the deadline allows
	cfg.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	routed, err := Routing(ctx, cfg)
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("sweep error %v, want context.Canceled", err)
	}
	if routed == nil || routed.Fig5d() == nil {
		t.Error("canceled sweep must still return the partial result")
	}
	// "Prompt" here is loose — a single in-flight trial may finish — but a
	// pre-canceled context must not run the whole 50-trial sweep.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("canceled sweep took %v", elapsed)
	}
}
