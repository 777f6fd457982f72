package meshroute

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/info"
)

// taxonomyNet is a 6x6 mesh with a faulty node at (2,2) and the corner
// (5,5) walled off behind faults at (4,5)/(5,4) — one configuration
// exhibiting every routing failure class.
func taxonomyNet(t *testing.T) *Network {
	t.Helper()
	net := NewSquare(6)
	err := net.Apply(func(tx *Tx) error {
		for _, c := range []Coord{C(2, 2), C(4, 5), C(5, 4)} {
			if err := tx.AddFault(c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestErrorTaxonomy is the satellite table test: every public failure
// path must match its typed error via errors.Is / errors.As.
func TestErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name string
		run  func(net *Network) error
		want error
	}{
		{
			name: "outside mesh source",
			run: func(net *Network) error {
				_, err := net.Route(ctx, RouteRequest{Src: C(-1, 0), Dst: C(5, 5)})
				return err
			},
			want: ErrOutsideMesh,
		},
		{
			name: "outside mesh destination",
			run: func(net *Network) error {
				_, err := net.Route(ctx, RouteRequest{Src: C(0, 0), Dst: C(9, 9)})
				return err
			},
			want: ErrOutsideMesh,
		},
		{
			name: "faulty endpoint",
			run: func(net *Network) error {
				_, err := net.Route(ctx, RouteRequest{Src: C(2, 2), Dst: C(5, 5)})
				return err
			},
			want: ErrFaultyEndpoint,
		},
		{
			name: "unreachable destination",
			run: func(net *Network) error {
				_, err := net.Route(ctx, RouteRequest{Src: C(0, 0), Dst: C(5, 5)})
				return err
			},
			want: ErrUnreachable,
		},
		{
			name: "canceled before route",
			run: func(net *Network) error {
				_, err := net.Route(canceledCtx, RouteRequest{Src: C(0, 0), Dst: C(3, 3)})
				return err
			},
			want: ErrCanceled,
		},
		{
			name: "canceled before batch",
			run: func(net *Network) error {
				_, err := net.RouteBatch(canceledCtx, BatchRequest{Pairs: []Pair{{S: C(0, 0), D: C(3, 3)}}})
				return err
			},
			want: ErrCanceled,
		},
		{
			name: "invalid inject count",
			run:  func(net *Network) error { return net.InjectRandom(-1, 1) },
			want: ErrInvalidFaultCount,
		},
		{
			name: "non-adjacent link fault",
			run:  func(net *Network) error { return net.AddLinkFault(C(0, 0), C(3, 3)) },
			want: ErrNotAdjacent,
		},
		{
			name: "link fault outside mesh",
			run:  func(net *Network) error { return net.AddLinkFault(C(8, 8), C(8, 9)) },
			want: ErrOutsideMesh,
		},
		{
			name: "transaction fault outside mesh",
			run: func(net *Network) error {
				return net.Apply(func(tx *Tx) error { return tx.AddFault(C(40, 40)) })
			},
			want: ErrOutsideMesh,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(taxonomyNet(t))
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.want)
			}
		})
	}
}

// TestErrorAborted covers the structured abort error: a hop budget too
// small to deliver must surface as *ErrAborted with the walk metadata.
func TestErrorAborted(t *testing.T) {
	net := taxonomyNet(t)
	_, err := net.Route(context.Background(), RouteRequest{Src: C(0, 0), Dst: C(5, 0)},
		WithMaxHops(2), WithoutOracle())
	if err == nil {
		t.Fatal("budget-starved walk delivered")
	}
	var abort *ErrAborted
	if !errors.As(err, &abort) {
		t.Fatalf("errors.As(%v, *ErrAborted) = false", err)
	}
	if abort.Algorithm != RB2 || abort.Src != C(0, 0) || abort.Dst != C(5, 0) {
		t.Errorf("abort metadata wrong: %+v", abort)
	}
	if abort.Reason == "" || abort.Hops <= 0 {
		t.Errorf("abort missing walk detail: %+v", abort)
	}
}

// TestErrorCanceledWrapsContextCause locks the double contract of
// ErrCanceled: the returned error matches both the package sentinel and
// the stdlib context error.
// TestErrorAbortedExcludedModel routes RB1 on a network whose engine
// built only B2: the walk cannot start and surfaces as *ErrAborted.
func TestErrorAbortedExcludedModel(t *testing.T) {
	net := NewWithEngineOptions(6, 6, engine.Options{Models: []info.Model{info.B2}})
	_, err := net.Route(context.Background(), RouteRequest{Src: C(0, 0), Dst: C(5, 5)}, WithAlgorithm(RB1))
	var abort *ErrAborted
	if !errors.As(err, &abort) {
		t.Fatalf("RB1 on a B2-only network: err = %v, want *ErrAborted", err)
	}
	if abort.Algorithm != RB1 || abort.Hops != 0 {
		t.Errorf("abort metadata wrong: %+v", abort)
	}
	if _, err := net.Route(context.Background(), RouteRequest{Src: C(0, 0), Dst: C(5, 5)}); err != nil {
		t.Errorf("RB2 on a B2-only network: %v", err)
	}
}

func TestErrorCanceledWrapsContextCause(t *testing.T) {
	net := taxonomyNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := net.Route(ctx, RouteRequest{Src: C(0, 0), Dst: C(3, 3)})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation error %v must match ErrCanceled and context.Canceled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	_, err = net.Route(dctx, RouteRequest{Src: C(0, 0), Dst: C(3, 3)})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline error %v must match ErrCanceled and context.DeadlineExceeded", err)
	}
}

// TestErrorCanceledMidBatch completes the satellite table: a context
// canceled while a batch is in flight must end the stream with a typed
// cancellation on Batch.Err, and any unrouted Drain slots carry it too.
func TestErrorCanceledMidBatch(t *testing.T) {
	net := NewSquare(24)
	if err := net.InjectRandom(40, 11); err != nil {
		t.Fatal(err)
	}
	pairs := make([]Pair, 600)
	for i := range pairs {
		pairs[i] = Pair{S: C(i%20, (i/20)%20), D: C(23-i%20, 23-(i/20)%20)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	batch, err := net.RouteBatch(ctx, BatchRequest{Pairs: pairs}, WithWorkers(2), WithoutOracle())
	if err != nil {
		t.Fatal(err)
	}
	// Consume a few items, then cancel mid-flight.
	for i := 0; i < 3; i++ {
		if _, ok := batch.Next(); !ok {
			t.Fatal("stream ended before cancellation")
		}
	}
	cancel()
	items, err := batch.Drain()
	if err == nil {
		t.Fatal("canceled batch drained without error")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("batch error %v must match ErrCanceled and context.Canceled", err)
	}
	unrouted := 0
	for _, item := range items {
		if item.Err != nil && errors.Is(item.Err, ErrCanceled) {
			unrouted++
		}
	}
	if unrouted == 0 {
		t.Error("cancellation left no unrouted pairs — batch was not aborted mid-flight")
	}
}

// TestBatchCloseReleasesAbandonedStream locks the Close contract: an
// abandoned batch must wind down its workers (the stream closes) without
// the caller canceling the request context.
func TestBatchCloseReleasesAbandonedStream(t *testing.T) {
	net := NewSquare(24)
	if err := net.InjectRandom(40, 11); err != nil {
		t.Fatal(err)
	}
	pairs := make([]Pair, 2000)
	for i := range pairs {
		pairs[i] = Pair{S: C(i%20, (i/20)%20), D: C(23-i%20, 23-(i/20)%20)}
	}
	batch, err := net.RouteBatch(context.Background(), BatchRequest{Pairs: pairs}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := batch.Next(); !ok {
		t.Fatal("stream empty")
	}
	batch.Close()
	batch.Close() // idempotent
	done := make(chan struct{})
	go func() {
		for _, ok := batch.Next(); ok; _, ok = batch.Next() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close within 5s of Close")
	}
	if err := batch.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("closed batch Err = %v, want ErrCanceled", err)
	}
}

// TestErrorCode locks the error -> wire-code mapping the serving layer
// builds its JSON bodies from: every sentinel maps to its stable code
// through arbitrary wrapping, cancellation wins over a co-present abort,
// and out-of-taxonomy errors map to "".
func TestErrorCode(t *testing.T) {
	ctx := context.Background()
	net := taxonomyNet(t)
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"nil", nil, ""},
		{"outside mesh", ErrOutsideMesh, CodeOutsideMesh},
		{"faulty endpoint wrapped", func() error {
			_, err := net.Route(ctx, RouteRequest{Src: C(2, 2), Dst: C(0, 0)})
			return err
		}(), CodeFaultyEndpoint},
		{"unreachable wrapped", func() error {
			_, err := net.Route(ctx, RouteRequest{Src: C(0, 0), Dst: C(5, 5)})
			return err
		}(), CodeUnreachable},
		{"aborted", func() error {
			_, err := net.Route(ctx, RouteRequest{Src: C(0, 0), Dst: C(5, 5)}, WithoutOracle())
			return err
		}(), CodeAborted},
		{"canceled", func() error {
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			_, err := net.Route(cctx, RouteRequest{Src: C(0, 0), Dst: C(1, 1)})
			return err
		}(), CodeCanceled},
		{"invalid fault count", net.InjectRandom(-1, 1), CodeInvalidFaultCount},
		{"not adjacent", net.AddLinkFault(C(0, 0), C(3, 3)), CodeNotAdjacent},
		{"resource exhausted", fmt.Errorf("serve: %w", ErrResourceExhausted), CodeResourceExhausted},
		{"watch closed", func() error {
			w := net.Watch(ctx)
			w.Close()
			_, err := w.Next(ctx)
			return err
		}(), CodeWatchClosed},
		{"outside taxonomy", errors.New("disk on fire"), ""},
	} {
		if tc.want != "" && tc.err == nil {
			t.Errorf("%s: expected an error to classify", tc.name)
			continue
		}
		if got := ErrorCode(tc.err); got != tc.want {
			t.Errorf("%s: ErrorCode(%v) = %q, want %q", tc.name, tc.err, got, tc.want)
		}
	}
}
