// Command meshd serves the meshroute engine over HTTP: a multi-mesh
// registry with shortest-path route serving, streaming NDJSON batches,
// atomic fault transactions, and serving metrics. See internal/server for
// the wire protocol and cmd/meshd/README.md for a curl walkthrough.
//
// Usage:
//
//	meshd [-addr 127.0.0.1:8080] [-addr-file path] [-drain 10s] \
//	      [-max-nodes N] [-max-meshes N] [-max-batch-pairs N] \
//	      [-data-dir dir] [-fsync always|none|100ms] [-checkpoint-every N] \
//	      [-tenant-rate R] [-tenant-burst N] [-max-inflight N] \
//	      [-admit-queue N] [-admit-wait D] [-fail spec]... \
//	      [-follow http://leader:8080] [-resync 2s] \
//	      [-log json|text|off] [-slow-ms 0] [-debug-addr 127.0.0.1:6060]
//
// With -data-dir, mesh state is durable: every committed fault
// transaction is journaled (internal/journal) under <dir>/<mesh>, and on
// boot the registry is recovered — every mesh comes back with its exact
// pre-crash fault set and snapshot version, even after kill -9. -fsync
// picks the durability policy (fsync per transaction, a background
// flush interval, or none) and -checkpoint-every the WAL compaction
// cadence.
//
// -tenant-rate and -max-inflight turn on admission control
// (internal/admission): per-tenant token buckets keyed by the X-Tenant
// header plus a global concurrency gate with a bounded wait queue.
// Requests past the budget get 429 RESOURCE_EXHAUSTED with a
// Retry-After hint instead of unbounded queueing.
//
// -fail (repeatable, testing only) arms a storage failpoint
// (internal/errfs) under every mesh journal, e.g.
// "sync:path=wal.log:nth=12:err=eio" fails the 12th WAL fsync. The
// affected mesh degrades to read-only — routes serve, commits refuse
// with STORAGE, /healthz reports degraded — which is exactly what
// `make chaos-smoke` asserts.
//
// -follow turns the daemon into a read-only replica of another meshd:
// it tails the leader's /v1/meshes/{name}/watch streams (resuming via
// ?from= across reconnects, healing gaps by snapshot refetch) and
// serves route/batch/info reads at exactly the leader's snapshot
// versions, while mutations refuse with NOT_LEADER carrying the leader
// address. -resync is the mesh-list polling interval that discovers
// created and deleted meshes. Follower state lives in memory — it is
// rebuilt from the leader on boot — so -follow rejects -data-dir.
//
// -log json emits one structured access line per request on stderr
// (log/slog JSON): request ID, method, path, mesh, tenant, status, wire
// code, duration, and the per-request span breakdown (admission_wait,
// decode, walk, oracle, apply, journal_append, journal_fsync, encode —
// all _ms). With -slow-ms, requests slower than the threshold
// additionally log a WARN "slow request" record. Every response carries
// an X-Request-Id (client-supplied IDs are adopted when well-formed),
// so one grep correlates a mutation across follower and leader logs.
//
// -debug-addr opens a second, operator-only listener serving
// /debug/pprof (net/http/pprof) — live profiling without exposing it on
// the serving port. Serving counters are on the serving port's
// /metrics.
//
// On SIGINT/SIGTERM the daemon drains gracefully: the listener stops
// accepting, /healthz flips to 503, and in-flight requests get the drain
// grace period to finish; batches and watch streams still open when it
// expires are aborted via context cause and terminate their NDJSON
// streams with a CANCELED stream_error line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/errfs"
	"repro/internal/journal"
	"repro/internal/server"
)

// failFlag collects repeatable -fail specs into errfs faults.
type failFlag []errfs.Fault

func (f *failFlag) String() string {
	specs := make([]string, len(*f))
	for i, fault := range *f {
		specs[i] = fault.String()
	}
	return strings.Join(specs, ",")
}

func (f *failFlag) Set(s string) error {
	fault, err := errfs.ParseSpec(s)
	if err != nil {
		return err
	}
	*f = append(*f, fault)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts driving -addr :0)")
	drain := flag.Duration("drain", 10*time.Second, "grace period for in-flight requests on shutdown before batches are aborted")
	maxNodes := flag.Int("max-nodes", server.DefaultMaxNodes, "per-mesh node cap (width*height)")
	maxMeshes := flag.Int("max-meshes", server.DefaultMaxMeshes, "registry size cap")
	maxBatchPairs := flag.Int("max-batch-pairs", server.DefaultMaxBatchPairs, "per-request batch pair cap")
	dataDir := flag.String("data-dir", "", "journal mesh state here and recover it on boot (empty = memory only)")
	fsync := flag.String("fsync", "always", "journal durability: always, none, or a flush interval like 100ms")
	checkpointEvery := flag.Int("checkpoint-every", journal.DefaultCheckpointEvery, "compact each mesh journal after this many records")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission rate in req/s (0 = no tenant rate gate)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant admission burst (0 = ceil of -tenant-rate)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent admitted requests across all tenants (0 = unlimited)")
	admitQueue := flag.Int("admit-queue", 64, "requests that may wait for an inflight slot (with -max-inflight)")
	admitWait := flag.Duration("admit-wait", time.Second, "longest a request waits for an inflight slot")
	follow := flag.String("follow", "", "replicate this leader meshd (base URL) and serve read-only; mutations answer NOT_LEADER with the leader address")
	resync := flag.Duration("resync", 2*time.Second, "follower mesh-list polling interval (with -follow)")
	logMode := flag.String("log", "off", "structured access logs on stderr: json, text, or off")
	slowMS := flag.Int("slow-ms", 0, "log a WARN slow-request record for requests slower than this many ms (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof on this extra listener (empty = off)")
	listMetrics := flag.Bool("list-metrics", false, "print every /metrics family name and exit (the make metrics-smoke contract)")
	var fails failFlag
	flag.Var(&fails, "fail", "arm a journal storage failpoint, op[:path=substr][:nth=N][:err=eio|enospc][:torn][:sticky] (repeatable; testing only)")
	flag.Parse()

	if *listMetrics {
		for _, name := range server.MetricNames() {
			fmt.Println(name)
		}
		return
	}

	if *follow != "" && *dataDir != "" {
		log.Fatalf("meshd: -follow and -data-dir are mutually exclusive: follower state is rebuilt from the leader, not from a local journal")
	}
	leaderURL := *follow
	if leaderURL != "" && !strings.Contains(leaderURL, "://") {
		leaderURL = "http://" + leaderURL
	}

	policy, every, err := journal.ParseFsync(*fsync)
	if err != nil {
		log.Fatalf("meshd: -fsync: %v", err)
	}

	var accessLogger *slog.Logger
	switch *logMode {
	case "json":
		accessLogger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text":
		accessLogger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "off", "":
	default:
		log.Fatalf("meshd: -log: want json, text, or off, got %q", *logMode)
	}

	jopts := journal.Options{
		Fsync:           policy,
		FsyncEvery:      every,
		CheckpointEvery: *checkpointEvery,
	}
	if len(fails) > 0 {
		inj := errfs.New(nil)
		for _, fault := range fails {
			inj.Arm(fault)
			log.Printf("meshd: armed storage failpoint %v", fault)
		}
		jopts.FS = inj
	}

	srv := server.New(server.Config{
		MaxNodes:      *maxNodes,
		MaxMeshes:     *maxMeshes,
		MaxBatchPairs: *maxBatchPairs,
		DataDir:       *dataDir,
		Journal:       jopts,
		FollowerOf:    leaderURL,
		Logger:        accessLogger,
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
		Admission: admission.Config{
			TenantRate:  *tenantRate,
			TenantBurst: *tenantBurst,
			MaxInflight: *maxInflight,
			MaxQueue:    *admitQueue,
			MaxWait:     *admitWait,
		},
	})
	if *tenantRate > 0 || *maxInflight > 0 {
		log.Printf("meshd: admission control on (tenant rate %g req/s burst %d, max inflight %d, queue %d, wait %v)",
			*tenantRate, *tenantBurst, *maxInflight, *admitQueue, *admitWait)
	}
	if *dataDir != "" {
		n, err := srv.Recover()
		if err != nil {
			log.Fatalf("meshd: recover %s: %v", *dataDir, err)
		}
		log.Printf("meshd: recovered %d mesh(es) from %s (fsync %s)", n, *dataDir, policy)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if leaderURL != "" {
		fol, err := cluster.New(cluster.Config{
			Leader:  leaderURL,
			Replica: srv,
			Resync:  *resync,
			Logf:    log.Printf,
		})
		if err != nil {
			log.Fatalf("meshd: -follow: %v", err)
		}
		srv.SetReplication(fol.Stats)
		log.Printf("meshd: following %s (resync %v); serving read-only", leaderURL, *resync)
		go func() {
			if err := fol.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("meshd: replication stopped: %v", err)
			}
		}()
	}

	if *debugAddr != "" {
		// Operator-only listener: live pprof profiles, kept off the
		// serving port so profiling endpoints are never reachable by
		// route traffic. http.DefaultServeMux carries the net/http/pprof
		// registrations from its package init.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("meshd: listen -debug-addr %s: %v", *debugAddr, err)
		}
		log.Printf("meshd: debug endpoints (pprof) on http://%s/debug/", dln.Addr())
		go func() {
			if err := http.Serve(dln, http.DefaultServeMux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("meshd: debug listener: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("meshd: listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("meshd: write -addr-file: %v", err)
		}
	}
	log.Printf("meshd: serving on http://%s (drain grace %v)", bound, *drain)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatalf("meshd: serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("meshd: draining (grace %v)", *drain)
	// Flip /healthz to 503 immediately so load balancers stop routing
	// here, give in-flight requests the grace period to finish, then
	// abort the stragglers (streaming batches) via the server's base
	// context. The shutdown context extends slightly past the grace so
	// aborted batch handlers can still write their terminal stream_error
	// line.
	srv.BeginDrain()
	timer := time.AfterFunc(*drain, func() {
		srv.Drain(fmt.Errorf("%w: %v grace elapsed", server.ErrDraining, *drain))
	})
	defer timer.Stop()
	sctx, cancel := context.WithTimeout(context.Background(), *drain+2*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("meshd: forced close after drain: %v", err)
		_ = hs.Close()
	}
	log.Printf("meshd: stopped")
}
