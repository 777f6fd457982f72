// Command meshload is an open-loop load generator for meshd. It creates
// (or recreates) a mesh, injects an initial fault configuration, fires
// route requests from a worker pool — at a fixed arrival rate or
// closed-loop — and optionally churns the fault configuration mid-run,
// the serving regime the engine's snapshot architecture is built for.
// Each churn tick is one atomic transaction that repairs the previous
// rotation's faults and adds a fresh random set, so the steady-state
// fault count stays at -churn-faults for the whole run (and each commit
// is a bounded delta, exercising the engine's incremental rebuild). It reports throughput, latency percentiles,
// and a per-wire-code response tally, and exits non-zero when any
// response leaks outside the documented taxonomy (5xx, transport
// failures, unknown codes) — which makes it the CI smoke gate.
//
// With -journal, the churn source is a recorded transaction log instead
// of random injection: the target mesh is created with the recording's
// dimensions and checkpoint fault set, and every journaled transaction
// is re-applied (as an atomic add/repair POST) in its original order —
// so state recovered from a meshd -data-dir can be load-tested against
// the exact fault history of the original run.
//
// Overload behavior: 429 RESOURCE_EXHAUSTED responses are retried up to
// -retries times with exponential backoff and jitter, never backing off
// less than the server's Retry-After hint. -tenants spreads requests
// over N synthetic tenant identities (X-Tenant: t0..tN-1) so per-tenant
// admission control can be exercised; the summary tallies retries, total
// backoff time, and 429s per tenant. A non-chaos run that still ends
// with RESOURCE_EXHAUSTED outcomes after retrying exits non-zero — an
// adequately provisioned server must absorb the offered load.
//
// -chaos is the fault-injection assertion mode (pair with meshd -fail):
// STORAGE commit refusals and residual 429s are expected there, and the
// run instead asserts the taxonomy NEVER leaks — every response decodes
// to a documented wire code — while routes keep being delivered.
//
// -cluster drives a replicated meshd cluster instead of a single node:
// route reads are sprayed uniformly across every listed node (leader and
// read-only followers alike), while mutations start at the first listed
// node and transparently follow NOT_LEADER redirects — the refusal body
// carries the leader address — so listing a follower first costs one
// extra round-trip instead of aborting the run. Before firing traffic,
// the run waits until every node serves the mesh at (or past) the seeded
// snapshot version, so follower reads never race the initial
// replication.
//
// Usage:
//
//	meshload -addr 127.0.0.1:8080 [-cluster host:port,host:port,...] \
//	         [-mesh load] [-n 32] [-faults 60] \
//	         [-seed 1] [-requests 1000] [-duration 0] [-rate 0] \
//	         [-workers 16] [-oracle] [-algo rb2] \
//	         [-churn 0] [-churn-faults -1] [-journal dir] [-keep] \
//	         [-tenants 0] [-retries 3] [-backoff 50ms] [-chaos]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// wire mirrors of the internal/server request/response bodies (meshload
// speaks the public wire protocol only, like any external client).
type coord struct {
	X int `json:"x"`
	Y int `json:"y"`
}

type routeRequest struct {
	Src       coord  `json:"src"`
	Dst       coord  `json:"dst"`
	Algorithm string `json:"algorithm,omitempty"`
	NoOracle  bool   `json:"no_oracle,omitempty"`
}

type wireError struct {
	Code              string  `json:"code"`
	Message           string  `json:"message"`
	RetryAfterSeconds float64 `json:"retry_after_seconds"`
	Leader            string  `json:"leader"`
}

type errorBody struct {
	Error wireError `json:"error"`
}

// knownCodes is the documented wire taxonomy; anything else in a
// response is a leak.
var knownCodes = map[string]bool{
	"OUTSIDE_MESH": true, "FAULTY_ENDPOINT": true, "UNREACHABLE": true,
	"ABORTED": true, "CANCELED": true, "INVALID_FAULT_COUNT": true,
	"NOT_ADJACENT": true, "WATCH_CLOSED": true, "RESOURCE_EXHAUSTED": true,
	"BAD_REQUEST": true, "MESH_NOT_FOUND": true, "MESH_EXISTS": true,
	"REGISTRY_FULL": true, "INTERNAL": true, "STORAGE": true,
	"NOT_LEADER": true,
}

// tally accumulates response outcomes across workers.
type tally struct {
	mu        sync.Mutex
	byCode    map[string]int
	latencies []time.Duration
	ok        int
	leaked    int      // transport errors, undecodable bodies, off-taxonomy codes
	leakIDs   []string // X-Request-Ids of leaked responses (capped) — grep these in the server's access logs
	retries   int      // 429s retried after backoff
	backoff   time.Duration
	tenant429 map[string]int
}

func (t *tally) record(code, reqID string, latency time.Duration, ok, leak bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.latencies = append(t.latencies, latency)
	if ok {
		t.ok++
	} else {
		t.byCode[code]++
	}
	if leak {
		t.leaked++
		if len(t.leakIDs) < 16 {
			t.leakIDs = append(t.leakIDs, reqID+" ("+code+")")
		}
	}
}

// recordRetry tallies one backed-off 429 retry.
func (t *tally) recordRetry(tenant string, wait time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retries++
	t.backoff += wait
	t.tenant429[tenant]++
}

// record429 tallies a 429 that was NOT retried (budget exhausted or
// retries disabled) — it lands in byCode via record; this only feeds the
// per-tenant breakdown.
func (t *tally) record429(tenant string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tenant429[tenant]++
}

// classifyLeak decides whether a decoded non-2xx outcome is outside the
// documented taxonomy. INTERNAL is always a leak (a served request must
// never produce it); STORAGE is a leak unless the run injects storage
// faults on purpose (-chaos).
func classifyLeak(code string, chaos bool) bool {
	switch {
	case !knownCodes[code]:
		return true
	case code == "INTERNAL":
		return true
	case code == "STORAGE":
		return !chaos
	}
	return false
}

// backoffFor computes the wait before retry #attempt (0-based) of a 429:
// exponential from base with 0.5-1.5x jitter, floored at the server's
// Retry-After hint.
func backoffFor(base time.Duration, attempt int, hint time.Duration, rng *rand.Rand) time.Duration {
	exp := base << min(attempt, 6)
	wait := time.Duration(float64(exp) * (0.5 + rng.Float64()))
	return max(wait, hint)
}

// retryHint extracts the server's backoff hint: the JSON field has
// sub-second precision, the Retry-After header is the whole-second
// fallback.
func retryHint(eb errorBody, resp *http.Response) time.Duration {
	if eb.Error.RetryAfterSeconds > 0 {
		return time.Duration(eb.Error.RetryAfterSeconds * float64(time.Second))
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "meshd address (host:port or http URL)")
	clusterSpec := flag.String("cluster", "", "comma-separated meshd cluster nodes: reads spray every node, mutations start at the first and follow NOT_LEADER redirects (overrides -addr)")
	meshName := flag.String("mesh", "load", "mesh name to create and drive")
	n := flag.Int("n", 32, "mesh side length")
	faults := flag.Int("faults", 60, "initial random faults")
	seed := flag.Int64("seed", 1, "fault and endpoint seed")
	requests := flag.Int("requests", 1000, "total requests (0 = until -duration)")
	duration := flag.Duration("duration", 0, "run length (0 = until -requests)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
	workers := flag.Int("workers", 16, "concurrent request workers")
	oracle := flag.Bool("oracle", false, "request BFS oracle reports (off = serving hot path)")
	algo := flag.String("algo", "rb2", "routing algorithm: ecube, rb1, rb2, rb3")
	churn := flag.Duration("churn", 0, "rotate the fault configuration every interval (0 = off; with -journal, 0 = replay back-to-back)")
	churnFaults := flag.Int("churn-faults", -1, "steady-state fault count under churn (-1 = same as -faults)")
	journalDir := flag.String("journal", "", "replay this recorded journal dir (a meshd -data-dir mesh subdirectory) as the churn source")
	keep := flag.Bool("keep", false, "keep the mesh registered after the run")
	tenants := flag.Int("tenants", 0, "spread requests over N synthetic tenants via X-Tenant (0 = no header)")
	retries := flag.Int("retries", 3, "retry a 429 this many times with backoff before recording it")
	backoffBase := flag.Duration("backoff", 50*time.Millisecond, "exponential backoff base for 429 retries (jittered, floored at Retry-After)")
	chaos := flag.Bool("chaos", false, "fault-injection mode: tolerate STORAGE/429 outcomes but assert the taxonomy never leaks")
	flag.Parse()

	if *requests <= 0 && *duration <= 0 {
		*requests = 1000
	}
	if *churnFaults < 0 {
		*churnFaults = *faults
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *workers * 2,
		MaxIdleConnsPerHost: *workers * 2,
	}}

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "meshload: "+format+"\n", args...)
		os.Exit(1)
	}

	// Resolve the targets: single-node runs read and write -addr; cluster
	// runs spray reads across every node and start mutations at the first
	// (a NOT_LEADER redirect finds the leader at the first mutation).
	readBases := []string{normalizeBase(*addr)}
	if *clusterSpec != "" {
		readBases = nil
		for _, node := range strings.Split(*clusterSpec, ",") {
			if node = strings.TrimSpace(node); node != "" {
				readBases = append(readBases, normalizeBase(node))
			}
		}
		if len(readBases) == 0 {
			fail("-cluster %q lists no nodes", *clusterSpec)
		}
		fmt.Printf("meshload: cluster of %d nodes; mutations start at %s\n", len(readBases), readBases[0])
	}
	mt := &mutTarget{base: readBases[0]}

	// With -journal, the recording dictates geometry, the initial fault
	// set, and the churn transactions.
	width, height := *n, *n
	var replay []journal.Record
	var initial []map[string]any
	if *journalDir != "" {
		base, recs, err := journal.ReadBase(*journalDir)
		if err != nil {
			fail("read journal %s: %v", *journalDir, err)
		}
		width, height = base.Width, base.Height
		replay = recs
		for _, c := range base.Faults {
			initial = append(initial, map[string]any{"op": "add", "at": map[string]any{"x": c.X, "y": c.Y}})
		}
		fmt.Printf("meshload: replaying %s: %dx%d mesh, %d checkpoint faults, %d recorded transactions\n",
			*journalDir, width, height, len(base.Faults), len(recs))
	}

	// (Re)create the target mesh and seed its fault configuration. All
	// mutations go through doMutation, which follows NOT_LEADER
	// redirects and retries 429s.
	seedRng := rand.New(rand.NewSource(*seed))
	if status, _, err := doMutation(client, mt, http.MethodDelete, "/v1/meshes/"+*meshName, nil, *retries, *backoffBase, seedRng, nil); err != nil {
		fail("cannot reach %s: %v", mt.get(), err)
	} else if status != http.StatusNoContent && status != http.StatusNotFound {
		fail("delete mesh: HTTP %d", status)
	}
	status, body, err := doMutation(client, mt, http.MethodPost, "/v1/meshes",
		map[string]any{"name": *meshName, "width": width, "height": height}, *retries, *backoffBase, seedRng, nil)
	if err != nil {
		fail("create mesh: %v", err)
	}
	if status != http.StatusCreated {
		fail("create mesh: HTTP %d: %s", status, body)
	}
	if *journalDir == "" {
		initial = []map[string]any{{"op": "inject_random", "count": *faults, "seed": *seed}}
	}
	seededVersion := uint64(1) // creation publishes the initial snapshot
	if len(initial) > 0 {
		status, body, err = doMutation(client, mt, http.MethodPost, "/v1/meshes/"+*meshName+"/faults",
			map[string]any{"ops": initial}, *retries, *backoffBase, seedRng, nil)
		if err != nil {
			fail("seed faults: %v", err)
		}
		if status != http.StatusOK {
			fail("seed faults: HTTP %d: %s", status, body)
		}
		var seeded struct {
			SnapshotVersion uint64 `json:"snapshot_version"`
		}
		if json.Unmarshal([]byte(body), &seeded) == nil && seeded.SnapshotVersion > 0 {
			seededVersion = seeded.SnapshotVersion
		}
	}

	// In a cluster, wait until every node serves the mesh at (or past)
	// the seeded version before spraying reads at it: followers that are
	// still tailing the create would answer MESH_NOT_FOUND.
	if len(readBases) > 1 {
		if err := waitReplicated(client, readBases, *meshName, seededVersion, 30*time.Second); err != nil {
			fail("%v", err)
		}
		fmt.Printf("meshload: all %d nodes serve %q at v%d or later\n", len(readBases), *meshName, seededVersion)
	}
	routePath := "/v1/meshes/" + *meshName + "/route"
	t := &tally{byCode: make(map[string]int), tenant429: make(map[string]int)}
	var sent atomic.Int64
	var replayAttempted atomic.Int64

	// Open loop: arrivals tick at -rate into a deep buffer so a slow
	// server grows the queue instead of slowing the arrival process.
	// Closed loop (-rate 0): workers fire as fast as responses return.
	tickets := make(chan struct{}, 1<<16)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	go func() {
		defer close(tickets)
		emitted := 0
		var tick <-chan time.Time
		if *rate > 0 {
			ticker := time.NewTicker(time.Duration(float64(time.Second) / *rate))
			defer ticker.Stop()
			tick = ticker.C
		}
		for {
			if *requests > 0 && emitted >= *requests {
				return
			}
			if tick != nil {
				select {
				case <-tick:
				case <-stop:
					return
				}
			}
			select {
			case tickets <- struct{}{}:
				emitted++
			case <-stop:
				return
			}
		}
	}()
	if *duration > 0 {
		time.AfterFunc(*duration, halt)
	}

	// Fault churn: transactions land mid-run, forcing snapshot
	// publications underneath the in-flight request stream.
	churnDone := make(chan int, 1)
	if *journalDir != "" {
		// -journal owns the churn source even when the recording has no
		// post-checkpoint tail: falling through to random injection would
		// pollute the faithfully restored state.
		// Journal replay: re-apply the recorded history in order, paced
		// by -churn (0 = back-to-back). Each record becomes one atomic
		// add/repair transaction, exactly as the original run committed it.
		go func() {
			txns := 0
			defer func() { churnDone <- txns }()
			rng := rand.New(rand.NewSource(*seed * 31))
			var tick <-chan time.Time
			if *churn > 0 {
				ticker := time.NewTicker(*churn)
				defer ticker.Stop()
				tick = ticker.C
			}
			for _, rec := range replay {
				replayAttempted.Add(1)
				if tick != nil {
					select {
					case <-stop:
						return
					case <-tick:
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
				var ops []map[string]any
				for _, c := range rec.Adds {
					ops = append(ops, map[string]any{"op": "add", "at": map[string]any{"x": c.X, "y": c.Y}})
				}
				for _, c := range rec.Repairs {
					ops = append(ops, map[string]any{"op": "repair", "at": map[string]any{"x": c.X, "y": c.Y}})
				}
				if len(ops) == 0 {
					replayAttempted.Add(-1)
					continue // an empty-delta commit has no wire form
				}
				status, body, err := doMutation(client, mt, http.MethodPost, "/v1/meshes/"+*meshName+"/faults",
					map[string]any{"ops": ops}, *retries, *backoffBase, rng, stop)
				if err != nil {
					fmt.Fprintf(os.Stderr, "meshload: replay transaction v%d: %v\n", rec.Version, err)
					continue
				}
				if status != http.StatusOK {
					if *chaos && strings.Contains(body, `"STORAGE"`) {
						fmt.Fprintf(os.Stderr, "meshload: replay stopped: journal degraded (STORAGE) at v%d\n", rec.Version)
						return
					}
					fmt.Fprintf(os.Stderr, "meshload: replay transaction v%d: HTTP %d: %s\n", rec.Version, status, body)
					continue
				}
				txns++
			}
		}()
	} else if *churn > 0 {
		if *churnFaults >= width*height {
			fail("-churn-faults %d would disable the whole %dx%d mesh", *churnFaults, width, height)
		}
		// Each tick commits ONE atomic transaction that repairs the
		// previous rotation's faults and adds a fresh random set, so the
		// steady-state fault count stays pinned at -churn-faults instead
		// of degrading the mesh over a long run. The seeded configuration
		// is fetched once up front to become the first rotation — churn
		// never stacks on top of the baseline.
		prev, err := getFaults(client, mt.get()+"/v1/meshes/"+*meshName+"/faults")
		if err != nil {
			fail("fetch seeded faults: %v", err)
		}
		go func() {
			txns := 0
			ticker := time.NewTicker(*churn)
			defer ticker.Stop()
			defer func() { churnDone <- txns }()
			rng := rand.New(rand.NewSource(*seed * 1000003))
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
				fresh := make([]coord, 0, *churnFaults)
				seen := make(map[coord]bool, *churnFaults)
				for len(fresh) < *churnFaults {
					c := coord{X: rng.Intn(width), Y: rng.Intn(height)}
					if !seen[c] {
						seen[c] = true
						fresh = append(fresh, c)
					}
				}
				// Repairs first: a fresh coord colliding with an outgoing
				// one is repaired then re-added, netting to faulty.
				ops := make([]map[string]any, 0, len(prev)+len(fresh))
				for _, c := range prev {
					ops = append(ops, map[string]any{"op": "repair", "at": map[string]any{"x": c.X, "y": c.Y}})
				}
				for _, c := range fresh {
					ops = append(ops, map[string]any{"op": "add", "at": map[string]any{"x": c.X, "y": c.Y}})
				}
				status, body, err := doMutation(client, mt, http.MethodPost, "/v1/meshes/"+*meshName+"/faults",
					map[string]any{"ops": ops}, *retries, *backoffBase, rng, stop)
				if err != nil {
					fmt.Fprintf(os.Stderr, "meshload: churn transaction: %v\n", err)
					continue
				}
				if status != http.StatusOK {
					// A degraded journal refuses every further commit — stop
					// churning instead of spamming a warning per tick. In
					// -chaos runs that is the expected mid-run event.
					if strings.Contains(body, `"STORAGE"`) {
						fmt.Fprintf(os.Stderr, "meshload: churn stopped: journal degraded (STORAGE) after %d transactions\n", txns)
						return
					}
					// The transaction is atomic: nothing committed, so the
					// outgoing rotation is still published. Keep prev.
					fmt.Fprintf(os.Stderr, "meshload: churn transaction: HTTP %d: %s\n", status, body)
					continue
				}
				prev = fresh
				txns++
			}
		}()
	} else {
		churnDone <- 0
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			buf := new(bytes.Buffer)
			for range tickets {
				select {
				case <-stop:
					return
				default:
				}
				req := routeRequest{
					Src:       coord{X: rng.Intn(width), Y: rng.Intn(height)},
					Dst:       coord{X: rng.Intn(width), Y: rng.Intn(height)},
					Algorithm: *algo,
					NoOracle:  !*oracle,
				}
				tenant := "default"
				if *tenants > 0 {
					tenant = fmt.Sprintf("t%d", rng.Intn(*tenants))
				}
				buf.Reset()
				_ = json.NewEncoder(buf).Encode(req)
				payload := append([]byte(nil), buf.Bytes()...)
				// One logical request: a 429 is retried with backoff (floored
				// at the server's Retry-After hint) up to -retries times; the
				// final attempt's outcome and latency are what get recorded.
				// One X-Request-Id covers every attempt, so a leaked outcome
				// points straight at its server-side access-log records.
				// Reads spray uniformly across the cluster (a single-node
				// run has one target): followers serve the same snapshot
				// versions the leader published.
				target := readBases[rng.Intn(len(readBases))]
				reqID := telemetry.NewRequestID()
				for attempt := 0; ; attempt++ {
					hreq, _ := http.NewRequest(http.MethodPost, target+routePath, bytes.NewReader(payload))
					hreq.Header.Set("Content-Type", "application/json")
					hreq.Header.Set("X-Request-Id", reqID)
					if *tenants > 0 {
						hreq.Header.Set("X-Tenant", tenant)
					}
					t0 := time.Now()
					resp, err := client.Do(hreq)
					lat := time.Since(t0)
					sent.Add(1)
					if err != nil {
						t.record("TRANSPORT", reqID, lat, false, true)
						break
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						t.record("", reqID, lat, true, false)
						break
					}
					var eb errorBody
					if json.Unmarshal(body, &eb) != nil || eb.Error.Code == "" {
						t.record(fmt.Sprintf("UNDECODABLE_%d", resp.StatusCode), reqID, lat, false, true)
						break
					}
					code := eb.Error.Code
					if code == "RESOURCE_EXHAUSTED" && attempt < *retries {
						wait := backoffFor(*backoffBase, attempt, retryHint(eb, resp), rng)
						t.recordRetry(tenant, wait)
						select {
						case <-stop:
							return
						case <-time.After(wait):
						}
						continue
					}
					if code == "RESOURCE_EXHAUSTED" {
						t.record429(tenant)
					}
					t.record(code, reqID, lat, false, classifyLeak(code, *chaos))
					break
				}
			}
		}(w)
	}
	wg.Wait()
	halt()
	elapsed := time.Since(start)
	txns := <-churnDone
	if replayable := countReplayable(replay); replayable > 0 {
		// Distinguish "ran out of request budget" (the loop never reached
		// the tail) from "the server rejected some records" — the advice
		// differs.
		attempted := int(replayAttempted.Load())
		if attempted < replayable {
			fmt.Fprintf(os.Stderr,
				"meshload: warning: replay stopped early: %d of %d recorded transactions attempted (raise -requests/-duration or lower -churn)\n",
				attempted, replayable)
		}
		if txns < attempted {
			fmt.Fprintf(os.Stderr,
				"meshload: warning: %d of %d attempted replay transactions were rejected by the server (see errors above)\n",
				attempted-txns, attempted)
		}
	}

	if !*keep {
		_, _, _ = doMutation(client, mt, http.MethodDelete, "/v1/meshes/"+*meshName, nil,
			*retries, *backoffBase, rand.New(rand.NewSource(*seed*17)), nil)
	}

	// Summary.
	total := len(t.latencies)
	fmt.Printf("meshload: %d requests in %v (%.0f req/s, %d workers", total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), *workers)
	if *rate > 0 {
		fmt.Printf(", open loop @ %.0f req/s", *rate)
	}
	fmt.Printf(")\n")
	sort.Slice(t.latencies, func(i, j int) bool { return t.latencies[i] < t.latencies[j] })
	if total > 0 {
		pct := func(p float64) time.Duration {
			i := int(p * float64(total-1))
			return t.latencies[i]
		}
		fmt.Printf("latency: p50 %v  p90 %v  p99 %v  max %v\n",
			pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
			pct(0.99).Round(time.Microsecond), t.latencies[total-1].Round(time.Microsecond))
		printHistogram(t.latencies)
	}
	fmt.Printf("outcomes: %d delivered", t.ok)
	codes := make([]string, 0, len(t.byCode))
	for code := range t.byCode {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Printf(", %d %s", t.byCode[code], code)
	}
	fmt.Printf("; %d fault transactions mid-run\n", txns)
	if t.retries > 0 || len(t.tenant429) > 0 {
		fmt.Printf("overload: %d retried 429s, %v total backoff", t.retries, t.backoff.Round(time.Millisecond))
		names := make([]string, 0, len(t.tenant429))
		for name := range t.tenant429 {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			if i == 0 {
				fmt.Printf("; 429s by tenant:")
			}
			fmt.Printf(" %s=%d", name, t.tenant429[name])
		}
		fmt.Printf("\n")
	}
	if t.leaked > 0 {
		fmt.Fprintf(os.Stderr, "meshload: FAIL: %d responses outside the documented taxonomy (transport/undecodable/off-taxonomy codes)\n", t.leaked)
		fmt.Fprintf(os.Stderr, "meshload: leaked request IDs (grep these in the server's access logs): %s\n",
			strings.Join(t.leakIDs, ", "))
		os.Exit(1)
	}
	if n := t.byCode["RESOURCE_EXHAUSTED"]; n > 0 && !*chaos {
		fmt.Fprintf(os.Stderr, "meshload: FAIL: %d requests still RESOURCE_EXHAUSTED after %d retries (server under-provisioned for this load; use -chaos if overload is the point)\n", n, *retries)
		os.Exit(1)
	}
	if t.ok == 0 {
		fmt.Fprintln(os.Stderr, "meshload: FAIL: no request delivered")
		os.Exit(1)
	}
}

// printHistogram renders the end-to-end latency distribution in exactly
// the bucket boundaries of the server's meshd_walk_latency_seconds
// histogram (telemetry.LatencyBounds), so a meshload run and a /metrics
// scrape line up bucket-for-bucket — the client-side histogram is the
// walk histogram plus network, queueing, and encode overhead.
func printHistogram(sorted []time.Duration) {
	bounds := telemetry.LatencyBounds
	fmt.Printf("histogram (meshd_walk_latency_seconds buckets):\n")
	prev := 0
	for _, b := range bounds {
		le := time.Duration(b * float64(time.Second))
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > le })
		if i > prev {
			fmt.Printf("  le=%-8v %7d  (cum %d)\n", le, i-prev, i)
		}
		prev = i
	}
	if n := len(sorted) - prev; n > 0 {
		fmt.Printf("  le=+Inf    %7d  (cum %d)\n", n, len(sorted))
	}
}

// countReplayable counts the records of a recording that have a wire
// form (empty-delta commits are skipped by the replayer).
func countReplayable(recs []journal.Record) int {
	n := 0
	for _, rec := range recs {
		if len(rec.Adds)+len(rec.Repairs) > 0 {
			n++
		}
	}
	return n
}

// getFaults fetches the mesh's current fault list (the wire FaultList).
func getFaults(client *http.Client, url string) ([]coord, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var list struct {
		Faults []coord `json:"faults"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, fmt.Errorf("decode fault list: %v", err)
	}
	return list.Faults, nil
}

// normalizeBase turns a host:port or URL into a scheme-prefixed base
// with no trailing slash.
func normalizeBase(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// mutTarget is the shared, mutable mutation target: it starts at the
// -addr node (or the first -cluster node) and is rewritten by
// every NOT_LEADER redirect, so all mutation paths — seeding, churn,
// replay, cleanup — converge on the discovered leader after one miss.
type mutTarget struct {
	mu   sync.Mutex
	base string
}

func (m *mutTarget) get() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base
}

func (m *mutTarget) set(base string) {
	m.mu.Lock()
	m.base = base
	m.mu.Unlock()
}

// maxLeaderHops bounds NOT_LEADER redirect chasing: a healthy cluster
// resolves in one hop, so a longer chain means the membership config is
// circular or stale and the refusal should surface.
const maxLeaderHops = 3

// doMutation sends one mutation (method + optional JSON body) to the
// current mutation target, following NOT_LEADER redirects via the error
// body's leader hint (updating the shared target) and retrying 429
// responses with jittered exponential backoff floored at the
// retry_after_seconds hint. Any other status returns immediately; a
// transport failure is the error return. stop (may be nil) aborts a
// pending backoff. One X-Request-Id spans every hop and retry of the
// logical mutation, so the redirecting follower and the leader log the
// same ID — grep it once, see the whole path.
func doMutation(client *http.Client, mt *mutTarget, method, path string, v any, retries int, base time.Duration, rng *rand.Rand, stop <-chan struct{}) (int, string, error) {
	reqID := telemetry.NewRequestID()
	hops, attempt := 0, 0
	for {
		var rd io.Reader
		if v != nil {
			buf, _ := json.Marshal(v)
			rd = bytes.NewReader(buf)
		}
		req, err := http.NewRequest(method, mt.get()+path, rd)
		if err != nil {
			return 0, "", err
		}
		req.Header.Set("X-Request-Id", reqID)
		if v != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, "", err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		status, body := resp.StatusCode, strings.TrimSpace(string(raw))

		if status == http.StatusMisdirectedRequest && hops < maxLeaderHops {
			var eb errorBody
			if json.Unmarshal(raw, &eb) == nil && eb.Error.Code == "NOT_LEADER" && eb.Error.Leader != "" {
				mt.set(normalizeBase(eb.Error.Leader))
				hops++
				continue
			}
		}
		if status == http.StatusTooManyRequests && attempt < retries {
			var eb errorBody
			var hint time.Duration
			if json.Unmarshal(raw, &eb) == nil {
				hint = time.Duration(eb.Error.RetryAfterSeconds * float64(time.Second))
			}
			wait := backoffFor(base, attempt, hint, rng)
			attempt++
			select {
			case <-stop:
				return status, body, nil
			case <-time.After(wait):
			}
			continue
		}
		return status, body, nil
	}
}

// waitReplicated polls every node until it serves mesh at (or past)
// version, the signal that the initial create + seed replicated.
func waitReplicated(client *http.Client, bases []string, mesh string, version uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, b := range bases {
		for {
			var info struct {
				SnapshotVersion uint64 `json:"snapshot_version"`
			}
			resp, err := client.Get(b + "/v1/meshes/" + mesh)
			if err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK &&
					json.Unmarshal(body, &info) == nil && info.SnapshotVersion >= version {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s did not replicate %q to v%d within %v", b, mesh, version, timeout)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}
