package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Config describes one benchmark run.
type Config struct {
	Meshd    string        // the meshd binary under test
	Dir      string        // where the run's daemons keep addresses, logs and journals
	Fixture  *Fixture      // the inputs
	Workload string        // one of Workloads
	Seed     int64         // traffic seed: the order pairs are sent in
	Duration time.Duration // measured time of the run, shared out over its set-ups
	Warmup   int           // pairs answered before measuring
	Setups   int           // set-ups timed; each serves an equal share of Duration
	Trace    bool          // traced run: per-layer metrics instead of end-to-end ones
	Logf     func(format string, args ...any)
}

// Metric is one reported number.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one run.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics are the gated numbers: EndToEnd for an untraced run,
	// PerLayer for a traced one, in spec order.
	Metrics []Metric `json:"metrics"`
	// Extra are diagnostics printed beside them: sample counts, maxima,
	// and the traced run's own end-to-end numbers.
	Extra []Metric `json:"extra"`
	Spans []Span   `json:"-"`
}

// Correct reports whether every operation of the run was answered and
// passed the checker.
func (r *Result) Correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// Run executes one benchmark run against a fresh meshd.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if !slices.Contains(Workloads, cfg.Workload) {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Setups < 1 {
		cfg.Setups = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &runner{cfg: cfg, fx: cfg.Fixture, pop: cfg.Fixture.Pairs}
	if cfg.Workload == "route-oracle" {
		r.pop = r.fx.OraclePairs
	}
	// The traffic is a seeded order of request units — pairs, or on
	// batch-sweep whole fixed batches — so every run sends the same
	// requests and only their order varies. Churn keeps the fixture's
	// order: which of its few long walks overlap a commit moves its read
	// throughput by a third, and a seeded order would measure that
	// alignment rather than the code.
	per := r.perRequest()
	seed := cfg.Seed
	if r.churn() {
		seed = r.fx.Seed
	}
	r.units = Order(len(r.pop)/per, seed)
	for _, u := range r.units {
		for i := 0; i < per; i++ {
			r.order = append(r.order, u*per+i)
		}
	}
	res := &Result{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace}
	var err error
	if cfg.Trace {
		err = r.traced(ctx, res)
	} else {
		err = r.untraced(ctx, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runner holds one run's state.
type runner struct {
	cfg   Config
	fx    *Fixture
	pop   []Pair // the workload's read population
	units []int  // traffic order of request units (pop indices, or batch indices on batch-sweep)
	order []int  // the same order expanded to pop indices
	tr    Tracer
}

func (r *runner) batch() bool  { return r.cfg.Workload == "batch-sweep" }
func (r *runner) churn() bool  { return r.cfg.Workload == "churn" }
func (r *runner) oracle() bool { return r.cfg.Workload == "route-oracle" }

// perRequest is the number of pairs one read request carries.
func (r *runner) perRequest() int {
	if r.batch() {
		return r.fx.Batch
	}
	return 1
}

// readers is the number of closed-loop read connections.
func (r *runner) readers() int {
	if r.batch() || r.churn() {
		return 1
	}
	return 2
}

// setup is one timed set-up: meshd exec to its first answered route.
type setup struct {
	d       *Daemon
	c       *Client // the first connection; set-up traffic runs on it
	seconds float64 // exec to first answered route
	commit  sample  // the fixture's bulk commit
	version uint64  // snapshot version of the fixture commit
}

func (s *setup) stop() error {
	s.c.Close()
	return s.d.Stop()
}

// daemonArgs returns meshd's flags for this run. Churn is journaled with
// an fsync per commit; a traced daemon logs JSON access records and is
// journaled too, so the commit it serves during set-up carries journal
// spans on every workload.
func (r *runner) daemonArgs(dir string, traced bool) []string {
	var args []string
	if r.churn() || traced {
		args = append(args, "-data-dir", filepath.Join(dir, "data"), "-fsync", "always")
	}
	if traced {
		args = append(args, "-log", "json")
	}
	return args
}

// setUp boots meshd in dir, creates the mesh, commits the fixture's
// faults as one transaction of explicit adds, and routes the first pair.
func (r *runner) setUp(ctx context.Context, dir string, traced bool) (*setup, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	start := time.Now()
	d, err := StartDaemon(r.cfg.Meshd, dir, r.daemonArgs(dir, traced)...)
	if err != nil {
		return nil, err
	}
	s := &setup{d: d, c: NewClient(d.Addr)}
	fail := func(err error) (*setup, error) {
		_ = s.stop()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := s.c.CreateMesh(ctx, r.fx.W, r.fx.H); err != nil {
		return fail(err)
	}
	if traced {
		s.commit.id = telemetry.NewRequestID()
	}
	s.commit.start = time.Now()
	if s.version, err = s.c.Commit(ctx, r.fx.Faults, nil, s.commit.id); err != nil {
		return fail(err)
	}
	s.commit.end = time.Now()
	p := r.fx.Pairs[0]
	ans, err := s.c.Route(ctx, p, false, "")
	if err != nil {
		return fail(err)
	}
	if ans.Route != nil {
		if err := r.fx.Grid.CheckRoute(p.Src, p.Dst, wirePath(ans.Route.Path), ans.Route.Hops, p.Dist); err != nil {
			return fail(err)
		}
	}
	s.seconds = time.Since(start).Seconds()
	return s, nil
}

// sample is one timed operation of a phase.
type sample struct {
	seq        int // read: position in the traffic sequence; commit: delta index
	pairs      int // pairs the request carried (0 for commits)
	start, end time.Time
	id         string
}

func (s sample) latency() time.Duration { return s.end.Sub(s.start) }

// outcome is the checked answer for one population pair.
type outcome struct{ delivered, shortest bool }

// phaseLog is what one traffic phase observed.
type phaseLog struct {
	measureStart time.Time
	warm, window int // read requests of the warm-up and of one window
	reads        []sample
	commits      []sample
	outcomes     map[int]outcome
	attempted    int
	failed       int
	failures     []string
}

// worker is one closed-loop connection's private log.
type worker struct {
	samples   []sample
	outcomes  map[int]outcome
	attempted int
	failed    int
	failures  []string
}

func (w *worker) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 8 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// phaseOpts bounds a traffic phase.
type phaseOpts struct {
	duration   time.Duration // measured time
	maxWindows int           // > 0: stop reading after this many windows
	ids        bool          // stamp X-Request-Id on every request
}

// phase drives the workload against s: a warm-up of cfg.Warmup pairs,
// then closed-loop reads (and, on churn, back-to-back commits) until the
// duration or the window budget runs out. In-flight requests finish.
func (r *runner) phase(ctx context.Context, s *setup, o phaseOpts) (*phaseLog, error) {
	per := r.perRequest()
	pl := &phaseLog{
		warm:     (r.cfg.Warmup + per - 1) / per,
		window:   len(r.units),
		outcomes: map[int]outcome{},
	}
	clients := []*Client{s.c}
	if r.readers() == 2 || r.churn() {
		c2 := NewClient(s.d.Addr)
		defer c2.Close()
		clients = append(clients, c2)
	}
	readClients := clients[:r.readers()]
	if r.churn() {
		readClients = clients[1:] // the first connection commits
	}
	chk := &checker{fx: r.fx, base: s.version, grids: map[int]*Grid{}}
	var next atomic.Int64
	workers := make([]*worker, len(readClients))
	for i := range workers {
		workers[i] = &worker{outcomes: map[int]outcome{}}
	}
	runReads := func(limit int, deadline time.Time) {
		var wg sync.WaitGroup
		for i, c := range readClients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.readLoop(ctx, c, chk, &next, limit, deadline, o.ids, workers[i])
			}()
		}
		wg.Wait()
	}
	runReads(pl.warm, time.Now().Add(2*time.Minute))
	for _, w := range workers {
		w.samples = w.samples[:0] // warm-up answers are checked, not timed
	}

	pl.measureStart = time.Now()
	deadline := pl.measureStart.Add(o.duration)
	limit := math.MaxInt
	if o.maxWindows > 0 {
		limit = pl.warm + o.maxWindows*pl.window
		deadline = pl.measureStart.Add(4 * o.duration)
	}
	writer := &worker{}
	readsDone := make(chan struct{})
	var wg sync.WaitGroup
	if r.churn() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.commitLoop(ctx, clients[0], s.version, deadline, readsDone, o.ids, writer)
		}()
	}
	runReads(limit, deadline)
	close(readsDone)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, w := range append(workers, writer) {
		pl.attempted += w.attempted
		pl.failed += w.failed
		pl.failures = append(pl.failures, w.failures...)
		for k, v := range w.outcomes {
			if _, ok := pl.outcomes[k]; !ok {
				pl.outcomes[k] = v
			}
		}
	}
	for _, w := range workers {
		pl.reads = append(pl.reads, w.samples...)
	}
	sort.Slice(pl.reads, func(i, j int) bool { return pl.reads[i].seq < pl.reads[j].seq })
	pl.commits = writer.samples
	return pl, nil
}

// readLoop is one read connection: it claims the next position of the
// traffic sequence, sends it, checks the answer, and repeats until limit
// or deadline.
func (r *runner) readLoop(ctx context.Context, c *Client, chk *checker, next *atomic.Int64, limit int, deadline time.Time, ids bool, w *worker) {
	per := r.perRequest()
	for ctx.Err() == nil && time.Now().Before(deadline) {
		seq, ok := claim(next, limit)
		if !ok {
			return
		}
		unit := r.units[seq%len(r.units)]
		idx := make([]int, per)
		pairs := make([]Pair, per)
		for i := range idx {
			idx[i] = unit*per + i
			pairs[i] = r.pop[idx[i]]
		}
		id := ""
		if ids {
			id = telemetry.NewRequestID()
		}
		smp := sample{seq: seq, pairs: per, id: id, start: time.Now()}
		var answers []Answer
		var err error
		if r.batch() {
			answers, err = c.Batch(ctx, pairs, id)
		} else {
			var a Answer
			a, err = c.Route(ctx, pairs[0], r.oracle(), id)
			answers = []Answer{a}
		}
		smp.end = time.Now()
		w.attempted += per
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.samples = append(w.samples, smp)
			w.failed += per - 1
			w.fail("seq %d: %v", seq, err)
			continue
		}
		for i, a := range answers {
			out, err := chk.route(pairs[i], a, r.oracle())
			if err != nil {
				w.fail("seq %d pair %v->%v: %v", seq, pairs[i].Src, pairs[i].Dst, err)
				continue
			}
			if _, ok := w.outcomes[idx[i]]; !ok {
				w.outcomes[idx[i]] = out
			}
		}
		w.samples = append(w.samples, smp)
	}
}

// claim takes the next position of the traffic sequence below limit.
// A position is never consumed without being sent, so the phase after
// this one continues exactly where this one stopped.
func claim(next *atomic.Int64, limit int) (int, bool) {
	for {
		cur := next.Load()
		if cur >= int64(limit) {
			return 0, false
		}
		if next.CompareAndSwap(cur, cur+1) {
			return int(cur), true
		}
	}
}

// commitLoop sends the fixture's churn deltas back to back until the
// deadline passes or the readers finish. Delta k must publish snapshot
// base+1+k: versions advance by exactly one per commit.
func (r *runner) commitLoop(ctx context.Context, c *Client, base uint64, deadline time.Time, readsDone <-chan struct{}, ids bool, w *worker) {
	for k, d := range r.fx.Deltas {
		select {
		case <-readsDone:
			return
		default:
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			return
		}
		id := ""
		if ids {
			id = telemetry.NewRequestID()
		}
		smp := sample{seq: k, id: id, start: time.Now()}
		v, err := c.Commit(ctx, d.Adds, d.Repairs, id)
		smp.end = time.Now()
		w.attempted++
		if err == nil && v != base+1+uint64(k) {
			err = fmt.Errorf("published version %d, want %d", v, base+1+uint64(k))
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.fail("commit %d: %v", k, err)
			w.samples = append(w.samples, smp)
			return // the next delta repairs this one's cells: the chain is broken
		}
		w.samples = append(w.samples, smp)
	}
}

// checker validates answers against the checker's own model of the
// configuration each answer was served from.
type checker struct {
	fx    *Fixture
	base  uint64 // version of the fixture commit; churn delta k is base+1+k
	mu    sync.Mutex
	grids map[int]*Grid // churn configurations by delta index
}

func (c *checker) grid(k int) *Grid {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.grids[k]
	if !ok {
		g = c.fx.Grid.WithFaults(c.fx.Deltas[k].Adds)
		c.grids[k] = g
	}
	return g
}

// route checks one answer to pair p. An ABORTED walk is a valid,
// undelivered answer (its pair is reachable by construction).
func (c *checker) route(p Pair, a Answer, oracle bool) (outcome, error) {
	if a.Aborted {
		return outcome{}, nil
	}
	resp := a.Route
	g, dist := c.fx.Grid, p.Dist
	if v := resp.SnapshotVersion; v != c.base {
		k := int(v) - int(c.base) - 1
		if v < c.base || k >= len(c.fx.Deltas) {
			return outcome{}, fmt.Errorf("served from unexpected snapshot %d (fixture is %d)", v, c.base)
		}
		// Delta k's configuration is the base plus its own adds, so its
		// distances are never shorter than the base's: a route as long as
		// the base distance is shortest there too.
		g = c.grid(k)
		if resp.Hops != int(dist) {
			dist = g.Distance(p.Src, p.Dst)
		}
	}
	if err := g.CheckRoute(p.Src, p.Dst, wirePath(resp.Path), resp.Hops, dist); err != nil {
		return outcome{}, err
	}
	if oracle {
		switch {
		case resp.Oracle == nil:
			return outcome{}, fmt.Errorf("oracle report missing")
		case int32(resp.Oracle.Optimal) != dist:
			return outcome{}, fmt.Errorf("oracle optimal %d, checker BFS %d", resp.Oracle.Optimal, dist)
		case resp.Oracle.Shortest != (int32(resp.Hops) == dist):
			return outcome{}, fmt.Errorf("oracle shortest=%v with %d hops of %d", resp.Oracle.Shortest, resp.Hops, dist)
		}
	}
	return outcome{delivered: true, shortest: int32(resp.Hops) == dist}, nil
}

// measured returns the reads of the phase's complete windows — spans of
// consecutive requests that send every population pair exactly once, so
// every run measures the same work whatever its traffic order — and the
// time they took from the start of measurement. With no complete window
// it falls back to every measured read.
func (pl *phaseLog) measured() (reads []sample, elapsed time.Duration, windows int) {
	windows = len(pl.reads) / pl.window
	reads = pl.reads
	if windows > 0 {
		reads = pl.reads[:windows*pl.window]
	}
	var last time.Time
	for _, s := range reads {
		if s.end.After(last) {
			last = s.end
		}
	}
	return reads, last.Sub(pl.measureStart), windows
}

// fracs returns the delivered share of answered population pairs and the
// shortest share of delivered ones.
func fracs(outcomes map[int]outcome) (delivered, shortest float64) {
	var nd, ns int
	for _, o := range outcomes {
		if o.delivered {
			nd++
			if o.shortest {
				ns++
			}
		}
	}
	return float64(nd) / float64(len(outcomes)), float64(ns) / float64(max(nd, 1))
}

// untraced is the end-to-end run. Each of cfg.Setups set-ups is timed
// and then serves an equal share of the measured time; a metric is the
// median over those phases, so one slow daemon does not move it. The
// phases start from the same state and send the same requests, so they
// are repeated measurements of one quantity.
func (r *runner) untraced(ctx context.Context, res *Result) error {
	var setupS, setupCommit, rate, p50, tail, rss, commits []float64
	outcomes := map[int]outcome{}
	windows, samples := 0, 0
	for i := 0; i < r.cfg.Setups; i++ {
		s, err := r.setUp(ctx, filepath.Join(r.cfg.Dir, "setup-"+strconv.Itoa(i)), false)
		if err != nil {
			return err
		}
		r.cfg.Logf("set-up %d: %.3fs (fixture commit %.0fms)", i, s.seconds, ms(s.commit.latency()))
		pl, err := r.phase(ctx, s, phaseOpts{duration: r.cfg.Duration / time.Duration(r.cfg.Setups)})
		if err != nil {
			_ = s.stop()
			return err
		}
		peak, rssErr := s.d.PeakRSSMB()
		if err := s.stop(); err != nil {
			return err
		}
		if rssErr != nil {
			return rssErr
		}
		res.Attempted += pl.attempted
		res.Failed += pl.failed
		res.Failures = append(res.Failures, pl.failures...)
		for k, v := range pl.outcomes {
			outcomes[k] = v
		}
		reads, elapsed, w := pl.measured()
		lat := latenciesMS(reads)
		var pairs float64
		for _, x := range reads {
			pairs += float64(x.pairs)
		}
		setupS = append(setupS, s.seconds)
		setupCommit = append(setupCommit, ms(s.commit.latency()))
		rate = append(rate, pairs/elapsed.Seconds())
		p50 = append(p50, Quantile(lat, 0.5))
		tail = append(tail, Quantile(lat, r.tailQuantile()))
		rss = append(rss, peak)
		commits = append(commits, latenciesMS(pl.commits)...)
		windows += w
		samples += len(lat)
	}
	commitMS := Quantile(setupCommit, 0.5)
	if r.churn() {
		commitMS = Quantile(commits, 0.5)
	}
	delivered, shortest := fracs(outcomes)
	res.Metrics = []Metric{
		{"setup_s", Quantile(setupS, 0.5), "s"},
		{"pairs_per_s", Quantile(rate, 0.5), "1/s"},
		{"latency_p50_ms", Quantile(p50, 0.5), "ms"},
		{"latency_tail_ms", Quantile(tail, 0.5), "ms"},
		{"commit_p50_ms", commitMS, "ms"},
		{"ok_frac", 1 - float64(res.Failed)/float64(max(res.Attempted, 1)), "frac"},
		{"delivered_frac", delivered, "frac"},
		{"shortest_frac", shortest, "frac"},
		{"server_rss_mb", Quantile(rss, 0.5), "MB"},
	}
	res.Extra = []Metric{
		{"phases", float64(r.cfg.Setups), "count"},
		{"windows", float64(windows), "count"},
		{"latency_samples", float64(samples), "count"},
		{"latency_tail_quantile", r.tailQuantile(), "frac"},
		{"commits", float64(len(commits)), "count"},
		{"pairs_answered", float64(len(outcomes)), "count"},
	}
	return nil
}

// tailQuantile is the tail percentile of request latency: p99, or p90 on
// batch-sweep, whose few large requests leave too few samples beyond p99.
func (r *runner) tailQuantile() float64 {
	if r.batch() {
		return 0.90
	}
	return 0.99
}

func latenciesMS(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = ms(x.latency())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// poolSize is the worker count meshd's batches fan out over: its
// GOMAXPROCS, which on the same machine is ours.
func poolSize() int { return runtime.GOMAXPROCS(0) }
