package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	meshroute "repro"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/info"
	"repro/internal/journal"
	"repro/internal/labeling"
	"repro/internal/mcc"
	"repro/internal/mesh"
	"repro/internal/routing"
	"repro/internal/server"
	"repro/internal/spath"
)

// replaySamples caps the calls timed per layer where a median is all the
// metric needs.
const replaySamples = 512

// replay is part (b) of a traced run: every layer's public entry point
// called in process on the run's inputs, one span per call, with the heap
// allocations of the walk and the commit stages.
func (r *runner) replay(ctx context.Context, m map[string]float64) error {
	net := meshroute.New(r.fx.W, r.fx.H)
	if err := net.Apply(func(tx *meshroute.Tx) error { return stage(tx, r.fx.Faults, nil) }); err != nil {
		return err
	}
	cheap := r.replayWalks(net, m)
	if err := r.replayEngine(ctx, net, cheap, m); err != nil {
		return err
	}
	if err := r.replayFacade(ctx, net, cheap, m); err != nil {
		return err
	}
	r.replaySpath(net, m)
	if err := r.replayCommits(net, m); err != nil {
		return err
	}
	if err := r.replayJournal(m); err != nil {
		return err
	}
	return r.replayHandler(m)
}

// stage stages adds and repairs on a transaction.
func stage(tx *meshroute.Tx, adds, repairs []mesh.Coord) error {
	for _, c := range adds {
		if err := tx.AddFault(c); err != nil {
			return err
		}
	}
	for _, c := range repairs {
		if err := tx.RepairFault(c); err != nil {
			return err
		}
	}
	return nil
}

// call runs fn and returns when it started, how long it took, and the
// heap objects and bytes it allocated. Memory statistics are read outside
// the timed interval.
func call(fn func()) (start time.Time, d time.Duration, allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	fn()
	d = time.Since(start)
	runtime.ReadMemStats(&after)
	return start, d, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// span records one replayed call under parent and returns its ID.
func (r *runner) span(name string, parent, k int, start time.Time, d time.Duration, allocs, bytes uint64) int {
	id := r.tr.Add(name, name+"-"+strconv.Itoa(k), parent, start, start.Add(d))
	r.tr.spans[id].Allocs, r.tr.spans[id].Bytes = allocs, bytes
	return id
}

// layer opens the root span of one layer's replay; the returned func
// closes it.
func (r *runner) layer(name string) (int, func()) {
	id := r.tr.Add("replay."+name, "", -1, time.Now(), time.Now())
	return id, func() { r.tr.spans[id].End = int64(time.Since(r.tr.t0)) }
}

// replayWalks walks the workload's pairs in traffic order on one warm,
// caller-owned scratch — the zero-allocation steady state the scratch is
// meant to give — until the whole population is walked or the run's
// duration is spent. It returns the pairs whose walk took under a
// millisecond, on which the layers above time their own overhead.
func (r *runner) replayWalks(net *meshroute.Network, m map[string]float64) []int {
	root, done := r.layer("routing")
	defer done()
	a := net.Engine().Snapshot().Analysis()
	sc := routing.NewScratch(a.Mesh())
	for _, i := range r.order[:min(64, len(r.order))] {
		p := r.pop[i]
		routing.Route(a, routing.RB2, p.Src, p.Dst, routing.Options{Scratch: sc})
	}
	var durs []float64
	var allocs uint64
	var allocFree, phases, flips, downgraded int
	var cheap []int
	deadline := time.Now().Add(r.cfg.Duration)
	for k, i := range r.order {
		if k > 0 && time.Now().After(deadline) {
			break
		}
		p := r.pop[i]
		var res routing.Result
		start, d, al, by := call(func() { res = routing.Route(a, routing.RB2, p.Src, p.Dst, routing.Options{Scratch: sc}) })
		r.span("routing.Route", root, k, start, d, al, by)
		durs = append(durs, us(d))
		allocs += al
		if al == 0 {
			allocFree++
		}
		phases += res.Phases
		flips += res.WallFlips
		if res.Downgraded {
			downgraded++
		}
		if d < time.Millisecond {
			cheap = append(cheap, i)
		}
	}
	n := float64(len(durs))
	s := sorted(durs)
	top := s[len(s)-max(1, len(s)/100):]
	m["routing.walk.calls"] = n
	m["routing.walk.busy_s"] = sum(durs) / 1e6
	m["routing.walk.p50_us"] = Quantile(durs, 0.5)
	m["routing.walk.p99_us"] = Quantile(durs, 0.99)
	m["routing.walk.max_ms"] = s[len(s)-1] / 1e3
	m["routing.walk.tail1pct_share"] = sum(top) / sum(durs)
	m["routing.walk.allocs_per_call"] = float64(allocs) / n
	m["routing.walk.alloc_free_frac"] = float64(allocFree) / n
	m["routing.walk.phases_mean"] = float64(phases) / n
	m["routing.walk.wallflips_total"] = float64(flips)
	m["routing.walk.downgraded_total"] = float64(downgraded)
	return cheap
}

// replayEngine times the engine above the walk: a snapshot route's own
// cost (scratch pool and path detach, wall time minus the walk), and
// whole batches through the snapshot's worker pool.
func (r *runner) replayEngine(ctx context.Context, net *meshroute.Network, cheap []int, m map[string]float64) error {
	root, done := r.layer("engine")
	defer done()
	snap := net.Engine().Snapshot()
	var self []float64
	for k, i := range cheap[:min(replaySamples, len(cheap))] {
		p := r.pop[i]
		start := time.Now()
		res, err := snap.Route(routing.RB2, p.Src, p.Dst, routing.Options{})
		d := time.Since(start)
		if err != nil {
			return err
		}
		r.span("engine.Snapshot.Route", root, k, start, d, 0, 0)
		self = append(self, us(d-res.Elapsed))
	}
	m["engine.route.p50_us"] = Quantile(self, 0.5)

	// Three batches of the traffic order give a median.
	var walls, utils []float64
	for b := 0; b < 3 && (b+1)*r.fx.Batch <= len(r.order); b++ {
		pairs := make([]engine.Pair, r.fx.Batch)
		for j := range pairs {
			p := r.pop[r.order[b*r.fx.Batch+j]]
			pairs[j] = engine.Pair{S: p.Src, D: p.Dst}
		}
		var busy time.Duration
		start := time.Now()
		for item := range snap.BatchStream(ctx, routing.RB2, pairs, 0, routing.Options{}) {
			if item.Err != nil {
				return item.Err
			}
			busy += item.Res.Elapsed
		}
		wall := time.Since(start)
		r.span("engine.Snapshot.BatchStream", root, b, start, wall, 0, 0)
		walls = append(walls, ms(wall))
		utils = append(utils, busy.Seconds()/(wall.Seconds()*float64(poolSize())))
	}
	m["engine.batch.wall_ms_p50"] = Quantile(walls, 0.5)
	m["engine.batch.worker_util"] = Quantile(utils, 0.5)
	return nil
}

// replayFacade times the facade's own cost above the walk, without the
// oracle on the cheap pairs and with it on the oracle workload's pairs.
func (r *runner) replayFacade(ctx context.Context, net *meshroute.Network, cheap []int, m map[string]float64) error {
	root, done := r.layer("meshroute")
	defer done()
	// route times one facade call and its share above the walk; ok is
	// false for an aborted walk, which returns no response to time.
	route := func(name string, k int, p Pair, opts ...meshroute.RouteOption) (self float64, ok bool, err error) {
		start := time.Now()
		resp, err := net.Route(ctx, meshroute.RouteRequest{Src: p.Src, Dst: p.Dst}, opts...)
		d := time.Since(start)
		var aborted *meshroute.ErrAborted
		if errors.As(err, &aborted) {
			return 0, false, nil
		}
		if err != nil {
			return 0, false, err
		}
		r.span(name, root, k, start, d, 0, 0)
		return us(d - resp.WalkDuration), true, nil
	}
	var self, selfOracle []float64
	for k, i := range cheap[:min(replaySamples, len(cheap))] {
		v, ok, err := route("meshroute.Route", k, r.pop[i], meshroute.WithoutOracle())
		if err != nil {
			return err
		}
		if ok {
			self = append(self, v)
		}
	}
	deadline := time.Now().Add(r.cfg.Duration / 8)
	for k, i := range r.order {
		if len(selfOracle) >= replaySamples || (k > 0 && time.Now().After(deadline)) {
			break
		}
		v, ok, err := route("meshroute.Route+oracle", k, r.fx.OraclePairs[i])
		if err != nil {
			return err
		}
		if ok {
			selfOracle = append(selfOracle, v)
		}
	}
	m["meshroute.route.p50_us"] = Quantile(self, 0.5)
	m["meshroute.route_oracle.p50_us"] = Quantile(selfOracle, 0.5)
	return nil
}

// replaySpath times the distance oracle on the oracle workload's pairs —
// a fresh cache at the default bound, so fills and hits both occur — the
// Manhattan-feasibility check, and the oracle's rebase over the first
// churn delta.
func (r *runner) replaySpath(net *meshroute.Network, m map[string]float64) {
	root, done := r.layer("spath")
	defer done()
	f := net.Engine().Snapshot().Faults()
	o := spath.NewOracle(f, 0)
	var fills, hits []float64
	for k, i := range r.order[:min(4*replaySamples, len(r.order))] {
		p := r.fx.OraclePairs[i]
		h0, _ := o.Stats()
		start := time.Now()
		o.Dist(p.Src, p.Dst)
		d := time.Since(start)
		r.span("spath.Oracle.Dist", root, k, start, d, 0, 0)
		if h1, _ := o.Stats(); h1 > h0 {
			hits = append(hits, us(d))
		} else {
			fills = append(fills, us(d))
		}
	}
	m["spath.oracle.hit_frac"] = float64(len(hits)) / float64(len(hits)+len(fills))
	m["spath.oracle.fill_us_p50"] = Quantile(fills, 0.5)
	m["spath.oracle.hit_us_p50"] = Quantile(hits, 0.5)

	var manhattan []float64
	for k, i := range r.order[:min(4*replaySamples, len(r.order))] {
		p := r.pop[i]
		start := time.Now()
		spath.ManhattanReachable(f, p.Src, p.Dst)
		d := time.Since(start)
		r.span("spath.ManhattanReachable", root, k, start, d, 0, 0)
		manhattan = append(manhattan, us(d))
	}
	m["spath.manhattan.p50_us"] = Quantile(manhattan, 0.5)

	d0 := r.fx.Deltas[0]
	next := applyDelta(f, d0)
	var carried int
	start, d, al, by := call(func() { _, carried = o.Rebase(next, d0.Adds, d0.Repairs) })
	r.span("spath.Oracle.Rebase", root, 0, start, d, al, by)
	m["spath.oracle.rebase_us"] = us(d)
	m["spath.oracle.carried"] = float64(carried)
}

// applyDelta returns a copy of f with d applied.
func applyDelta(f *fault.Set, d Delta) *fault.Set {
	next := f.Clone()
	for _, c := range d.Adds {
		next.Add(c)
	}
	for _, c := range d.Repairs {
		next.Remove(c)
	}
	return next
}

// commitPasses is how often each commit-chain quantity is timed; the
// fastest pass is kept. A commit takes seconds, long enough for the other
// processes on the machine to add noise the size of the gaps the ledger
// looks for.
const commitPasses = 2

// stageTimes is one pass over the commit chain's stages.
type stageTimes struct {
	label, mcc      time.Duration
	info            [3]time.Duration // B1, B2, B3
	b2Bytes         uint64
	cells           int
	carried, shared int // MCCs carried over, of prevMCCs
	prevMCCs        int
}

func (st stageTimes) total() time.Duration {
	return st.label + st.mcc + st.info[0] + st.info[1] + st.info[2]
}

// stages runs, per orientation, exactly the calls routing.RebuildFrom
// makes: labeling.Update, mcc.UpdateSet, and info.Rebuild for each model
// when the safe/unsafe partition moved.
func (r *runner) stages(pa *routing.Analysis, adds, repairs []mesh.Coord, root, pass int) stageTimes {
	var st stageTimes
	mm := pa.Mesh()
	for o := mesh.Orient(0); o < mesh.NumOrients; o++ {
		oAdds, oReps := make([]mesh.Coord, len(adds)), make([]mesh.Coord, len(repairs))
		for i, c := range adds {
			oAdds[i] = o.To(mm, c)
		}
		for i, c := range repairs {
			oReps[i] = o.To(mm, c)
		}
		k := pass*int(mesh.NumOrients) + int(o)
		var res labeling.UpdateResult
		start, d, al, by := call(func() { res = labeling.Update(pa.Grid(o), oAdds, oReps) })
		r.span("labeling.Update", root, k, start, d, al, by)
		st.label += d
		st.cells += res.Examined

		var set *mcc.Set
		var carried map[*mcc.MCC]*mcc.MCC
		start, d, al, by = call(func() { set, carried = mcc.UpdateSet(pa.MCCs(o), res.Grid, res.UnsafeFlipped) })
		r.span("mcc.UpdateSet", root, k, start, d, al, by)
		st.mcc += d
		st.carried += len(carried)
		st.prevMCCs += pa.MCCs(o).Len()

		if len(res.UnsafeFlipped) == 0 {
			continue // RebuildFrom shares every store of an unmoved partition
		}
		for mi, mod := range []info.Model{info.B1, info.B2, info.B3} {
			start, d, al, by := call(func() { info.Rebuild(pa.Store(mod, o), set, carried, res.UnsafeFlipped) })
			r.span("info.Rebuild."+mod.String(), root, k, start, d, al, by)
			st.info[mi] += d
			if mod == info.B2 {
				st.b2Bytes += by
			}
		}
	}
	return st
}

// replayCommits splits the first churn commit into the stages of the
// commit chain — fault.Diff, then the per-orientation stages — and times
// routing.RebuildFrom and the engine Swap that publish the same
// transition, then commits the next delta through the facade's Apply.
// Every timed part starts from a collected heap, so the garbage one part
// leaves (the stages, RebuildFrom and Swap each allocate about a
// gigabyte) is not charged to the next.
func (r *runner) replayCommits(net *meshroute.Network, m map[string]float64) error {
	root, done := r.layer("commit")
	defer done()
	prev := net.Engine().Snapshot()
	pa := prev.Analysis()
	next := applyDelta(prev.Faults(), r.fx.Deltas[0])

	var adds, repairs []mesh.Coord
	start, d, al, by := call(func() { adds, repairs = fault.Diff(prev.Faults(), next) })
	r.span("fault.Diff", root, 0, start, d, al, by)
	m["fault.diff.us"] = us(d)

	var st stageTimes
	for pass := 0; pass < commitPasses; pass++ {
		runtime.GC()
		if s := r.stages(pa, adds, repairs, root, pass); pass == 0 || s.total() < st.total() {
			st = s
		}
	}
	m["labeling.update.ms"] = ms(st.label)
	m["labeling.update.cells"] = float64(st.cells)
	m["mcc.update_set.ms"] = ms(st.mcc)
	m["mcc.update_set.carried_frac"] = float64(st.carried) / float64(max(st.prevMCCs, 1))
	m["info.rebuild.B1.ms"] = ms(st.info[0])
	m["info.rebuild.B2.ms"] = ms(st.info[1])
	m["info.rebuild.B3.ms"] = ms(st.info[2])
	m["info.rebuild.B2.alloc_mb"] = float64(st.b2Bytes) / (1 << 20)

	// fastest times fn over commitPasses passes, before each of which
	// reset runs untimed, and records the fastest as name's ms/alloc_mb.
	fastest := func(name, spanName string, reset, fn func()) {
		best := time.Duration(math.MaxInt64)
		for pass := 0; pass < commitPasses; pass++ {
			if pass > 0 && reset != nil {
				reset()
			}
			runtime.GC()
			start, d, al, by := call(fn)
			r.span(spanName, root, pass, start, d, al, by)
			if d < best {
				best = d
				m[name+".ms"] = ms(d)
				m[name+".alloc_mb"] = float64(by) / (1 << 20)
			}
		}
	}
	fastest("routing.rebuild_from", "routing.RebuildFrom", nil, func() { routing.RebuildFrom(pa, next, adds, repairs) })
	before := net.Engine().RebuildStats()
	// Swapping back to the previous configuration between passes makes
	// every timed Swap publish the same transition.
	fastest("engine.swap", "engine.Router.Swap",
		func() { net.Engine().Swap(prev.Faults()) },
		func() { net.Engine().Swap(next) })

	d1 := r.fx.Deltas[1]
	var err error
	runtime.GC()
	start, d, al, by = call(func() {
		err = net.Apply(func(tx *meshroute.Tx) error { return stage(tx, d1.Adds, d1.Repairs) })
	})
	if err != nil {
		return err
	}
	r.span("meshroute.Network.Apply", root, 0, start, d, al, by)
	m["meshroute.apply.ms_p50"] = ms(d)
	after := net.Engine().RebuildStats()
	m["engine.rebuild.delta_builds"] = float64(after.DeltaBuilds - before.DeltaBuilds)
	m["engine.rebuild.full_builds"] = float64(after.FullBuilds - before.FullBuilds)
	return nil
}

// replayJournal appends the fixture commit and the first churn deltas to
// a fresh journal that fsyncs every append, as churn's meshd does.
func (r *runner) replayJournal(m map[string]float64) error {
	root, done := r.layer("journal")
	defer done()
	dir := filepath.Join(r.cfg.Dir, "replay-journal")
	if err := journal.Remove(dir); err != nil {
		return err
	}
	defer journal.Remove(dir)
	var writes, fsyncs []float64
	j, err := journal.Create(dir, r.fx.W, r.fx.H, journal.Options{
		Fsync: journal.FsyncAlways,
		OnAppend: func(version uint64, write, fsync time.Duration) {
			if version > 2 { // the fixture commit is not a churn delta
				writes = append(writes, us(write))
				fsyncs = append(fsyncs, us(fsync))
			}
		},
	})
	if err != nil {
		return err
	}
	defer j.Close()
	if err := j.Append(2, r.fx.Faults, nil); err != nil {
		return err
	}
	for k, d := range r.fx.Deltas[:min(16, len(r.fx.Deltas))] {
		start := time.Now()
		if err := j.Append(uint64(3+k), d.Adds, d.Repairs); err != nil {
			return err
		}
		r.span("journal.Append", root, k, start, time.Since(start), 0, 0)
	}
	m["journal.append_us"] = Quantile(writes, 0.5)
	m["journal.fsync_us"] = Quantile(fsyncs, 0.5)
	return nil
}

// replayHandler serves the workload's route requests through meshd's
// HTTP handler in process (httptest, no TCP), on a mesh set up over the
// same handler.
func (r *runner) replayHandler(m map[string]float64) error {
	root, done := r.layer("server")
	defer done()
	h := server.New(server.Config{}).Handler()
	serve := func(path string, body any, id string) (int, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
		req.Header.Set("X-Request-Id", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, nil
	}
	ops := make([]server.FaultOp, len(r.fx.Faults))
	for i, c := range r.fx.Faults {
		ops[i] = server.FaultOp{Op: "add", At: &server.Coord{X: c.X, Y: c.Y}}
	}
	for _, step := range []struct {
		path string
		body any
	}{
		{"/v1/meshes", server.CreateMeshRequest{Name: MeshName, Width: r.fx.W, Height: r.fx.H}},
		{"/v1/meshes/" + MeshName + "/faults", server.FaultsWireRequest{Ops: ops}},
	} {
		if code, err := serve(step.path, step.body, "replay-setup"); err != nil || code/100 != 2 {
			return fmt.Errorf("in-process set-up %s: status %d, %v", step.path, code, err)
		}
	}
	var durs []float64
	deadline := time.Now().Add(r.cfg.Duration / 8)
	for k, i := range r.order {
		if len(durs) >= 2*replaySamples || (k > 0 && time.Now().After(deadline)) {
			break
		}
		p := r.pop[i]
		req := server.RouteWireRequest{Src: server.Coord{X: p.Src.X, Y: p.Src.Y}, Dst: server.Coord{X: p.Dst.X, Y: p.Dst.Y},
			Algorithm: "rb2", NoOracle: !r.oracle()}
		id := "replay-handler-" + strconv.Itoa(k)
		start := time.Now()
		code, err := serve("/v1/meshes/"+MeshName+"/route", req, id)
		d := time.Since(start)
		if err != nil || (code != http.StatusOK && code != http.StatusUnprocessableEntity) {
			return fmt.Errorf("in-process route %v->%v: status %d, %v", p.Src, p.Dst, code, err)
		}
		r.span("server.Handler", root, k, start, d, 0, 0)
		durs = append(durs, us(d))
	}
	m["server.handler_inproc.us_p50"] = Quantile(durs, 0.5)
	return nil
}
