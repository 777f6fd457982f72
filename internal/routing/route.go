package routing

import (
	"fmt"

	"repro/internal/info"
	"repro/internal/mesh"
)

// Algo names one of the evaluated routing algorithms.
type Algo uint8

// The four algorithms of Figure 5(d)/(e).
const (
	// Ecube is the fault-tolerant dimension-order baseline [2].
	Ecube Algo = iota
	// RB1 is Algorithm 3: Manhattan routing on B1 info with E-cube detours.
	RB1
	// RB2 is Algorithm 5: multi-phase shortest-path routing on B2 info.
	RB2
	// RB3 is Algorithm 7: RB2's strategy on B3 boundary info.
	RB3
)

// String names the algorithm as in the paper.
func (a Algo) String() string {
	switch a {
	case Ecube:
		return "E-cube"
	case RB1:
		return "RB1"
	case RB2:
		return "RB2"
	case RB3:
		return "RB3"
	}
	return fmt.Sprintf("Algo(%d)", uint8(a))
}

// Model returns the information model the algorithm consumes (B1 for the
// E-cube baseline too: it simply never reads it).
func (a Algo) Model() info.Model {
	switch a {
	case RB2:
		return info.B2
	case RB3:
		return info.B3
	default:
		return info.B1
	}
}

// Options tune a routing simulation.
type Options struct {
	// Policy is the adaptive selector of Algorithm 2 step 3.
	Policy Policy
	// MaxHops bounds the walk; 0 means 8 * nodes.
	MaxHops int
	// Stop, when non-nil, is polled before the first hop and then about
	// every stopPollHops hops; a non-nil return aborts the walk with
	// Abort = AbortCanceled. It hooks the walk's step budget to an
	// external lifetime (a context deadline or cancellation) without
	// pulling context into the hot path: the poll granularity keeps the
	// per-hop cost at one counter decrement.
	Stop func() error
	// Scratch supplies the reusable walk buffers. When set, Route
	// allocates nothing at steady state, and Result.Path aliases the
	// scratch's path buffer — valid only until the scratch's next use.
	// When nil, Route walks on a fresh scratch, which the returned path
	// alone keeps. A Scratch serves one walk at a time; concurrent callers
	// need one each. internal/engine pools the scratches of its snapshots.
	Scratch *Scratch
}

// AbortCanceled is the Result.Abort prefix of walks stopped by
// Options.Stop; the stop error's text follows after ": ".
const AbortCanceled = "canceled"

// stopPollHops is the hop interval between Options.Stop polls. Walks are
// bounded by 8*nodes hops, so even at this granularity a canceled walk
// dies within a tiny fraction of its budget, while per-hop ctx.Err()
// mutex traffic (shared across a whole worker pool) is avoided.
const stopPollHops = 64

func (o Options) maxHops(m mesh.Mesh) int {
	if o.MaxHops > 0 {
		return o.MaxHops
	}
	return 8 * m.Nodes()
}

// Result reports one simulated routing.
type Result struct {
	// Path holds every visited node, s first; Path[len-1] == d iff
	// Delivered. With Options.Scratch set it aliases the scratch's buffer
	// (see Options.Scratch).
	Path []mesh.Coord
	// Delivered reports whether the walk reached the destination.
	Delivered bool
	// Hops is len(Path)-1 for delivered walks.
	Hops int
	// Phases counts intermediate destinations reached (RB2/RB3).
	Phases int
	// DetourHops counts hops taken in wall-following detour mode.
	DetourHops int
	// WallFlips counts orbit-livelock recoveries: flips of the detour wall
	// side forced by revisiting the same node flipVisits times.
	WallFlips int
	// Downgraded reports that the detour wall was downgraded from the
	// MCC-region wall to the physical (faulty-only) wall — the escape for
	// safe nodes enclosed by unsafe neighbors of mixed kinds.
	Downgraded bool
	// Abort describes why an undelivered walk stopped.
	Abort string
}

// Route simulates algo from s to d over the analyzed fault configuration.
// An RB1, RB2 or RB3 walk on an analysis built without the algorithm's
// information model does not start: the result is undelivered and its
// Abort names the missing model.
//
//meshlint:hotpath
func Route(a *Analysis, algo Algo, s, d mesh.Coord, opt Options) Result {
	if !a.m.In(s) || !a.m.In(d) {
		return Result{Abort: "endpoint outside mesh"}
	}
	if a.faults.Faulty(s) || a.faults.Faulty(d) {
		return Result{Abort: "faulty endpoint"}
	}
	var find seqFinder
	switch algo {
	case Ecube, RB1:
	case RB2:
		find = findSequenceFull
	case RB3:
		find = findSequenceB3
	default:
		return Result{Abort: "unknown algorithm"}
	}
	model := algo.Model()
	if algo != Ecube && a.stores[model][mesh.NE] == nil {
		return Result{Abort: "information model " + model.String() + " not built"}
	}
	sc := opt.Scratch
	if sc == nil {
		sc = &Scratch{} //meshlint:allow a walk without a caller scratch gets a fresh one; callers that route repeatedly pass their own (internal/engine pools them)
		opt.Scratch = sc
	}
	sc.ensure(a.m)
	var res Result
	if algo == Ecube {
		res = a.routeEcube(s, d, opt)
	} else {
		res = a.routePlanned(s, d, opt, model, find)
	}
	// Keep the (possibly grown) arrival log as the scratch's path buffer
	// for the next walk, and drop the walk state: a pooled scratch
	// outlives the call and must not pin this analysis or opt.Stop's
	// context.
	sc.path = res.Path
	sc.w = walk{}
	return res
}

// walk carries the shared per-simulation state of the drivers. It lives
// inside the Scratch, so starting a walk allocates nothing.
type walk struct {
	a   *Analysis
	sc  *Scratch
	res Result
	u   mesh.Coord
	d   mesh.Coord
	dt  detour
	// wallMask is the current detour-wall bitset (original-frame node
	// indices): the analysis' faulty mask for E-cube and downgraded
	// walks, the per-orientation unsafe mask otherwise. Swapping the wall
	// is a pointer assignment — the closures of the pre-scratch design
	// allocated per leg.
	wallMask []uint64
	stuck    bool
	// downgraded pins the detour wall to faulty-only: a safe node can be
	// enclosed by unsafe neighbors of mixed kinds, and the MCC-region wall
	// must then be abandoned for the physical one.
	downgraded bool
	// stop / stopIn implement the Options.Stop poll: stopIn counts hops
	// down to the next poll (0 forces a poll on the first done check, so
	// an already-expired deadline aborts before any hop).
	stop   func() error
	stopIn int
	// candBuf backs the Algorithm 2 candidate slice (at most +X and +Y).
	candBuf [2]mesh.Direction
}

// obstacle reports whether in-mesh node c lies on the current detour wall.
//
//meshlint:hotpath
func (w *walk) obstacle(c mesh.Coord) bool {
	idx := w.sc.index(c)
	return w.wallMask[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// Revisit thresholds: flipping the wall side on the 4th visit to the same
// node breaks orbit livelocks (wrong traversal orientation around a fault
// cluster); a walk still revisiting after both sides were tried is stuck.
const (
	flipVisits  = 4
	abortVisits = 12
)

//meshlint:hotpath
func (a *Analysis) newWalk(s, d mesh.Coord, opt Options) *walk {
	sc := opt.Scratch
	sc.nextWalk()
	w := &sc.w
	*w = walk{
		a:        a,
		sc:       sc,
		res:      Result{Path: append(sc.path[:0], s)},
		u:        s,
		d:        d,
		wallMask: a.faultyBits,
		stop:     opt.Stop,
	}
	sc.bumpVisit(s)
	return w
}

// arrive records the hop target and runs livelock detection.
//
//meshlint:hotpath
func (w *walk) arrive(n mesh.Coord) {
	w.u = n
	w.res.Path = append(w.res.Path, n) //meshlint:allow arrival log reuses the scratch path buffer; it grows only to the walk high-water mark, then steady-state appends are in place
	switch c := w.sc.bumpVisit(n); {
	case c == flipVisits:
		w.dt.leftHand = !w.dt.leftHand
		w.res.WallFlips++
		if w.dt.active {
			w.dt.end()
		}
	case c >= abortVisits:
		w.stuck = true
	}
}

// move advances to n as a normal (non-detour) hop, closing any episode.
//
//meshlint:hotpath
func (w *walk) move(n mesh.Coord) {
	if w.dt.active {
		w.dt.end()
	}
	w.arrive(n)
}

// detourMove tries to advance one wall-following hop; when the episode is
// exhausted it falls back to the normal candidate (if any). ok=false means
// the walk must abort.
//
//meshlint:hotpath
func (w *walk) detourMove(haveNormal bool, normal mesh.Coord, blocked mesh.Direction) bool {
	if !w.dt.active {
		if !w.dt.begin(w, w.u, blocked, w.d) {
			if !w.downgrade() || !w.dt.begin(w, w.u, blocked, w.d) {
				w.res.Abort = "walled in"
				return false
			}
		}
	}
	next, ok := w.dt.step(w, w.u)
	if !ok && !haveNormal && w.downgrade() {
		// Retry the episode against the physical wall before giving up.
		w.dt.end()
		if w.dt.begin(w, w.u, blocked, w.d) {
			next, ok = w.dt.step(w, w.u)
		}
	}
	if !ok {
		if haveNormal {
			w.move(normal) // full circle: exit even onto walked ground
			return true
		}
		w.res.Abort = "detour loop"
		return false
	}
	w.res.DetourHops++
	w.arrive(next)
	return true
}

// downgrade switches the detour wall to faulty-only; reports whether the
// switch changed anything.
//
//meshlint:hotpath
func (w *walk) downgrade() bool {
	if w.downgraded {
		return false
	}
	w.downgraded = true
	w.res.Downgraded = true
	w.wallMask = w.a.faultyBits
	return true
}

// stepOrDetour performs one hop: the normal step when it exists and does
// not re-enter the active episode's walked ground, a wall-following hop
// otherwise.
//
//meshlint:hotpath
func (w *walk) stepOrDetour(haveNormal bool, normal mesh.Coord, blocked mesh.Direction) bool {
	if haveNormal && (!w.dt.active || w.dt.fresh(w, normal)) {
		w.move(normal)
		return true
	}
	return w.detourMove(haveNormal, normal, blocked)
}

//meshlint:hotpath
func (w *walk) finish() Result {
	w.res.Delivered = true
	w.res.Hops = len(w.res.Path) - 1
	return w.res
}

//meshlint:hotpath
func (w *walk) exhausted() Result {
	switch {
	case w.res.Abort != "": // canceled via Options.Stop; keep the reason
	case w.stuck:
		w.res.Abort = "livelock"
	default:
		w.res.Abort = "hop budget exhausted"
	}
	return w.res
}

// done reports whether the walk should stop without delivery. It is called
// once per hop and doubles as the Options.Stop poll site.
//
//meshlint:hotpath
func (w *walk) done(maxHops int) bool {
	if w.stop != nil {
		if w.stopIn--; w.stopIn < 0 {
			w.stopIn = stopPollHops
			if err := w.stop(); err != nil {
				w.res.Abort = AbortCanceled + ": " + err.Error()
				return true
			}
		}
	}
	return w.stuck || len(w.res.Path) > maxHops
}

// useUnsafeWall points the detour wall at the unsafe region of the leg's
// orientation; faulty cells are unsafe in every orientation, so this is a
// superset of the E-cube wall.
//
//meshlint:hotpath
func (w *walk) useUnsafeWall(e env) {
	w.wallMask = w.a.unsafeBits[e.orient]
}

// progressDir returns the blocked progress direction in original
// coordinates when a leg's candidate set empties: the canonical direction
// with the larger remaining offset toward the leg target.
//
//meshlint:hotpath
func (w *walk) progressDir(cu, ct mesh.Coord, e env) mesh.Direction {
	dir := mesh.PlusX
	if ct.Y-cu.Y > ct.X-cu.X {
		dir = mesh.PlusY
	}
	return e.orient.DirTo(dir)
}

// routeEcube is dimension-order XY routing with wall-following detours
// around faulty regions, the baseline of Figure 5(e).
//
//meshlint:hotpath
func (a *Analysis) routeEcube(s, d mesh.Coord, opt Options) Result {
	w := a.newWalk(s, d, opt)
	for !w.done(opt.maxHops(a.m)) {
		if w.u == d {
			return w.finish()
		}
		wantDir := dimOrderDir(w.u, d)
		want := w.u.Step(wantDir)
		free := a.m.In(want) && !w.obstacle(want)
		if !w.stepOrDetour(free, want, wantDir) {
			return w.res
		}
	}
	return w.exhausted()
}

// dimOrderDir is the XY dimension-order preference: correct X, then Y.
//
//meshlint:hotpath
func dimOrderDir(u, d mesh.Coord) mesh.Direction {
	switch {
	case u.X < d.X:
		return mesh.PlusX
	case u.X > d.X:
		return mesh.MinusX
	case u.Y < d.Y:
		return mesh.PlusY
	default:
		return mesh.MinusY
	}
}

// routePlanned is the Algorithm 2 driver shared by RB1 (Algorithm 3), RB2
// (Algorithm 5) and RB3 (Algorithm 7). Every hop takes Algorithm 2's
// candidate set on the model's information and detours around the MCC
// when it is empty: the detour wall is the unsafe region of the current
// travel orientation, not just the faults — otherwise the walker orbits
// inside useless pockets that the candidate rule refuses to re-enter.
// With a non-nil find (RB2, RB3) the walk is multi-phase: identify the
// closest blocking sequence, evaluate Equations 2/3 for the detour
// pivots, route Manhattan legs to each pivot, and repeat from there. RB1
// passes a nil find and never plans.
//
//meshlint:hotpath
func (a *Analysis) routePlanned(s, d mesh.Coord, opt Options, model info.Model, find seqFinder) Result {
	w := a.newWalk(s, d, opt)
	// pending holds the pivots ahead in original coordinates; Equation 3
	// options contribute at most two pivots per plan.
	var pending [2]mesh.Coord
	npend := 0
	replans := 0
	for !w.done(opt.maxHops(a.m)) {
		if w.u == d {
			return w.finish()
		}
		// Pop reached pivots.
		for npend > 0 && w.u == pending[0] {
			pending[0] = pending[1]
			npend--
			w.res.Phases++
			replans = 0
		}
		target := d
		if npend > 0 {
			target = pending[0]
		}
		e := a.envFor(w.u, target, model)
		cu, ct := e.orient.To(a.m, w.u), e.orient.To(a.m, target)
		// Plan detours only on the final-destination leg; pivot legs are
		// already part of a plan. The replan guard limits in-place loops
		// (it resets on every actual movement).
		if find != nil && target == d && replans < 4 {
			if seq := &opt.Scratch.seqs[0]; find(e, cu, ct, seq) {
				pl := newPlanner(a, model, e, find, ct, opt.Scratch)
				if plan := pl.plan(cu, seq); plan.ok {
					replans++
					npend = plan.npivots
					for i := 0; i < npend; i++ {
						pending[i] = e.orient.From(a.m, plan.pivots[i])
					}
					if npend > 0 {
						target = pending[0]
						e = a.envFor(w.u, target, model)
						cu, ct = e.orient.To(a.m, w.u), e.orient.To(a.m, target)
					}
				}
				// A failed plan falls through: Algorithm 2 exclusions and
				// the detour walker still make progress.
			}
		}
		cands := e.candidates(cu, ct, w.candBuf[:0])
		if len(cands) == 0 && npend > 0 {
			// Pivot leg blocked mid-way: drop the plan, re-plan from here.
			npend = 0
			continue
		}
		var normal mesh.Coord
		if len(cands) > 0 {
			dir := e.orient.DirTo(opt.Policy.choose(cands, cu, ct))
			normal = w.u.Step(dir)
		}
		if !w.downgraded {
			w.useUnsafeWall(e)
		}
		moved := w.u
		if !w.stepOrDetour(len(cands) > 0, normal, w.progressDir(cu, ct, e)) {
			return w.res
		}
		if w.u != moved {
			replans = 0
		}
	}
	return w.exhausted()
}
