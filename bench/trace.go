package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one request share
// its request ID; Parent indexes the span that caused this one (-1 for a
// root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's first span
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

// Tracer keeps spans in memory until the run writes them out. It is used
// from one goroutine: replay spans are recorded as the calls run, request
// spans after their phase ends.
type Tracer struct {
	t0    time.Time
	spans []Span
}

// Add records a span and returns its ID.
func (t *Tracer) Add(name, req string, parent int, start, end time.Time) int {
	if t.t0.IsZero() {
		t.t0 = start
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// WriteSpans writes spans to path as JSON lines.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// accessRecord is one meshd -log json access line: the request's
// duration and its span breakdown, all in milliseconds.
type accessRecord struct {
	Msg           string  `json:"msg"`
	ID            string  `json:"id"`
	Dur           float64 `json:"dur_ms"`
	AdmissionWait float64 `json:"admission_wait_ms"`
	Decode        float64 `json:"decode_ms"`
	Walk          float64 `json:"walk_ms"`
	Oracle        float64 `json:"oracle_ms"`
	Apply         float64 `json:"apply_ms"`
	JournalAppend float64 `json:"journal_append_ms"`
	JournalFsync  float64 `json:"journal_fsync_ms"`
	Encode        float64 `json:"encode_ms"`
}

// spans lists the record's nonzero spans in meshd's vocabulary.
func (a accessRecord) spans() [][2]any {
	var out [][2]any
	for _, s := range [][2]any{
		{"admission_wait", a.AdmissionWait}, {"decode", a.Decode}, {"walk", a.Walk},
		{"oracle", a.Oracle}, {"apply", a.Apply}, {"journal_append", a.JournalAppend},
		{"journal_fsync", a.JournalFsync}, {"encode", a.Encode},
	} {
		if s[1].(float64) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// readAccessLog indexes meshd's access records by request ID. Lines that
// are not JSON access records (meshd's startup and drain messages) are
// skipped.
func readAccessLog(path string) (map[string]accessRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]accessRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var rec accessRecord
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "request" && rec.ID != "" {
			out[rec.ID] = rec
		}
	}
	return out, sc.Err()
}

// logStep is the access log's resolution: durations are whole microseconds.
const logStep = 1e-3 // ms

// traced is the per-layer run. Part (a) runs the workload twice end to
// end: once untraced for one window, as the overhead baseline, then with
// meshd's JSON access log and a request ID on every request, joining
// each client span to meshd's spans for it. Part (b) replays every
// layer's public entry point in process on the same inputs.
func (r *runner) traced(ctx context.Context, res *Result) error {
	base, err := r.baseline(ctx)
	if err != nil {
		return err
	}
	s, err := r.setUp(ctx, filepath.Join(r.cfg.Dir, "traced"), true)
	if err != nil {
		return err
	}
	pl, err := r.phase(ctx, s, phaseOpts{duration: r.cfg.Duration, ids: true})
	stopErr := s.stop()
	if err != nil {
		return err
	}
	if stopErr != nil {
		return stopErr
	}
	res.Attempted, res.Failed, res.Failures = pl.attempted, pl.failed, pl.failures
	log, err := readAccessLog(s.d.LogPath)
	if err != nil {
		return err
	}

	m := map[string]float64{}
	reads, elapsed, windows := pl.measured()
	lat := latenciesMS(reads)
	var pairs float64
	for _, x := range reads {
		pairs += float64(x.pairs)
	}
	res.Extra = append(res.Extra,
		Metric{"traced.pairs_per_s", pairs / elapsed.Seconds(), "1/s"},
		Metric{"traced.latency_p50_ms", Quantile(lat, 0.5), "ms"},
		Metric{"traced.windows", float64(windows), "count"})
	if err := r.joinLog(reads, pl.commits, s, log, m); err != nil {
		return err
	}
	traced := firstWindow(pl)
	m["trace.overhead_frac"] = traced.Seconds()/base.Seconds() - 1
	res.Extra = append(res.Extra,
		Metric{"trace.baseline_window_s", base.Seconds(), "s"},
		Metric{"trace.traced_window_s", traced.Seconds(), "s"})

	if err := r.replay(ctx, m); err != nil {
		return err
	}
	r.ledger(Quantile(lat, 0.5)*1e3, m)

	for _, spec := range PerLayer {
		v, ok := m[spec.Name]
		if !ok || math.IsNaN(v) {
			return fmt.Errorf("traced run measured no %s", spec.Name)
		}
		res.Metrics = append(res.Metrics, Metric{spec.Name, v, spec.Unit})
	}
	res.Spans = r.tr.spans
	return nil
}

// baseline is the untraced reference for trace.overhead_frac: the time
// an untraced daemon takes for the first window of the same traffic.
func (r *runner) baseline(ctx context.Context) (time.Duration, error) {
	s, err := r.setUp(ctx, filepath.Join(r.cfg.Dir, "baseline"), false)
	if err != nil {
		return 0, err
	}
	pl, err := r.phase(ctx, s, phaseOpts{duration: r.cfg.Duration, maxWindows: 1})
	stopErr := s.stop()
	if err != nil {
		return 0, err
	}
	if pl.failed > 0 {
		return 0, fmt.Errorf("baseline: %d operations failed: %v", pl.failed, pl.failures)
	}
	return firstWindow(pl), stopErr
}

// firstWindow is the time from the start of measurement to the end of
// the phase's first complete window.
func firstWindow(pl *phaseLog) time.Duration {
	var last time.Time
	for _, s := range pl.reads[:min(pl.window, len(pl.reads))] {
		if s.end.After(last) {
			last = s.end
		}
	}
	return last.Sub(pl.measureStart)
}

// joinLog matches every measured request and commit to meshd's access
// record for it, records client and server spans, and computes the
// server and net metrics.
func (r *runner) joinLog(reads, commits []sample, s *setup, log map[string]accessRecord, m map[string]float64) error {
	var dur, decode, encode, walk, self, net, apply, fsync []float64
	join := func(x sample) (accessRecord, error) {
		rec, ok := log[x.id]
		if !ok {
			return rec, fmt.Errorf("no access record for request %s", x.id)
		}
		root := r.tr.Add("client."+r.cfg.Workload, x.id, -1, x.start, x.end)
		srv := r.tr.Add("server.request", x.id, root, x.start, x.start.Add(msDur(rec.Dur)))
		at := x.start
		for _, sp := range rec.spans() {
			d := msDur(sp[1].(float64))
			r.tr.Add("server."+sp[0].(string), x.id, srv, at, at.Add(d))
			at = at.Add(d)
		}
		return rec, nil
	}
	for _, x := range reads {
		rec, err := join(x)
		if err != nil {
			return err
		}
		w := rec.Walk
		if r.batch() {
			w /= float64(poolSize()) // a batch's walk span sums its workers' walks
		}
		dur = append(dur, rec.Dur)
		decode = append(decode, rec.Decode)
		encode = append(encode, rec.Encode)
		walk = append(walk, rec.Walk)
		self = append(self, rec.Dur-rec.AdmissionWait-rec.Decode-w-rec.Oracle-rec.Encode)
		net = append(net, ms(x.latency())-rec.Dur)
	}
	// Read workloads commit only during set-up: their commit spans come
	// from the fixture commit.
	if !r.churn() {
		commits = []sample{s.commit}
	}
	for _, x := range commits {
		rec, err := join(x)
		if err != nil {
			return err
		}
		apply = append(apply, rec.Apply)
		fsync = append(fsync, rec.JournalFsync)
	}
	m["server.request_ms_p50"] = GroupedMedian(dur, logStep)
	m["server.decode_us_p50"] = GroupedMedian(decode, logStep) * 1e3
	m["server.encode_us_p50"] = GroupedMedian(encode, logStep) * 1e3
	m["server.walk_us_p50"] = GroupedMedian(walk, logStep) * 1e3
	m["server.self_us_p50"] = Quantile(self, 0.5) * 1e3
	m["server.apply_ms_p50"] = Quantile(apply, 0.5)
	m["server.journal_fsync_us_p50"] = Quantile(fsync, 0.5) * 1e3
	m["net.overhead_us_p50"] = Quantile(net, 0.5) * 1e3
	return nil
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// ledger computes the gaps between the end-to-end numbers and the sum of
// their layers. clientP50 is the traced run's median request latency, in
// microseconds.
func (r *runner) ledger(clientP50 float64, m map[string]float64) {
	serving := m["net.overhead_us_p50"] + m["server.decode_us_p50"] + m["server.encode_us_p50"]
	switch {
	case r.batch():
		// A batch's self time is its pool's imbalance, which the
		// in-process batch wall time already holds.
		serving += m["engine.batch.wall_ms_p50"] * 1e3
	case r.oracle():
		serving += m["server.self_us_p50"] + m["routing.walk.p50_us"] + m["meshroute.route_oracle.p50_us"]
	default:
		serving += m["server.self_us_p50"] + m["routing.walk.p50_us"] + m["meshroute.route.p50_us"]
	}
	m["gap.route_us"] = clientP50 - serving
	stages := m["fault.diff.us"]/1e3 + m["labeling.update.ms"] + m["mcc.update_set.ms"] +
		m["info.rebuild.B1.ms"] + m["info.rebuild.B2.ms"] + m["info.rebuild.B3.ms"] + m["spath.oracle.rebase_us"]/1e3
	m["gap.commit_ms"] = m["engine.swap.ms"] - stages
}
