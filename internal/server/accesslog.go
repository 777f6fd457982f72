package server

import (
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span indexes one slice of a request's timing breakdown. Handlers
// attribute wall-clock time to spans via spanAdd; the access-log
// middleware renders the nonzero ones into the request's slog record
// (and into the dedicated slow-request record above Config.SlowThreshold),
// so "where did those 1.4ms go" is answerable per request: admission
// queue, body decode, the walk itself, the BFS oracle, the fault-
// transaction apply, the journal's WAL write and fsync, or response
// encoding.
type span int

const (
	spanAdmission     span = iota // waiting for an admission slot
	spanDecode                    // JSON body decode
	spanWalk                      // routing walk(s) (batch items accumulate)
	spanOracle                    // BFS-oracle comparisons
	spanApply                     // fault-transaction apply (rebuild + publish)
	spanJournalAppend             // journal WAL frame write
	spanJournalFsync              // journal fsync (FsyncAlways)
	spanEncode                    // response JSON encode
	spanCount
)

// spanNames is the stable span vocabulary, as logged.
var spanNames = [spanCount]string{
	"admission_wait", "decode", "walk", "oracle",
	"apply", "journal_append", "journal_fsync", "encode",
}

// reqMeta is the mutable per-request record the middleware and the
// handler fill in cooperatively. Handlers run on one goroutine, so the
// fields need no synchronization.
type reqMeta struct {
	id     string
	status int
	code   string // wire error code of the response, "" on success
	spans  [spanCount]time.Duration
}

// metaWriter wraps the ResponseWriter to capture the response status
// (and carry the reqMeta to everything that sees the writer: writeError
// records the wire code, handlers record spans). It forwards Flush so
// the NDJSON streaming endpoints keep flushing through it.
type metaWriter struct {
	http.ResponseWriter
	meta reqMeta
}

func (w *metaWriter) WriteHeader(status int) {
	if w.meta.status == 0 {
		w.meta.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *metaWriter) Write(b []byte) (int, error) {
	if w.meta.status == 0 {
		w.meta.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *metaWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// spanAdd attributes d to span sp when w is a tracked writer (it always
// is under the Handler middleware; bare-mux tests are no-ops).
func spanAdd(w http.ResponseWriter, sp span, d time.Duration) {
	if mw, ok := w.(*metaWriter); ok {
		mw.meta.spans[sp] += d
	}
}

// noteCode records the response's wire error code for the access log.
func noteCode(w http.ResponseWriter, code string) {
	if mw, ok := w.(*metaWriter); ok {
		mw.meta.code = code
	}
}

// meshFromPath extracts the {name} segment of /v1/meshes/{name}[/...]
// without needing the mux's routing result (the middleware wraps the
// mux, so path values are not populated yet when it runs).
func meshFromPath(path string) string {
	const prefix = "/v1/meshes/"
	rest, ok := strings.CutPrefix(path, prefix)
	if !ok || rest == "" {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// accessLog wraps the mux: it assigns (or validates and adopts) the
// request's X-Request-Id, echoes it on the response, and — when
// Config.Logger is set — emits one structured access record per request
// plus a dedicated slow-request record above Config.SlowThreshold.
// Request-ID correlation is the cluster-debugging backbone: meshload
// sends one ID across every NOT_LEADER redirect hop and
// cluster.Follower stamps its refetch/stream requests, so grepping one
// ID yields a mutation's full path across follower and leader logs.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !telemetry.ValidRequestID(id) {
			id = telemetry.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		mw := &metaWriter{ResponseWriter: w}
		mw.meta.id = id
		start := time.Now()
		next.ServeHTTP(mw, r)
		if s.cfg.Logger == nil {
			return
		}
		elapsed := time.Since(start)
		attrs := make([]slog.Attr, 0, 10+int(spanCount))
		attrs = append(attrs,
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
		)
		if mesh := meshFromPath(r.URL.Path); mesh != "" {
			attrs = append(attrs, slog.String("mesh", mesh))
		}
		if tenant := r.Header.Get("X-Tenant"); tenant != "" {
			attrs = append(attrs, slog.String("tenant", tenant))
		}
		status := mw.meta.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		attrs = append(attrs, slog.Int("status", status))
		if mw.meta.code != "" {
			attrs = append(attrs, slog.String("code", mw.meta.code))
		}
		attrs = append(attrs, slog.Float64("dur_ms", durMS(elapsed)))
		for i, d := range mw.meta.spans {
			if d > 0 {
				attrs = append(attrs, slog.Float64(spanNames[i]+"_ms", durMS(d)))
			}
		}
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		if s.cfg.SlowThreshold > 0 && elapsed >= s.cfg.SlowThreshold {
			attrs = append(attrs, slog.Float64("slow_threshold_ms", durMS(s.cfg.SlowThreshold)))
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request", attrs...)
		}
	})
}

// durMS renders a duration as fractional milliseconds (3 decimals —
// microsecond resolution, the scale walk spans live at).
func durMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}

// appendSpans is a tiny version-keyed ring of journal append timings.
// The journal's OnAppend hook records into it inside the writer critical
// section; handleFaults reads its own committed version back out to
// attribute the journal_append/journal_fsync spans. A ring (not a map)
// keeps the hook allocation-free; concurrent commits cannot evict an
// entry before its own handler reads it only if the ring outsizes the
// plausible commit concurrency — 16 is generous for a mutex-serialized
// writer path.
type appendSpans struct {
	mu   sync.Mutex
	ring [16]struct {
		version      uint64
		write, fsync time.Duration
	}
	next int
}

// record is the journal.Options.OnAppend hook.
func (a *appendSpans) record(version uint64, write, fsync time.Duration) {
	a.mu.Lock()
	a.ring[a.next] = struct {
		version      uint64
		write, fsync time.Duration
	}{version, write, fsync}
	a.next = (a.next + 1) % len(a.ring)
	a.mu.Unlock()
}

// lookup returns the recorded timings for version, if still in the ring.
func (a *appendSpans) lookup(version uint64) (write, fsync time.Duration, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.ring {
		if a.ring[i].version == version && version != 0 {
			return a.ring[i].write, a.ring[i].fsync, true
		}
	}
	return 0, 0, false
}
