package server

import (
	"time"

	meshroute "repro"
	"repro/internal/routing"
	"repro/internal/telemetry"
)

// collector accumulates per-mesh serving counters on telemetry
// instruments. Its walk-side counters are fed by the engine's Metrics
// hook (one event per walk, including every batch item), so it must
// stay allocation-free and lock-free; the HTTP-side error tally is
// bumped by the handlers.
type collector struct {
	routes    telemetry.Counter    // walks served (batch items included)
	delivered telemetry.Counter    // walks that reached the destination
	hops      telemetry.Counter    // total hops walked by delivered walks
	walk      *telemetry.Histogram // walk latency in seconds

	// httpErrors counts error outcomes by wire code — non-2xx responses
	// plus per-item errors inside 200 NDJSON batch streams. The code set
	// is closed (the documented taxonomy), so the map is preallocated and
	// only its values mutate — safe for concurrent use without a lock.
	httpErrors map[string]*telemetry.Counter
}

// errorCodes is every wire code a handler can emit, preallocated in each
// collector's httpErrors map.
var errorCodes = []string{
	CodeBadRequest, CodeMeshNotFound, CodeMeshExists, CodeRegistryFull,
	CodeInternal, CodeStorage, CodeNotLeader,
	meshroute.CodeOutsideMesh, meshroute.CodeFaultyEndpoint,
	meshroute.CodeUnreachable, meshroute.CodeAborted,
	meshroute.CodeCanceled, meshroute.CodeInvalidFaultCount,
	meshroute.CodeNotAdjacent, meshroute.CodeWatchClosed,
	meshroute.CodeResourceExhausted,
}

func newCollector() *collector {
	c := &collector{
		walk:       telemetry.NewHistogram(telemetry.LatencyBounds),
		httpErrors: make(map[string]*telemetry.Counter, len(errorCodes)),
	}
	for _, code := range errorCodes {
		c.httpErrors[code] = new(telemetry.Counter)
	}
	return c
}

// RouteServed implements engine.Metrics.
func (c *collector) RouteServed(_ routing.Algo, delivered bool, hops int, d time.Duration) {
	c.routes.Inc()
	if delivered {
		c.delivered.Inc()
		c.hops.Add(uint64(hops))
	}
	c.walk.ObserveDuration(d)
}

// countError tallies one error outcome by wire code. Unknown codes
// fold into INTERNAL so the tally never allocates.
func (c *collector) countError(code string) {
	ctr, ok := c.httpErrors[code]
	if !ok {
		ctr = c.httpErrors[CodeInternal]
	}
	ctr.Inc()
}
