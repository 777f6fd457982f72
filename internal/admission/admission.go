// Package admission is meshd's overload-protection layer: the decision,
// taken before any request body is read, of whether the server has
// capacity to serve a request right now.
//
// Two independent gates compose:
//
//   - A per-tenant token bucket (tenant identity comes from the caller,
//     typically an X-Tenant header) enforcing a steady request rate with
//     bounded burst, so one chatty tenant cannot starve the rest.
//   - A global concurrency limiter bounding requests in flight, with a
//     bounded FIFO wait queue: when the server is briefly saturated a
//     request waits its turn — up to its context deadline or the
//     configured MaxWait — instead of being bounced immediately.
//
// A request that cannot be admitted gets a *Rejection carrying the
// tenant, the reason, and a computed RetryAfter hint. Rejection unwraps
// to ErrExhausted, which the meshroute facade re-exports as
// ErrResourceExhausted → wire code RESOURCE_EXHAUSTED → HTTP 429 with a
// Retry-After header. Well-behaved clients (cmd/meshload) back off by at
// least that hint.
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrExhausted is the admission-rejection sentinel. Every *Rejection
// unwraps to it; the root meshroute package re-exports it as
// ErrResourceExhausted so callers stay inside the public taxonomy.
var ErrExhausted = errors.New("resource exhausted")

// DefaultTenant is the bucket requests land in when the caller supplies
// no tenant identity.
const DefaultTenant = "default"

// Reason says which gate refused a request.
type Reason string

const (
	// ReasonRate: the tenant's token bucket is empty.
	ReasonRate Reason = "tenant rate exceeded"
	// ReasonQueueFull: all inflight slots busy and the wait queue is at
	// capacity.
	ReasonQueueFull Reason = "wait queue full"
	// ReasonWaitTimeout: the request queued but no slot freed within
	// MaxWait.
	ReasonWaitTimeout Reason = "wait timed out"
)

// Rejection is the structured admission refusal. It wraps ErrExhausted,
// so errors.Is(err, ErrExhausted) matches and network layers can lift
// Tenant/Reason/RetryAfter into the wire body with errors.As.
type Rejection struct {
	// Tenant is the bucket the request was accounted against.
	Tenant string
	// Reason is the gate that refused it.
	Reason Reason
	// RetryAfter is the computed backoff hint: for rate rejections, the
	// time until the bucket holds a full token; for capacity rejections,
	// the configured MaxWait (a queue slot is unlikely to free sooner).
	RetryAfter time.Duration
}

// Error implements error.
func (r *Rejection) Error() string {
	return fmt.Sprintf("admission: tenant %q: %s (retry after %v): %v",
		r.Tenant, r.Reason, r.RetryAfter, ErrExhausted)
}

// Unwrap ties Rejection into the taxonomy.
func (r *Rejection) Unwrap() error { return ErrExhausted }

// Config tunes a Controller. The zero value disables both gates (every
// request admitted immediately) — meshd only pays for what it turns on.
type Config struct {
	// TenantRate is the steady per-tenant admission rate in requests per
	// second. <= 0 disables the rate gate.
	TenantRate float64
	// TenantBurst is the bucket depth (requests a quiet tenant may burst).
	// <= 0 defaults to ceil(TenantRate), minimum 1.
	TenantBurst int
	// MaxInflight bounds globally concurrent admitted requests. <= 0
	// disables the concurrency gate.
	MaxInflight int
	// MaxQueue bounds requests waiting for an inflight slot. <= 0 means
	// saturation rejects immediately instead of queueing.
	MaxQueue int
	// MaxWait bounds how long a queued request waits for a slot before
	// being rejected. <= 0 defaults to one second. A sooner context
	// deadline always wins.
	MaxWait time.Duration
	// MaxTenants caps the tenant table; when a new tenant would exceed it
	// the least-recently-seen bucket is evicted (its tallies fold into
	// the evicted totals). <= 0 defaults to 1024.
	MaxTenants int

	// now is the test clock hook (nil means time.Now).
	now func() time.Time
}

// Enabled reports whether any gate is configured — a disabled Controller
// can be skipped entirely.
func (c Config) Enabled() bool { return c.TenantRate > 0 || c.MaxInflight > 0 }

func (c Config) withDefaults() Config {
	if c.TenantBurst <= 0 {
		c.TenantBurst = max(1, int(c.TenantRate+0.999))
	}
	if c.MaxWait <= 0 {
		c.MaxWait = time.Second
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// TenantStats is one tenant's admission ledger.
type TenantStats struct {
	// Admitted and Rejected are cumulative request tallies.
	Admitted uint64
	Rejected uint64
	// Queued is the number of this tenant's requests currently waiting
	// for an inflight slot (a gauge, not a counter).
	Queued int
}

// Stats is a point-in-time snapshot of the Controller.
type Stats struct {
	// Inflight and Queued are current global gauges.
	Inflight int
	Queued   int
	// Admitted and Rejected are cumulative global tallies (evicted
	// tenants' history included).
	Admitted uint64
	Rejected uint64
	// Tenants maps live tenants to their ledgers.
	Tenants map[string]TenantStats
}

// bucket is one tenant's token bucket plus its ledger.
type bucket struct {
	tokens float64 // current tokens, <= burst
	last   time.Time
	stats  TenantStats
}

// waiter is one request queued for an inflight slot. granted flips under
// the Controller mutex when release hands it the slot; the flag settles
// the race between a slot grant and the waiter's own timeout/cancel.
type waiter struct {
	ch      chan struct{}
	granted bool
}

// Controller applies a Config. Safe for concurrent use.
type Controller struct {
	cfg Config

	mu sync.Mutex
	//meshlint:guardedby mu
	tenants map[string]*bucket
	//meshlint:guardedby mu
	inflight int
	//meshlint:guardedby mu
	queue []*waiter
	// evicted accumulates the Admitted/Rejected history of evicted
	// tenant buckets so global totals never go backwards.
	//meshlint:guardedby mu
	evicted TenantStats
}

// New builds a Controller for cfg.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults(), tenants: make(map[string]*bucket)}
}

// Admit decides whether the request identified by tenant may proceed.
// On admission it returns a release func the caller MUST invoke when the
// request finishes (it frees the inflight slot, waking a queued waiter).
// On refusal it returns a *Rejection — or, if ctx ends while queued, an
// error wrapping the context cause so the serving layer maps it to
// CANCELED rather than RESOURCE_EXHAUSTED.
func (c *Controller) Admit(ctx context.Context, tenant string) (release func(), err error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	c.mu.Lock()
	b := c.bucketLocked(tenant)

	// Gate 1: tenant rate.
	if c.cfg.TenantRate > 0 {
		if b.tokens < 1 {
			b.stats.Rejected++
			retry := time.Duration((1 - b.tokens) / c.cfg.TenantRate * float64(time.Second))
			c.mu.Unlock()
			return nil, &Rejection{Tenant: tenant, Reason: ReasonRate, RetryAfter: retry}
		}
		b.tokens--
	}

	// Gate 2: global concurrency.
	if c.cfg.MaxInflight <= 0 || c.inflight < c.cfg.MaxInflight {
		c.inflight++
		b.stats.Admitted++
		c.mu.Unlock()
		return c.release, nil
	}
	if len(c.queue) >= c.cfg.MaxQueue {
		b.stats.Rejected++
		c.mu.Unlock()
		return nil, &Rejection{Tenant: tenant, Reason: ReasonQueueFull, RetryAfter: c.cfg.MaxWait}
	}
	w := &waiter{ch: make(chan struct{})}
	c.queue = append(c.queue, w)
	b.stats.Queued++
	c.mu.Unlock()

	timer := time.NewTimer(c.cfg.MaxWait)
	defer timer.Stop()
	select {
	case <-w.ch:
		c.settleWaiter(tenant, w, true)
		return c.release, nil
	case <-ctx.Done():
		c.settleWaiter(tenant, w, false)
		return nil, fmt.Errorf("admission: tenant %q: abandoned wait queue: %w", tenant, context.Cause(ctx))
	case <-timer.C:
		if c.settleWaiter(tenant, w, false) {
			// The slot arrived in the instant the timer fired; it has been
			// re-released, but the grant proves capacity is freeing up now.
			return nil, &Rejection{Tenant: tenant, Reason: ReasonWaitTimeout, RetryAfter: c.cfg.MaxWait / 2}
		}
		return nil, &Rejection{Tenant: tenant, Reason: ReasonWaitTimeout, RetryAfter: c.cfg.MaxWait}
	}
}

// settleWaiter finishes w's time in the queue. With accept, the granted
// slot is kept (the caller admits); without, a raced grant is released
// again and a still-queued waiter is removed. Reports whether a grant
// had landed.
func (c *Controller) settleWaiter(tenant string, w *waiter, accept bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bucketLocked(tenant)
	b.stats.Queued--
	if w.granted {
		if accept {
			b.stats.Admitted++
		} else {
			b.stats.Rejected++
			c.releaseLocked()
		}
		return true
	}
	// Not granted: w must still be queued; unlink it.
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	b.stats.Rejected++
	return false
}

// release frees one inflight slot, preferring to hand it to the oldest
// queued waiter.
func (c *Controller) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked()
}

func (c *Controller) releaseLocked() {
	if len(c.queue) > 0 {
		w := c.queue[0]
		c.queue = c.queue[1:]
		w.granted = true
		close(w.ch)
		return // slot transferred, inflight unchanged
	}
	c.inflight--
}

// bucketLocked returns tenant's bucket, refilled to now, creating it
// (and evicting the least-recently-seen tenant if the table is full).
func (c *Controller) bucketLocked(tenant string) *bucket {
	now := c.cfg.now()
	b, ok := c.tenants[tenant]
	if !ok {
		if len(c.tenants) >= c.cfg.MaxTenants {
			c.evictLocked()
		}
		b = &bucket{tokens: float64(c.cfg.TenantBurst), last: now}
		c.tenants[tenant] = b
		return b
	}
	if c.cfg.TenantRate > 0 {
		b.tokens = min(float64(c.cfg.TenantBurst),
			b.tokens+now.Sub(b.last).Seconds()*c.cfg.TenantRate)
	}
	b.last = now
	return b
}

// evictLocked drops the least-recently-seen tenant, folding its tallies
// into the evicted totals. Tenants with queued waiters are exempt (their
// Queued gauge must survive until the waiters settle).
func (c *Controller) evictLocked() {
	var victim string
	var oldest time.Time
	for name, b := range c.tenants {
		if b.stats.Queued > 0 {
			continue
		}
		if victim == "" || b.last.Before(oldest) {
			victim, oldest = name, b.last
		}
	}
	if victim == "" {
		return
	}
	c.evicted.Admitted += c.tenants[victim].stats.Admitted
	c.evicted.Rejected += c.tenants[victim].stats.Rejected
	delete(c.tenants, victim)
}

// Stats snapshots the Controller for the /metrics admission families.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Inflight: c.inflight,
		Queued:   len(c.queue),
		Admitted: c.evicted.Admitted,
		Rejected: c.evicted.Rejected,
		Tenants:  make(map[string]TenantStats, len(c.tenants)),
	}
	for name, b := range c.tenants {
		s.Tenants[name] = b.stats
		s.Admitted += b.stats.Admitted
		s.Rejected += b.stats.Rejected
	}
	return s
}
